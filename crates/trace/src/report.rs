//! Span-tree reconstruction, validation, and export.

use std::collections::HashMap;
use std::fmt;

use crate::json_str;
use crate::sink::{Record, RecordKind};

/// A completed span in a [`TraceReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span id (unique within the trace).
    pub id: u64,
    /// Enclosing span id, `None` at the root.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Start, microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Attributes from the span's `end` record.
    pub attrs: Vec<(String, String)>,
}

impl TraceSpan {
    /// Looks up one attribute.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// An event in a [`TraceReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRecord {
    /// Event id.
    pub id: u64,
    /// Enclosing span id.
    pub parent: Option<u64>,
    /// Event name.
    pub name: String,
    /// Timestamp, microseconds since the trace epoch.
    pub t_us: u64,
    /// Optional duration (externally timed events).
    pub dur_us: Option<u64>,
    /// Attributes.
    pub attrs: Vec<(String, String)>,
}

/// A malformed or unbalanced trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid trace: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

/// A validated trace: completed spans (in close order) and events (in
/// emission order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Completed spans, in the order they closed.
    pub spans: Vec<TraceSpan>,
    /// Events, in emission order.
    pub events: Vec<ParsedRecord>,
}

impl TraceReport {
    /// Reconstructs the span tree from a record stream, enforcing balance:
    /// every `begin` is closed by an `end` with the same id, closes are
    /// strictly LIFO, and `end`/`event` records never reference unknown
    /// spans.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] describing the first violation.
    pub fn from_records(records: &[Record]) -> Result<TraceReport, TraceError> {
        let mut open: Vec<(u64, Option<u64>, String, u64)> = Vec::new();
        // The ids on `open`, each with its multiplicity, so a parent check
        // costs one lookup however deep the stack is.
        let mut open_ids: HashMap<u64, usize> = HashMap::new();
        let mut report = TraceReport::default();
        for (i, rec) in records.iter().enumerate() {
            match rec.kind {
                RecordKind::Begin => {
                    if let Some(parent) = rec.parent {
                        if !open_ids.contains_key(&parent) {
                            return Err(TraceError(format!(
                                "record {i}: begin {} names parent {parent}, which is not open",
                                rec.id
                            )));
                        }
                    }
                    open.push((rec.id, rec.parent, rec.name.clone(), rec.t_us));
                    *open_ids.entry(rec.id).or_default() += 1;
                }
                RecordKind::End => {
                    let Some((id, parent, name, start_us)) = open.pop() else {
                        return Err(TraceError(format!(
                            "record {i}: end {} with no open span",
                            rec.id
                        )));
                    };
                    if id != rec.id {
                        return Err(TraceError(format!(
                            "record {i}: end {} closes out of order (innermost open span is {id})",
                            rec.id
                        )));
                    }
                    if name != rec.name {
                        return Err(TraceError(format!(
                            "record {i}: end {} is named {:?} but its begin was {name:?}",
                            rec.id, rec.name
                        )));
                    }
                    if let Some(n) = open_ids.get_mut(&id) {
                        *n -= 1;
                        if *n == 0 {
                            open_ids.remove(&id);
                        }
                    }
                    report.spans.push(TraceSpan {
                        id,
                        parent,
                        name,
                        start_us,
                        dur_us: rec.dur_us.unwrap_or(rec.t_us.saturating_sub(start_us)),
                        attrs: rec.attrs.clone(),
                    });
                }
                RecordKind::Event => {
                    if let Some(parent) = rec.parent {
                        if !open_ids.contains_key(&parent) {
                            return Err(TraceError(format!(
                                "record {i}: event {} names parent {parent}, which is not open",
                                rec.id
                            )));
                        }
                    }
                    report.events.push(ParsedRecord {
                        id: rec.id,
                        parent: rec.parent,
                        name: rec.name.clone(),
                        t_us: rec.t_us,
                        dur_us: rec.dur_us,
                        attrs: rec.attrs.clone(),
                    });
                }
            }
        }
        if let Some((id, _, name, _)) = open.last() {
            return Err(TraceError(format!("span {id} ({name:?}) was never closed")));
        }
        Ok(report)
    }

    /// Parses and validates a JSON-lines trace document.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on the first unparsable line or balance
    /// violation.
    pub fn from_jsonl(text: &str) -> Result<TraceReport, TraceError> {
        let mut records = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            records
                .push(parse_record(line).map_err(|e| TraceError(format!("line {}: {e}", no + 1)))?);
        }
        TraceReport::from_records(&records)
    }

    /// All spans with this name, in close order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a TraceSpan> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The first span with this name, if any.
    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Total duration of all spans with this name (µs).
    pub fn total_us(&self, name: &str) -> u64 {
        self.spans_named(name).map(|s| s.dur_us).sum()
    }

    /// Renders the report as one JSON document with stable field order.
    pub fn to_json(&self) -> String {
        let attrs_json = |attrs: &[(String, String)]| {
            let body: Vec<String> = attrs
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
                .collect();
            format!("{{{}}}", body.join(","))
        };
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":{},\"start_us\":{},\"dur_us\":{},\
                     \"attrs\":{}}}",
                    s.id,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    json_str(&s.name),
                    s.start_us,
                    s.dur_us,
                    attrs_json(&s.attrs),
                )
            })
            .collect();
        let events: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":{},\"t_us\":{},\"dur_us\":{},\
                     \"attrs\":{}}}",
                    e.id,
                    e.parent.map_or("null".to_owned(), |p| p.to_string()),
                    json_str(&e.name),
                    e.t_us,
                    e.dur_us.map_or("null".to_owned(), |d| d.to_string()),
                    attrs_json(&e.attrs),
                )
            })
            .collect();
        format!(
            "{{\"version\":1,\"spans\":[{}],\"events\":[{}]}}",
            spans.join(","),
            events.join(",")
        )
    }

    /// Exports the Chrome trace-event format (a `traceEvents` array of
    /// complete `"X"` and instant `"i"` events), loadable in
    /// `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let args_json = |attrs: &[(String, String)]| {
            let body: Vec<String> = attrs
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
                .collect();
            format!("{{{}}}", body.join(","))
        };
        let mut events: Vec<String> = Vec::with_capacity(self.spans.len() + self.events.len());
        for s in &self.spans {
            events.push(format!(
                "{{\"name\":{},\"cat\":\"entangle\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":1,\"args\":{}}}",
                json_str(&s.name),
                s.start_us,
                s.dur_us,
                args_json(&s.attrs),
            ));
        }
        for e in &self.events {
            match e.dur_us {
                Some(d) => events.push(format!(
                    "{{\"name\":{},\"cat\":\"entangle\",\"ph\":\"X\",\"ts\":{},\"dur\":{d},\
                     \"pid\":1,\"tid\":1,\"args\":{}}}",
                    json_str(&e.name),
                    e.t_us,
                    args_json(&e.attrs),
                )),
                None => events.push(format!(
                    "{{\"name\":{},\"cat\":\"entangle\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\
                     \"pid\":1,\"tid\":1,\"args\":{}}}",
                    json_str(&e.name),
                    e.t_us,
                    args_json(&e.attrs),
                )),
            }
        }
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }
}

/// Parses one JSON-lines record. The grammar is the subset our sinks emit:
/// one object per line, keys `type/id/parent/name/t_us/dur_us/attrs`,
/// values are strings, non-negative integers, `null`, or (for `attrs`) one
/// flat object of string values.
fn parse_record(line: &str) -> Result<Record, String> {
    let mut p = Parser {
        chars: line.char_indices().peekable(),
        src: line,
    };
    let fields = p.object(false)?;
    p.skip_ws();
    if p.chars.peek().is_some() {
        return Err("trailing characters after record object".to_owned());
    }
    let mut kind = None;
    let mut id = None;
    let mut parent = None;
    let mut name = None;
    let mut t_us = None;
    let mut dur_us = None;
    let mut attrs = Vec::new();
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("type", Value::Str(s)) => {
                kind = Some(match s.as_str() {
                    "begin" => RecordKind::Begin,
                    "end" => RecordKind::End,
                    "event" => RecordKind::Event,
                    other => return Err(format!("unknown record type {other:?}")),
                });
            }
            ("id", Value::Num(n)) => id = Some(n),
            ("parent", Value::Num(n)) => parent = Some(n),
            ("parent", Value::Null) => parent = None,
            ("name", Value::Str(s)) => name = Some(s),
            ("t_us", Value::Num(n)) => t_us = Some(n),
            ("dur_us", Value::Num(n)) => dur_us = Some(n),
            ("attrs", Value::Obj(kvs)) => {
                for (k, v) in kvs {
                    match v {
                        Value::Str(s) => attrs.push((k, s)),
                        other => return Err(format!("attr {k:?} is not a string: {other:?}")),
                    }
                }
            }
            (key, value) => return Err(format!("unexpected field {key:?} = {value:?}")),
        }
    }
    Ok(Record {
        kind: kind.ok_or("missing \"type\"")?,
        id: id.ok_or("missing \"id\"")?,
        parent,
        name: name.ok_or("missing \"name\"")?,
        t_us: t_us.ok_or("missing \"t_us\"")?,
        dur_us,
        attrs,
    })
}

#[derive(Debug)]
enum Value {
    Str(String),
    Num(u64),
    Null,
    Obj(Vec<(String, Value)>),
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        self.skip_ws();
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected {want:?} at byte {i}, found {c:?}")),
            None => Err(format!("expected {want:?}, found end of line")),
        }
    }

    /// Parses an object. An `inner` object is a member of the record
    /// (`attrs`): the grammar allows no object inside it, so one is refused
    /// here instead of recursed into — a line of nested objects cannot
    /// overflow the stack.
    fn object(&mut self, inner: bool) -> Result<Vec<(String, Value)>, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some((_, '}'))) {
            self.chars.next();
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.expect(':')?;
            fields.push((key, self.value(inner)?));
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => return Ok(fields),
                Some((i, c)) => {
                    return Err(format!("expected ',' or '}}' at byte {i}, found {c:?}"))
                }
                None => return Err("unterminated object".to_owned()),
            }
        }
    }

    fn value(&mut self, inner: bool) -> Result<Value, String> {
        self.skip_ws();
        match self.chars.peek().copied() {
            Some((_, '"')) => Ok(Value::Str(self.string()?)),
            Some((i, '{')) if inner => Err(format!(
                "object nested in a record member at byte {i}: attrs is one flat object"
            )),
            Some((_, '{')) => Ok(Value::Obj(self.object(true)?)),
            Some((_, 'n')) => {
                for want in "null".chars() {
                    match self.chars.next() {
                        Some((_, c)) if c == want => {}
                        _ => return Err("malformed null literal".to_owned()),
                    }
                }
                Ok(Value::Null)
            }
            Some((start, c)) if c.is_ascii_digit() => {
                let mut end = start;
                while let Some(&(i, c)) = self.chars.peek() {
                    if c.is_ascii_digit() {
                        end = i + c.len_utf8();
                        self.chars.next();
                    } else {
                        break;
                    }
                }
                self.src[start..end]
                    .parse::<u64>()
                    .map(Value::Num)
                    .map_err(|e| format!("bad number: {e}"))
            }
            Some((i, c)) => Err(format!("unexpected value start {c:?} at byte {i}")),
            None => Err("expected a value, found end of line".to_owned()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .chars
                                .next()
                                .and_then(|(_, c)| c.to_digit(16))
                                .ok_or("malformed \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    other => return Err(format!("unknown escape {other:?}")),
                },
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".to_owned()),
            }
        }
    }
}
