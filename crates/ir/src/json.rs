//! The JSON interchange format, hand-rolled.
//!
//! This module plays the role of the paper's fx/HLO bridge: graphs cross
//! process boundaries as JSON. The build environment has no crates.io
//! access, so instead of serde the format is implemented directly — a pull
//! [`Reader`] over the document's bytes, a writer that prints straight to
//! text, and a validating graph codec on the two. The certificate format in
//! `entangle-cert` reads through the same [`Reader`].
//!
//! Operators keep serde's externally-tagged shape: unit variants are bare
//! strings (`"Matmul"`), variants with attributes are single-key objects
//! (`{"Slice": {"dim": 0, "start": 0, "end": 4}}`). Dimensions are plain
//! integers when constant, or `{"constant": c, "terms": [[var, coeff], ...]}`
//! when symbolic.
//!
//! Decoding reads the text once and builds no document tree: tensors and
//! nodes are built as they are read, members may come in any order, and
//! every cross-reference (tensor ids, node ids, producers) is range-checked
//! once both lists have been read, before a [`Graph`] is built, so
//! malformed input yields a descriptive [`IrError`] rather than a panic in a
//! later lookup.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::{Display, Write as _};

use entangle_symbolic::{SymExpr, SymVar};

use crate::dtype::DType;
use crate::graph::{Graph, IrError, Node, NodeId, Tensor, TensorId};
use crate::op::{Attr, AttrKind, AttrValues, Op, OPS};
use crate::shape::{Dim, Shape};

// ---------------------------------------------------------------------------
// The pull reader
// ---------------------------------------------------------------------------

/// Deepest nesting of arrays and objects a [`Reader`] accepts. The formats
/// built on it are shallow — a graph document nests 5 levels, a
/// certificate's proof 3 per level of congruence (a few dozen at most).
pub const MAX_NESTING: usize = 256;

/// Keys an object may hold before its duplicate check moves from a scan of
/// its keys to a set of them, so that a wide object costs linear time.
const SCANNED_KEYS: usize = 16;

/// The type of the next value, as [`Reader::peek`] tells it from its first
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Kind {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
}

impl Kind {
    /// A short name for the type, for error messages.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Number => "number",
            Kind::String => "string",
            Kind::Array => "array",
            Kind::Object => "object",
        }
    }
}

/// An array or object open around the cursor.
#[derive(Debug, Clone, Copy)]
enum Scope {
    Array,
    /// Its keys so far are `Reader::keys[from..]`.
    Object {
        from: usize,
    },
}

/// A pull reader over one JSON document: the caller asks for the value it
/// expects next — [`begin_object`](Reader::begin_object) then
/// [`next_key`](Reader::next_key) until `None`,
/// [`begin_array`](Reader::begin_array) then
/// [`next_item`](Reader::next_item) until `false`, or a scalar — and builds
/// its own types as it reads; no document tree is built.
///
/// It is strict where the formats need it: numbers are `i64` (no floats, no
/// leading zeros), an object may not repeat a key, nesting is bounded by
/// [`MAX_NESTING`], [`skip`](Reader::skip) checks what it skips as closely
/// as what it reads, and [`finish`](Reader::finish) refuses trailing bytes.
/// Every error ends `at byte N`. Keys and strings without escapes are
/// borrowed from the text.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    scopes: Vec<Scope>,
    /// The keys of every object open around the cursor, outermost first.
    keys: Vec<Cow<'a, str>>,
    /// The keys of each open object past [`SCANNED_KEYS`] keys as a set,
    /// with where its keys start in `keys`; innermost last.
    wide: Vec<(usize, HashSet<Cow<'a, str>>)>,
    /// Set when an array or object was just opened: its first item takes
    /// no comma before it.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            scopes: Vec::new(),
            keys: Vec::new(),
            wide: Vec::new(),
            fresh: false,
        }
    }

    /// `msg at byte N`, `N` the cursor's offset.
    pub fn error(&self, msg: impl Display) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    #[inline]
    fn at(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.at() {
            self.pos += 1;
        }
    }

    /// The type of the next value, which is not consumed.
    ///
    /// # Errors
    ///
    /// At the end of the input, or at a byte no value starts with.
    #[inline]
    pub fn peek(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.at() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::String),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(c) => Err(self.error(format_args!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    #[inline]
    fn expect(&mut self, want: Kind) -> Result<(), String> {
        match self.peek()? {
            found if found == want => Ok(()),
            found => Err(self.mismatch(want, found)),
        }
    }

    #[cold]
    fn mismatch(&mut self, want: Kind, found: Kind) -> String {
        let mismatch = self.error(format_args!(
            "expected {}, found {}",
            want.name(),
            found.name()
        ));
        // A value that is not even well-formed is reported by its syntax
        // fault: a file that is not JSON reads as not JSON.
        self.skip().err().unwrap_or(mismatch)
    }

    #[inline]
    fn open(&mut self, want: Kind, scope: Scope) -> Result<(), String> {
        self.expect(want)?;
        // Callers recurse per level: without the bound a document of
        // nothing but `[` would overflow their stack.
        if self.scopes.len() == MAX_NESTING {
            return Err(self.error(format_args!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.scopes.push(scope);
        self.pos += 1;
        self.fresh = true;
        Ok(())
    }

    /// Opens the object at the cursor.
    ///
    /// # Errors
    ///
    /// If the next value is not an object, or opening it nests deeper than
    /// [`MAX_NESTING`].
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), String> {
        let from = self.keys.len();
        self.open(Kind::Object, Scope::Object { from })
    }

    /// Opens the array at the cursor.
    ///
    /// # Errors
    ///
    /// As [`begin_object`](Reader::begin_object), for an array.
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.open(Kind::Array, Scope::Array)
    }

    /// Steps over the comma before the innermost scope's next item, or over
    /// its closer (closing the scope): `false` at the closer.
    #[inline]
    fn more(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.fresh, false);
        match self.at() {
            Some(c) if c == close => {
                self.pos += 1;
                if let Some(Scope::Object { from }) = self.scopes.pop() {
                    self.keys.truncate(from);
                    if self.wide.last().is_some_and(|(start, _)| *start == from) {
                        self.wide.pop();
                    }
                }
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ if close == b'}' => Err(self.error("expected ',' or '}' in object")),
            _ => Err(self.error("expected ',' or ']' in array")),
        }
    }

    /// The next member's key in the innermost object, with the cursor left
    /// on its value; `None` once the object is closed.
    ///
    /// # Errors
    ///
    /// On a syntax error, or a key the object already has.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        debug_assert!(matches!(self.scopes.last(), Some(Scope::Object { .. })));
        if !self.more(b'}')? {
            return Ok(None);
        }
        self.expect(Kind::String)?;
        let at = self.pos;
        let key = self.string()?;
        self.keys.push(key.clone());
        if let Some(&Scope::Object { from }) = self.scopes.last() {
            if self.repeated(from) {
                return Err(format!("duplicate object key {key:?} at byte {at}"));
            }
        }
        self.skip_ws();
        if self.at() != Some(b':') {
            return Err(self.error("expected ':'"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Whether the key just pushed repeats one before it in the object
    /// whose keys start at `keys[from]`: a scan while the object is
    /// narrow, a set lookup once it is wide.
    fn repeated(&mut self, from: usize) -> bool {
        let (key, before) = self.keys[from..].split_last().expect("a key was pushed");
        if before.len() < SCANNED_KEYS {
            return before.contains(key);
        }
        if self.wide.last().is_none_or(|(start, _)| *start != from) {
            self.wide.push((from, before.iter().cloned().collect()));
        }
        let (_, set) = self.wide.last_mut().expect("pushed above");
        !set.insert(key.clone())
    }

    /// Whether the innermost array has another item, with the cursor left
    /// on it; `false` once the array is closed.
    ///
    /// # Errors
    ///
    /// On a syntax error.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, String> {
        debug_assert!(matches!(self.scopes.last(), Some(Scope::Array)));
        self.more(b']')
    }

    /// Reads the object at the cursor member by member: `member` gets each
    /// key with the cursor on its value, and reads the value and returns
    /// `true`, or returns `false` to have the value skipped.
    ///
    /// # Errors
    ///
    /// On anything [`Reader`] refuses, and on `member`'s errors.
    pub fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<bool, String>,
    ) -> Result<(), String> {
        self.begin_object()?;
        while let Some(key) = self.next_key()? {
            if !member(self, &key)? {
                self.skip()?;
            }
        }
        Ok(())
    }

    /// Reads the array at the cursor, one `item(reader, index)` per item.
    ///
    /// # Errors
    ///
    /// On anything [`Reader`] refuses, and on `item`'s errors.
    pub fn items<T>(
        &mut self,
        mut item: impl FnMut(&mut Self, usize) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.begin_array()?;
        let mut out = Vec::new();
        while self.next_item()? {
            out.push(item(self, out.len())?);
        }
        Ok(out)
    }

    /// The string at the cursor, unescaped; borrowed from the text when it
    /// has no escapes.
    ///
    /// # Errors
    ///
    /// If the next value is not a well-formed string.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(Kind::String)?;
        self.string()
    }

    /// The integer at the cursor.
    ///
    /// # Errors
    ///
    /// If the next value is not a number, is not an integer in JSON's
    /// grammar, or does not fit an `i64`.
    #[inline]
    pub fn int(&mut self) -> Result<i64, String> {
        self.expect(Kind::Number)?;
        self.number()
    }

    /// The `true` or `false` at the cursor.
    ///
    /// # Errors
    ///
    /// If the next value is not a bool.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, String> {
        self.expect(Kind::Bool)?;
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// The `null` at the cursor.
    ///
    /// # Errors
    ///
    /// If the next value is not `null`.
    pub fn null(&mut self) -> Result<(), String> {
        self.expect(Kind::Null)?;
        if self.literal("null") {
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// Steps over the value at the cursor, checking it as strictly as if it
    /// were read: an unknown member is skipped, never trusted unread.
    /// Iterative, so a deep value costs no stack.
    ///
    /// # Errors
    ///
    /// On anything [`Reader`] refuses.
    pub fn skip(&mut self) -> Result<(), String> {
        let floor = self.scopes.len();
        loop {
            match self.peek()? {
                Kind::Object => self.begin_object()?,
                Kind::Array => self.begin_array()?,
                Kind::String => drop(self.str()?),
                Kind::Number => drop(self.int()?),
                Kind::Bool => drop(self.bool()?),
                Kind::Null => self.null()?,
            }
            // Close every scope the value ended, up to the next value.
            loop {
                let more = match self.scopes.get(floor..).and_then(<[Scope]>::last) {
                    None => return Ok(()),
                    Some(Scope::Array) => self.next_item()?,
                    Some(Scope::Object { .. }) => self.next_key()?.is_some(),
                };
                if more {
                    break;
                }
            }
        }
    }

    /// Ends the document: only whitespace may follow the value read.
    ///
    /// # Errors
    ///
    /// On trailing bytes.
    pub fn finish(mut self) -> Result<(), String> {
        debug_assert!(self.scopes.is_empty(), "finish inside a value");
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after JSON document"))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if found {
            self.pos += word.len();
        }
        found
    }

    /// The string whose opening quote is at the cursor.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let text = self.text;
        let bytes = text.as_bytes();
        self.pos += 1;
        let mut unescaped: Option<String> = None;
        loop {
            // The run up to the next delimiter is one slice. Both delimiters
            // are ASCII, which never occurs inside a multi-byte UTF-8
            // sequence, so every cut falls on a char boundary of `text`.
            let len = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| self.error("unterminated string"))?;
            let run = &text[self.pos..self.pos + len];
            self.pos += len + 1;
            if bytes[self.pos - 1] == b'"' {
                return Ok(match unescaped {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = unescaped.get_or_insert_with(String::new);
            out.push_str(run);
            let c = match self.at() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = bytes
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                        .ok_or_else(|| self.error("invalid \\u escape"))?;
                    let code = hex.iter().fold(0, |code, &h| {
                        code * 16 + (h as char).to_digit(16).unwrap_or(0)
                    });
                    self.pos += 4;
                    char::from_u32(code)
                        .ok_or_else(|| self.error("\\u escape is not a scalar value"))?
                }
                _ => return Err(self.error("invalid escape sequence")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// The number whose first byte is at the cursor: JSON's integer grammar
    /// `-?(0|[1-9][0-9]*)`, so `01` and a lone `-` are refused.
    fn number(&mut self) -> Result<i64, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = bytes[start] == b'-';
        let digits = start + usize::from(negative);
        self.pos = digits;
        // Accumulated as a negative number, so that `i64::MIN` fits.
        let mut value = Some(0i64);
        while let Some(d @ b'0'..=b'9') = self.at() {
            value = value
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_sub(i64::from(d - b'0')));
            self.pos += 1;
        }
        if let Some(b'.' | b'e' | b'E') = self.at() {
            return Err(self.error("the interchange format has no floating-point numbers"));
        }
        if self.pos == digits || (bytes[digits] == b'0' && self.pos > digits + 1) {
            return Err(format!("malformed number at byte {start}"));
        }
        value
            .and_then(|v| if negative { Some(v) } else { v.checked_neg() })
            .ok_or_else(|| self.error("number out of range"))
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Encoding: Graph -> text
// ---------------------------------------------------------------------------

/// The graph format's layout, written straight to text: two-space
/// indentation, an object's members one per line, an array on one line
/// when it holds only scalars and one item per line otherwise.
struct Pretty {
    out: String,
    indent: usize,
    /// Set when an object or a one-per-line array was just opened: its
    /// first item takes no comma before it.
    fresh: bool,
}

impl Pretty {
    /// Opens an object (`'{'`) or a one-item-per-line array (`'['`).
    fn open(&mut self, c: char) {
        self.out.push(c);
        self.indent += 2;
        self.fresh = true;
    }

    fn close(&mut self, c: char) {
        self.indent -= 2;
        if !self.fresh {
            self.newline();
        }
        self.out.push(c);
        self.fresh = false;
    }

    fn newline(&mut self) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', self.indent));
    }

    /// Starts the next item of the open array.
    fn item(&mut self) {
        if !std::mem::replace(&mut self.fresh, false) {
            self.out.push(',');
        }
        self.newline();
    }

    /// Starts the member `key` of the open object.
    fn key(&mut self, key: &str) {
        self.item();
        write_escaped(&mut self.out, key);
        self.out.push_str(": ");
    }

    fn int(&mut self, n: impl Display) {
        write!(self.out, "{n}").expect("writing to a String cannot fail");
    }

    fn str(&mut self, s: &str) {
        write_escaped(&mut self.out, s);
    }

    fn int_member(&mut self, key: &str, n: impl Display) {
        self.key(key);
        self.int(n);
    }

    /// An array of integers, on one line.
    fn ints<T: Display>(&mut self, items: impl IntoIterator<Item = T>) {
        self.out.push('[');
        for (i, n) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.int(n);
        }
        self.out.push(']');
    }

    fn dim(&mut self, d: &Dim) {
        let e = d.expr();
        if let Some(c) = e.as_const() {
            return self.int(c);
        }
        self.open('{');
        self.int_member("constant", e.constant_part());
        self.key("terms");
        self.open('[');
        for (v, c) in e.terms() {
            self.item();
            self.ints([v.index() as i64, c]);
        }
        self.close(']');
        self.close('}');
    }

    fn dims(&mut self, dims: &[Dim]) {
        if dims.iter().all(|d| d.expr().as_const().is_some()) {
            return self.ints(dims.iter().filter_map(|d| d.expr().as_const()));
        }
        self.open('[');
        for d in dims {
            self.item();
            self.dim(d);
        }
        self.close(']');
    }

    fn op(&mut self, op: &Op) {
        let row = op.row();
        if row.attrs.is_empty() {
            return self.str(row.tag);
        }
        self.open('{');
        self.key(row.tag);
        self.open('{');
        for ((key, _), value) in row.attrs.iter().zip(op.attrs()) {
            self.key(key);
            match value.expect("a value per schema entry") {
                Attr::Index(n) => self.int(n),
                Attr::Int(n) => self.int(n),
                Attr::Flag(b) => self.out.push_str(if b { "true" } else { "false" }),
                Attr::Dim(d) => self.dim(&d),
                Attr::Dims(dims) => self.dims(&dims),
                Attr::Indices(perm) => self.ints(perm),
            }
        }
        self.close('}');
        self.close('}');
    }
}

fn dtype_name(d: DType) -> &'static str {
    match d {
        DType::F32 => "F32",
        DType::I64 => "I64",
        DType::Bool => "Bool",
    }
}

/// Encodes a graph into the interchange format.
pub(crate) fn encode_graph(g: &Graph) -> String {
    let mut w = Pretty {
        out: String::with_capacity(256 * (g.tensors().len() + g.nodes().len())),
        indent: 0,
        fresh: false,
    };
    w.open('{');
    w.key("name");
    w.str(g.name());
    w.key("tensors");
    w.open('[');
    for t in g.tensors() {
        w.item();
        w.open('{');
        w.int_member("id", t.id.0);
        w.key("name");
        w.str(&t.name);
        w.key("shape");
        w.dims(t.shape.dims());
        w.key("dtype");
        w.str(dtype_name(t.dtype));
        w.key("producer");
        match t.producer {
            Some(n) => w.int(n.0),
            None => w.out.push_str("null"),
        }
        w.close('}');
    }
    w.close(']');
    w.key("nodes");
    w.open('[');
    for n in g.nodes() {
        w.item();
        w.open('{');
        w.int_member("id", n.id.0);
        w.key("name");
        w.str(&n.name);
        w.key("op");
        w.op(&n.op);
        w.key("inputs");
        w.ints(n.inputs.iter().map(|t| t.0));
        w.int_member("output", n.output.0);
        w.close('}');
    }
    w.close(']');
    w.key("inputs");
    w.ints(g.inputs().iter().map(|t| t.0));
    w.key("outputs");
    w.ints(g.outputs().iter().map(|t| t.0));
    w.close('}');
    w.out
}

// ---------------------------------------------------------------------------
// Decoding: text -> Graph (with reference validation)
// ---------------------------------------------------------------------------
//
// A syntax fault is located by its byte offset; a fault in what was read
// is prefixed with where in the graph it is (`tensor[3]: ...`).

/// Prefixes an error with where in the graph it happened.
fn within(ctx: impl Display) -> impl Fn(String) -> String {
    move |e| format!("{ctx}: {e}")
}

fn need<T>(value: Option<T>, key: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("missing field {key:?}"))
}

fn usize_of(r: &mut Reader<'_>) -> Result<usize, String> {
    let n = r.int()?;
    usize::try_from(n).map_err(|_| format!("expected non-negative number, found {n}"))
}

fn u32_of(r: &mut Reader<'_>) -> Result<u32, String> {
    let n = r.int()?;
    u32::try_from(n).map_err(|_| format!("id {n} out of range"))
}

fn decode_dim(r: &mut Reader<'_>) -> Result<Dim, String> {
    match r.peek()? {
        Kind::Number => Ok(Dim(SymExpr::constant(r.int()?))),
        Kind::Object => {
            let (mut constant, mut terms) = (None, None);
            r.members(|r, key| {
                match key {
                    "constant" => constant = Some(r.int()?),
                    "terms" => {
                        terms = Some(r.items(|r, i| match r.items(|r, _| r.int())?[..] {
                            [var, coeff] => {
                                let var = u32::try_from(var)
                                    .map_err(|_| format!("id {var} out of range"))?;
                                Ok((SymVar::from_index(var), coeff))
                            }
                            _ => Err(format!("term {i} must be a [var, coeff] pair")),
                        })?);
                    }
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Dim(SymExpr::from_terms(
                need(constant, "constant")?,
                need(terms, "terms")?,
            )))
        }
        other => Err(format!(
            "expected dimension (number or object), found {}",
            other.name()
        )),
    }
}

/// A list of sizes — a tensor's shape or a `Reshape` target — none of them
/// a negative constant, and the product of the constant ones an `i64`, so
/// every element count the checker computes from them fits.
fn decode_dims(r: &mut Reader<'_>) -> Result<Vec<Dim>, String> {
    let mut count = 1i64;
    r.items(|r, _| {
        let start = r.peek().map(|_| r.pos)?;
        let dim = decode_dim(r)?;
        match dim.as_const() {
            Some(n) if n < 0 => Err(format!("negative dimension {n} at byte {start}")),
            Some(n) => {
                count = count.checked_mul(n).ok_or_else(|| {
                    format!("dimension {n} at byte {start} takes the element count past i64")
                })?;
                Ok(dim)
            }
            None => Ok(dim),
        }
    })
}

fn decode_dtype(r: &mut Reader<'_>) -> Result<DType, String> {
    match &*r.str()? {
        "F32" => Ok(DType::F32),
        "I64" => Ok(DType::I64),
        "Bool" => Ok(DType::Bool),
        other => Err(format!("unknown dtype {other:?}")),
    }
}

fn decode_op(r: &mut Reader<'_>) -> Result<Op, String> {
    let not_an_op =
        |kind: &str| format!("expected operator (string or single-key object), found {kind}");
    match r.peek()? {
        Kind::String => {
            let tag = r.str()?;
            match OPS.iter().find(|row| row.tag == tag) {
                Some(row) if row.attrs.is_empty() => Ok(row.op.clone()),
                _ => Err(format!("{tag:?} is not a unit operator")),
            }
        }
        Kind::Object => {
            r.begin_object()?;
            let tag = r.next_key()?.ok_or_else(|| not_an_op("object"))?;
            let op = decode_attrs(r, &tag).map_err(within(&tag))?;
            if r.next_key()?.is_some() {
                return Err(not_an_op("object"));
            }
            Ok(op)
        }
        other => Err(not_an_op(other.name())),
    }
}

/// The body of the attribute-carrying operator `tag`: its schema's members
/// in any order, any other member skipped.
fn decode_attrs(r: &mut Reader<'_>, tag: &str) -> Result<Op, String> {
    let row = match OPS.iter().find(|row| row.tag == tag) {
        Some(row) if !row.attrs.is_empty() => row,
        _ => return Err(format!("unknown operator {tag:?}")),
    };
    let mut values = AttrValues::default();
    r.members(|r, key| {
        let Some(i) = row.attrs.iter().position(|&(name, _)| name == key) else {
            return Ok(false);
        };
        values[i] = Some(match row.attrs[i].1 {
            AttrKind::Index => Attr::Index(usize_of(r)?),
            AttrKind::Int => Attr::Int(r.int()?),
            AttrKind::Flag => Attr::Flag(r.bool()?),
            AttrKind::Dim => Attr::Dim(decode_dim(r)?),
            AttrKind::Dims => Attr::Dims(decode_dims(r)?),
            AttrKind::Indices => Attr::Indices(r.items(|r, _| usize_of(r))?),
        });
        Ok(true)
    })?;
    for (value, (key, _)) in values.iter().zip(row.attrs) {
        need(value.as_ref(), key)?;
    }
    Ok(Op::from_attrs(row, values))
}

/// Decodes the interchange format into a [`Graph`].
///
/// Every id cross-reference is range-checked here; [`Graph::from_json`]
/// additionally runs full [`Graph::validate`] afterwards.
pub(crate) fn decode_graph(text: &str) -> Result<Graph, IrError> {
    decode_graph_inner(text).map_err(IrError::Serde)
}

fn decode_graph_inner(text: &str) -> Result<Graph, String> {
    let mut r = Reader::new(text);
    let (mut name, mut tensors, mut nodes, mut inputs, mut outputs) =
        (None, None, None, None, None);
    let mut names = HashSet::new();
    r.members(|r, key| {
        match key {
            "name" => name = Some(r.str().map_err(within("graph.name"))?.into_owned()),
            "tensors" => {
                tensors = Some(r.items(|r, i| {
                    decode_tensor(r, i, &mut names).map_err(within(format_args!("tensor[{i}]")))
                })?);
            }
            "nodes" => {
                nodes =
                    Some(r.items(|r, i| {
                        decode_node(r, i).map_err(within(format_args!("node[{i}]")))
                    })?);
            }
            "inputs" => inputs = Some(r.items(|r, _| u32_of(r)).map_err(within("inputs"))?),
            "outputs" => outputs = Some(r.items(|r, _| u32_of(r)).map_err(within("outputs"))?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    r.finish()?;
    let graph = |key| format!("graph: missing field {key:?}");
    let name = name.ok_or_else(|| graph("name"))?;
    let tensors: Vec<Tensor> = tensors.ok_or_else(|| graph("tensors"))?;
    let nodes: Vec<Node> = nodes.ok_or_else(|| graph("nodes"))?;
    let inputs = inputs.ok_or_else(|| graph("inputs"))?;
    let outputs = outputs.ok_or_else(|| graph("outputs"))?;

    // Both lists are read: now every reference can be range-checked.
    let (n_tensors, n_nodes) = (tensors.len(), nodes.len());
    let tensor_ref = |id: u32, ctx: &dyn Display| -> Result<TensorId, String> {
        if (id as usize) < n_tensors {
            Ok(TensorId(id))
        } else {
            Err(format!(
                "{ctx}: tensor id {id} out of range (graph has {n_tensors} tensors)"
            ))
        }
    };
    for (i, t) in tensors.iter().enumerate() {
        if let Some(NodeId(id)) = t.producer {
            if id as usize >= n_nodes {
                return Err(format!(
                    "tensor[{i}]: node id {id} out of range (graph has {n_nodes} nodes)"
                ));
            }
        }
    }
    for (i, n) in nodes.iter().enumerate() {
        for &TensorId(id) in n.inputs.iter().chain([&n.output]) {
            tensor_ref(id, &format_args!("node[{i}]"))?;
        }
    }
    let ids = |list: Vec<u32>, key: &str| -> Result<Vec<TensorId>, String> {
        list.into_iter().map(|id| tensor_ref(id, &key)).collect()
    };
    let inputs = ids(inputs, "inputs")?;
    let outputs = ids(outputs, "outputs")?;
    Ok(Graph::from_parts_unchecked(
        name, tensors, nodes, inputs, outputs,
    ))
}

/// Tensor `i`, its producer not yet range-checked.
fn decode_tensor<'a>(
    r: &mut Reader<'a>,
    i: usize,
    names: &mut HashSet<Cow<'a, str>>,
) -> Result<Tensor, String> {
    let (mut id, mut name, mut shape, mut dtype, mut producer) = (None, None, None, None, None);
    r.members(|r, key| {
        match key {
            "id" => id = Some(positional_id(r, i)?),
            "name" => {
                let tname = r.str()?;
                if !names.insert(tname.clone()) {
                    return Err(format!("duplicate tensor name {tname:?}"));
                }
                name = Some(tname.into_owned());
            }
            "shape" => shape = Some(Shape(decode_dims(r)?)),
            "dtype" => dtype = Some(decode_dtype(r)?),
            "producer" => {
                producer = Some(if r.peek()? == Kind::Null {
                    r.null()?;
                    None
                } else {
                    Some(NodeId(u32_of(r)?))
                });
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Tensor {
        id: TensorId(need(id, "id")?),
        name: need(name, "name")?,
        shape: need(shape, "shape")?,
        dtype: need(dtype, "dtype")?,
        producer: need(producer, "producer")?,
    })
}

/// Node `i`, its tensor references not yet range-checked.
fn decode_node(r: &mut Reader<'_>, i: usize) -> Result<Node, String> {
    let (mut id, mut name, mut op, mut inputs, mut output) = (None, None, None, None, None);
    r.members(|r, key| {
        match key {
            "id" => id = Some(positional_id(r, i)?),
            "name" => name = Some(r.str()?.into_owned()),
            "op" => op = Some(decode_op(r).map_err(within("op"))?),
            "inputs" => inputs = Some(r.items(|r, _| Ok(TensorId(u32_of(r)?)))?),
            "output" => output = Some(TensorId(u32_of(r)?)),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Node {
        id: NodeId(need(id, "id")?),
        name: need(name, "name")?,
        op: need(op, "op")?,
        inputs: need(inputs, "inputs")?,
        output: need(output, "output")?,
    })
}

/// The `id` of list item `i`, which must be `i`.
fn positional_id(r: &mut Reader<'_>, i: usize) -> Result<u32, String> {
    let id = u32_of(r)?;
    if id as usize != i {
        return Err(format!("id {id} does not match its position"));
    }
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads any document through the reader, skipping its one value.
    fn check(text: &str) -> Result<(), String> {
        let mut r = Reader::new(text);
        r.skip()?;
        r.finish()
    }

    #[test]
    fn reader_reads_what_it_is_asked_for() {
        let text = r#"{"a": [1, -2, 3], "b": "x\"y", "c": null, "d": true, "e": {}}"#;
        let mut r = Reader::new(text);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        assert_eq!(r.items(|r, _| r.int()).unwrap(), [1, -2, 3]);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("b"));
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "x\"y"));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("c"));
        assert_eq!(r.peek(), Ok(Kind::Null));
        r.null().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("d"));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("e"));
        r.skip().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(check("").is_err());
        assert!(check("{").is_err());
        assert!(check("[1, 2,]").is_err());
        assert!(check("[,1]").is_err());
        assert!(check("[1 2]").is_err());
        assert!(check("{\"a\" 1}").is_err());
        assert!(check("{\"a\": 1,}").is_err());
        assert!(check("{\"a\": 1} trailing").is_err());
        assert!(check("1.5").is_err());
        assert!(check("\"unterminated").is_err());
        assert!(check("\"\\u12\"").is_err());
        assert!(check("\"\\u+123\"").is_err());
        assert!(check("{\"a\": 1, \"a\": 2}").is_err());
        assert!(check("[{\"a\": 1, \"b\": {\"a\": 2}, \"a\": 3}]")
            .unwrap_err()
            .contains("duplicate object key \"a\" at byte 25"));
        // Keys of sibling objects do not collide.
        check("[{\"a\": 1}, {\"a\": 2}]").unwrap();
    }

    #[test]
    fn a_wide_object_is_checked_for_duplicates_in_linear_time() {
        let keys = 200_000;
        let wide: Vec<String> = (0..keys).map(|i| format!("\"k{i}\": {i}")).collect();
        let object = format!("{{{}}}", wide.join(", "));
        let start = std::time::Instant::now();
        check(&object).expect("distinct keys");
        // Siblings start their keys where the wide one started; its set
        // goes when it closes, so the third object's keys meet only its own.
        let repeated = format!(
            "[{object}, {{\"k0\": 0}}, {{{}, \"k{}\": 0}}]",
            wide.join(", "),
            keys - 1
        );
        let err = check(&repeated).unwrap_err();
        assert!(
            err.contains(&format!("duplicate object key \"k{}\"", keys - 1)),
            "{err}"
        );
        // A scan per key would make 2·10¹⁰ comparisons here.
        if !cfg!(debug_assertions) {
            assert!(start.elapsed().as_secs() < 2, "{:?}", start.elapsed());
        }
    }

    #[test]
    fn numbers_are_json_integers() {
        for ok in ["0", "-0", "7", "-12", "9223372036854775807"] {
            check(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        for (bad, why) in [
            ("01", "malformed number at byte 0"),
            ("-", "malformed number at byte 0"),
            ("-01", "malformed number at byte 0"),
            ("[1, 007]", "malformed number at byte 4"),
            ("9223372036854775808", "number out of range"),
            ("1e3", "no floating-point numbers"),
        ] {
            let err = check(bad).unwrap_err();
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn a_graph_with_a_malformed_id_is_refused_where_the_number_starts() {
        let graph = r#"{"name": "g", "tensors": [{"id": 0, "name": "x", "shape": [2], "dtype": "F32", "producer": null}], "nodes": [], "inputs": [0], "outputs": [0]}"#;
        decode_graph(graph).expect("the well-formed graph loads");
        for (bad, at) in [("\"id\": 01", 33), ("\"id\": -", 33)] {
            let err = decode_graph(&graph.replacen("\"id\": 0", bad, 1))
                .expect_err(bad)
                .to_string();
            assert!(
                err.contains(&format!("malformed number at byte {at}")),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn an_element_count_past_i64_is_refused_where_the_size_starts() {
        let graph = r#"{"name": "g", "tensors": [{"id": 0, "name": "x", "shape": [4611686018427387904, 1], "dtype": "F32", "producer": null}], "nodes": [], "inputs": [0], "outputs": [0]}"#;
        decode_graph(graph).expect("2^62 elements fit");
        let err = decode_graph(&graph.replace(", 1]", ", 4]"))
            .expect_err("2^64 elements do not")
            .to_string();
        assert!(
            err.contains("dimension 4 at byte 80 takes the element count past i64"),
            "{err}"
        );
        let huge = r#"{"Reshape": {"shape": [4611686018427387904, 4]}}"#;
        let err = decode_op(&mut Reader::new(huge)).expect_err("a target past i64");
        assert_eq!(
            err,
            "Reshape: dimension 4 at byte 44 takes the element count past i64"
        );
    }

    #[test]
    fn a_negative_size_is_refused_where_the_number_starts() {
        let graph = r#"{"name": "g", "tensors": [{"id": 0, "name": "x", "shape": [2, 3], "dtype": "F32", "producer": null}], "nodes": [], "inputs": [0], "outputs": [0]}"#;
        decode_graph(graph).expect("the well-formed graph loads");
        let err = decode_graph(&graph.replace("[2, 3]", "[2, -3]"))
            .expect_err("a negative size")
            .to_string();
        assert!(err.contains("negative dimension -3 at byte 62"), "{err}");
        let reshape = r#"{"Reshape": {"shape": [6, -1]}}"#;
        let err = decode_op(&mut Reader::new(reshape)).expect_err("a negative target");
        assert_eq!(err, "Reshape: negative dimension -1 at byte 26");
        // An offset may be negative; a symbolic size may have a negative constant part.
        let slice = r#"{"Slice": {"dim": 0, "start": -1, "end": 4}}"#;
        decode_op(&mut Reader::new(slice)).expect("a slice's offsets are not sizes");
        let symbolic = r#"{"Reshape": {"shape": [{"constant": -1, "terms": [[0, 2]]}]}}"#;
        decode_op(&mut Reader::new(symbolic)).expect("2·s0 - 1 is not a negative constant");
    }

    #[test]
    fn strings_keep_escapes_and_multibyte_runs() {
        // Runs between escapes are copied whole; every cut is at an ASCII
        // delimiter, so multi-byte characters on either side of one survive.
        let text = r#"["né\"é", "\u00e9→\n←", "", "日本\\語", "~ones[2, 3]"]"#;
        let mut r = Reader::new(text);
        let strs = r.items(|r, _| Ok(r.str()?.into_owned())).unwrap();
        assert_eq!(strs, ["né\"é", "é→\n←", "", "日本\\語", "~ones[2, 3]"]);
        let mut written = String::new();
        for s in &strs {
            write_escaped(&mut written, s);
        }
        let mut r = Reader::new(&written);
        for s in &strs {
            assert_eq!(&r.str().unwrap(), s);
        }
        assert!(check("\"é").is_err(), "unterminated after a multi-byte run");
        // Without an escape the string is the text's own bytes.
        assert!(matches!(
            Reader::new("\"日本\"").str(),
            Ok(Cow::Borrowed("日本"))
        ));
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(check(&nested(MAX_NESTING)).is_ok());
        let err = check(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // The hostile shape: nothing but openers, far past any stack.
        assert!(check(&"[".repeat(200_000))
            .unwrap_err()
            .contains("nesting deeper"));
        assert!(check(&"{\"a\":".repeat(200_000))
            .unwrap_err()
            .contains("nesting deeper"));
        // Siblings do not nest: the count falls again when a value closes.
        let wide = format!("[{}]", vec![nested(MAX_NESTING - 1); 3].join(","));
        assert!(check(&wide).is_ok());
    }

    /// Every operator of the table with an attribute value of each kind
    /// that is not a placeholder (a symbolic one for a single `Dim`).
    fn every_op() -> Vec<Op> {
        let symbolic = Dim(SymExpr::from_terms(3, [(SymVar::from_index(0), 2)]));
        crate::OPS
            .iter()
            .map(|row| {
                let mut values = AttrValues::default();
                for (value, &(_, kind)) in values.iter_mut().zip(row.attrs) {
                    *value = Some(match kind {
                        AttrKind::Index => Attr::Index(1),
                        AttrKind::Int => Attr::Int(-3),
                        AttrKind::Flag => Attr::Flag(true),
                        AttrKind::Dim => Attr::Dim(symbolic.clone()),
                        AttrKind::Dims => Attr::Dims(vec![Dim::from(2), symbolic.clone()]),
                        AttrKind::Indices => Attr::Indices(vec![1, 0]),
                    });
                }
                Op::from_attrs(row, values)
            })
            .collect()
    }

    #[test]
    fn op_codec_round_trips() {
        let ops = every_op();
        assert_eq!(ops.len(), 45);
        for (row, op) in crate::OPS.iter().zip(ops) {
            assert!(std::ptr::eq(op.row(), row), "{op:?} finds its own row");
            let mut w = Pretty {
                out: String::new(),
                indent: 0,
                fresh: false,
            };
            w.op(&op);
            let dec = decode_op(&mut Reader::new(&w.out)).unwrap();
            assert_eq!(dec, op, "{}", w.out);
        }
    }

    #[test]
    fn op_members_come_in_any_order_and_unknown_ones_are_skipped() {
        let text = r#"{"Slice": {"end": 4, "note": [1, {"x": null}], "start": 0, "dim": 1}}"#;
        let op = decode_op(&mut Reader::new(text)).unwrap();
        let want = Op::Slice {
            dim: 1,
            start: Dim::from(0),
            end: Dim::from(4),
        };
        assert_eq!(op, want);
        for bad in [
            r#"{"Slice": {"dim": 1, "start": 0}}"#,
            r#"{"Slice": {"dim": 1, "start": 0, "end": 4}, "Concat": {"dim": 0}}"#,
            r#"{}"#,
        ] {
            assert!(decode_op(&mut Reader::new(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn unknown_operator_is_rejected() {
        assert!(decode_op(&mut Reader::new("\"Matmul2\"")).is_err());
        // A unit tag where an attribute-carrying op was expected.
        assert!(decode_op(&mut Reader::new("\"Softmax\"")).is_err());
        assert!(decode_op(&mut Reader::new("{\"Matmul2\": {}}")).is_err());
    }
}
