//! The JSON interchange format, hand-rolled.
//!
//! This module plays the role of the paper's fx/HLO bridge: graphs cross
//! process boundaries as JSON. The build environment has no crates.io
//! access, so instead of serde the format is implemented directly — a small
//! recursive-descent parser, a pretty printer, and a validating
//! graph codec.
//!
//! Operators keep serde's externally-tagged shape: unit variants are bare
//! strings (`"Matmul"`), variants with attributes are single-key objects
//! (`{"Slice": {"dim": 0, "start": 0, "end": 4}}`). Dimensions are plain
//! integers when constant, or `{"constant": c, "terms": [[var, coeff], ...]}`
//! when symbolic.
//!
//! Decoding checks every cross-reference (tensor ids, node ids, producers)
//! before a [`Graph`] is built, so malformed input yields a descriptive
//! [`IrError`] rather than a panic in a later lookup.

use std::collections::HashSet;

use entangle_symbolic::{SymExpr, SymVar};

use crate::dtype::DType;
use crate::graph::{Graph, IrError, Node, NodeId, Tensor, TensorId};
use crate::op::Op;
use crate::shape::{Dim, Shape};

// ---------------------------------------------------------------------------
// JSON value model, parser and printer
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects preserve key order; the interchange formats
/// built on it have no floating-point fields, so numbers are `i64`.
///
/// Public so sibling crates (e.g. the certificate format in
/// `entangle-cert`) can share one hand-rolled, dependency-free codec.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A short name for the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Field lookup on objects (`None` for other variants or missing keys).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The formats
/// built on it are shallow — a graph document nests 5 levels, a
/// certificate's proof 3 per level of congruence (a few dozen at most).
pub const MAX_NESTING: usize = 256;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the value being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                // The parser recurses per level: without the bound a
                // document of nothing but `[` overflows the stack.
                if self.depth == MAX_NESTING {
                    return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') | Some(b'f') => self.parse_bool(),
            Some(b'n') => self.parse_null(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate object key {key:?}")));
            }
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next delimiter as one slice. Both
            // delimiters are ASCII, which never occurs inside a multi-byte
            // UTF-8 sequence, so every cut falls on a char boundary of
            // `text`.
            let len = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| self.err("unterminated string"))?;
            let run = self
                .text
                .get(self.pos..self.pos + len)
                .ok_or_else(|| self.err("string run off a char boundary"))?;
            out.push_str(run);
            self.pos += len + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let hex =
                        std::str::from_utf8(hex).map_err(|_| self.err("non-ascii \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| self.err("\\u escape is not a scalar value"))?,
                    );
                    self.pos += 4;
                }
                _ => return Err(self.err("invalid escape sequence")),
            }
            self.pos += 1;
        }
    }

    fn parse_bool(&mut self) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(b"true") {
            self.pos += 4;
            Ok(Json::Bool(true))
        } else if self.bytes[self.pos..].starts_with(b"false") {
            self.pos += 5;
            Ok(Json::Bool(false))
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn parse_null(&mut self) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            Ok(Json::Null)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(self.err("the interchange format has no floating-point numbers"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| self.err("number out of range"))
    }
}

/// Parses one JSON document; trailing garbage is an error, and so is
/// nesting deeper than [`MAX_NESTING`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(v)
}

/// Appends `s` as a JSON string literal (quoted, escaped), for callers
/// that write a document straight to text instead of building a [`Json`].
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, v: &Json, indent: usize) {
    const STEP: usize = 2;
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            // Scalars-only arrays print inline; nested structures one-per-line.
            let flat = items
                .iter()
                .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
            if flat {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_value(out, item, indent);
                }
                out.push(']');
            } else {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&" ".repeat(indent + STEP));
                    write_value(out, item, indent + STEP);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&" ".repeat(indent));
                out.push(']');
            }
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                out.push_str(&" ".repeat(indent + STEP));
                write_escaped(out, k);
                out.push_str(": ");
                write_value(out, val, indent + STEP);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
    }
}

/// Pretty-prints a JSON value.
pub fn to_string_pretty(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0);
    out
}

// ---------------------------------------------------------------------------
// Encoding: Graph -> Json
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn encode_expr(e: &SymExpr) -> Json {
    if let Some(c) = e.as_const() {
        return Json::Int(c);
    }
    let terms = e
        .terms()
        .map(|(v, c)| Json::Arr(vec![Json::Int(v.index() as i64), Json::Int(c)]))
        .collect();
    obj(vec![
        ("constant", Json::Int(e.constant_part())),
        ("terms", Json::Arr(terms)),
    ])
}

fn encode_dim(d: &Dim) -> Json {
    encode_expr(d.expr())
}

fn encode_shape(s: &Shape) -> Json {
    Json::Arr(s.dims().iter().map(encode_dim).collect())
}

fn encode_usize(u: usize) -> Json {
    Json::Int(u as i64)
}

fn encode_op(op: &Op) -> Json {
    let unit = |tag: &str| Json::Str(tag.to_owned());
    let tagged =
        |tag: &str, fields: Vec<(&str, Json)>| Json::Obj(vec![(tag.to_owned(), obj(fields))]);
    match op {
        Op::Add => unit("Add"),
        Op::Sub => unit("Sub"),
        Op::Mul => unit("Mul"),
        Op::Div => unit("Div"),
        Op::Maximum => unit("Maximum"),
        Op::Neg => unit("Neg"),
        Op::Exp => unit("Exp"),
        Op::Sqrt => unit("Sqrt"),
        Op::Rsqrt => unit("Rsqrt"),
        Op::Tanh => unit("Tanh"),
        Op::Gelu => unit("Gelu"),
        Op::Silu => unit("Silu"),
        Op::Relu => unit("Relu"),
        Op::Sigmoid => unit("Sigmoid"),
        Op::Step => unit("Step"),
        Op::GeluGrad => unit("GeluGrad"),
        Op::SiluGrad => unit("SiluGrad"),
        Op::OnesLike => unit("OnesLike"),
        Op::Cos => unit("Cos"),
        Op::Sin => unit("Sin"),
        Op::ScalarMul { numer, denom } => tagged(
            "ScalarMul",
            vec![("numer", Json::Int(*numer)), ("denom", Json::Int(*denom))],
        ),
        Op::SumDim { dim, keepdim } => tagged(
            "SumDim",
            vec![
                ("dim", encode_usize(*dim)),
                ("keepdim", Json::Bool(*keepdim)),
            ],
        ),
        Op::MeanDim { dim, keepdim } => tagged(
            "MeanDim",
            vec![
                ("dim", encode_usize(*dim)),
                ("keepdim", Json::Bool(*keepdim)),
            ],
        ),
        Op::SumAll => unit("SumAll"),
        Op::MeanAll => unit("MeanAll"),
        Op::Softmax { dim } => tagged("Softmax", vec![("dim", encode_usize(*dim))]),
        Op::Identity => unit("Identity"),
        Op::Reshape { shape } => tagged(
            "Reshape",
            vec![("shape", Json::Arr(shape.iter().map(encode_dim).collect()))],
        ),
        Op::Transpose { d0, d1 } => tagged(
            "Transpose",
            vec![("d0", encode_usize(*d0)), ("d1", encode_usize(*d1))],
        ),
        Op::Permute { perm } => tagged(
            "Permute",
            vec![(
                "perm",
                Json::Arr(perm.iter().map(|&p| encode_usize(p)).collect()),
            )],
        ),
        Op::Slice { dim, start, end } => tagged(
            "Slice",
            vec![
                ("dim", encode_usize(*dim)),
                ("start", encode_dim(start)),
                ("end", encode_dim(end)),
            ],
        ),
        Op::Concat { dim } => tagged("Concat", vec![("dim", encode_usize(*dim))]),
        Op::Pad { dim, before, after } => tagged(
            "Pad",
            vec![
                ("dim", encode_usize(*dim)),
                ("before", encode_dim(before)),
                ("after", encode_dim(after)),
            ],
        ),
        Op::Matmul => unit("Matmul"),
        Op::Embedding => unit("Embedding"),
        Op::EmbeddingGrad { vocab } => {
            tagged("EmbeddingGrad", vec![("vocab", encode_usize(*vocab))])
        }
        Op::LayerNorm => unit("LayerNorm"),
        Op::RmsNorm => unit("RmsNorm"),
        Op::Rope => unit("Rope"),
        Op::Attention { heads, causal } => tagged(
            "Attention",
            vec![
                ("heads", encode_usize(*heads)),
                ("causal", Json::Bool(*causal)),
            ],
        ),
        Op::MseLoss => unit("MseLoss"),
        Op::CrossEntropy => unit("CrossEntropy"),
        Op::AllReduce => unit("AllReduce"),
        Op::AllGather { dim } => tagged("AllGather", vec![("dim", encode_usize(*dim))]),
        Op::ReduceScatter { dim, rank, world } => tagged(
            "ReduceScatter",
            vec![
                ("dim", encode_usize(*dim)),
                ("rank", encode_usize(*rank)),
                ("world", encode_usize(*world)),
            ],
        ),
    }
}

fn encode_dtype(d: DType) -> Json {
    Json::Str(
        match d {
            DType::F32 => "F32",
            DType::I64 => "I64",
            DType::Bool => "Bool",
        }
        .to_owned(),
    )
}

/// Encodes a graph into the interchange format.
pub(crate) fn encode_graph(g: &Graph) -> String {
    let tensors = g
        .tensors()
        .iter()
        .map(|t| {
            obj(vec![
                ("id", Json::Int(t.id.0 as i64)),
                ("name", Json::Str(t.name.clone())),
                ("shape", encode_shape(&t.shape)),
                ("dtype", encode_dtype(t.dtype)),
                (
                    "producer",
                    match t.producer {
                        Some(n) => Json::Int(n.0 as i64),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    let nodes = g
        .nodes()
        .iter()
        .map(|n| {
            obj(vec![
                ("id", Json::Int(n.id.0 as i64)),
                ("name", Json::Str(n.name.clone())),
                ("op", encode_op(&n.op)),
                (
                    "inputs",
                    Json::Arr(n.inputs.iter().map(|t| Json::Int(t.0 as i64)).collect()),
                ),
                ("output", Json::Int(n.output.0 as i64)),
            ])
        })
        .collect();
    let ids = |list: &[TensorId]| Json::Arr(list.iter().map(|t| Json::Int(t.0 as i64)).collect());
    let doc = obj(vec![
        ("name", Json::Str(g.name().to_owned())),
        ("tensors", Json::Arr(tensors)),
        ("nodes", Json::Arr(nodes)),
        ("inputs", ids(g.inputs())),
        ("outputs", ids(g.outputs())),
    ]);
    to_string_pretty(&doc)
}

// ---------------------------------------------------------------------------
// Decoding: Json -> Graph (with reference validation)
// ---------------------------------------------------------------------------

fn want<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing field {key:?}"))
}

fn as_str<'a>(v: &'a Json, ctx: &str) -> Result<&'a str, String> {
    match v {
        Json::Str(s) => Ok(s),
        other => Err(format!("{ctx}: expected string, found {}", other.kind())),
    }
}

fn as_int(v: &Json, ctx: &str) -> Result<i64, String> {
    match v {
        Json::Int(n) => Ok(*n),
        other => Err(format!("{ctx}: expected number, found {}", other.kind())),
    }
}

fn as_bool(v: &Json, ctx: &str) -> Result<bool, String> {
    match v {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("{ctx}: expected bool, found {}", other.kind())),
    }
}

fn as_arr<'a>(v: &'a Json, ctx: &str) -> Result<&'a [Json], String> {
    match v {
        Json::Arr(items) => Ok(items),
        other => Err(format!("{ctx}: expected array, found {}", other.kind())),
    }
}

fn as_usize(v: &Json, ctx: &str) -> Result<usize, String> {
    let n = as_int(v, ctx)?;
    usize::try_from(n).map_err(|_| format!("{ctx}: expected non-negative number, found {n}"))
}

fn as_u32(v: &Json, ctx: &str) -> Result<u32, String> {
    let n = as_int(v, ctx)?;
    u32::try_from(n).map_err(|_| format!("{ctx}: id {n} out of range"))
}

fn decode_expr(v: &Json, ctx: &str) -> Result<SymExpr, String> {
    match v {
        Json::Int(c) => Ok(SymExpr::constant(*c)),
        Json::Obj(_) => {
            let constant = as_int(want(v, "constant", ctx)?, ctx)?;
            let mut terms = Vec::new();
            for (i, t) in as_arr(want(v, "terms", ctx)?, ctx)?.iter().enumerate() {
                let pair = as_arr(t, ctx)?;
                if pair.len() != 2 {
                    return Err(format!("{ctx}: term {i} must be a [var, coeff] pair"));
                }
                let var = as_u32(&pair[0], ctx)?;
                let coeff = as_int(&pair[1], ctx)?;
                terms.push((SymVar::from_index(var), coeff));
            }
            Ok(SymExpr::from_terms(constant, terms))
        }
        other => Err(format!(
            "{ctx}: expected dimension (number or object), found {}",
            other.kind()
        )),
    }
}

fn decode_dim(v: &Json, ctx: &str) -> Result<Dim, String> {
    decode_expr(v, ctx).map(Dim)
}

fn decode_shape(v: &Json, ctx: &str) -> Result<Shape, String> {
    let dims = as_arr(v, ctx)?
        .iter()
        .map(|d| decode_dim(d, ctx))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Shape(dims))
}

fn decode_dtype(v: &Json, ctx: &str) -> Result<DType, String> {
    match as_str(v, ctx)? {
        "F32" => Ok(DType::F32),
        "I64" => Ok(DType::I64),
        "Bool" => Ok(DType::Bool),
        other => Err(format!("{ctx}: unknown dtype {other:?}")),
    }
}

fn decode_op(v: &Json, ctx: &str) -> Result<Op, String> {
    let unit_of = |tag: &str| -> Option<Op> {
        Some(match tag {
            "Add" => Op::Add,
            "Sub" => Op::Sub,
            "Mul" => Op::Mul,
            "Div" => Op::Div,
            "Maximum" => Op::Maximum,
            "Neg" => Op::Neg,
            "Exp" => Op::Exp,
            "Sqrt" => Op::Sqrt,
            "Rsqrt" => Op::Rsqrt,
            "Tanh" => Op::Tanh,
            "Gelu" => Op::Gelu,
            "Silu" => Op::Silu,
            "Relu" => Op::Relu,
            "Sigmoid" => Op::Sigmoid,
            "Step" => Op::Step,
            "GeluGrad" => Op::GeluGrad,
            "SiluGrad" => Op::SiluGrad,
            "OnesLike" => Op::OnesLike,
            "Cos" => Op::Cos,
            "Sin" => Op::Sin,
            "SumAll" => Op::SumAll,
            "MeanAll" => Op::MeanAll,
            "Identity" => Op::Identity,
            "Matmul" => Op::Matmul,
            "Embedding" => Op::Embedding,
            "LayerNorm" => Op::LayerNorm,
            "RmsNorm" => Op::RmsNorm,
            "Rope" => Op::Rope,
            "MseLoss" => Op::MseLoss,
            "CrossEntropy" => Op::CrossEntropy,
            "AllReduce" => Op::AllReduce,
            _ => return None,
        })
    };
    match v {
        Json::Str(tag) => {
            unit_of(tag).ok_or_else(|| format!("{ctx}: {tag:?} is not a unit operator"))
        }
        Json::Obj(fields) if fields.len() == 1 => {
            let (tag, body) = &fields[0];
            let ctx = &format!("{ctx}.{tag}");
            match tag.as_str() {
                "ScalarMul" => Ok(Op::ScalarMul {
                    numer: as_int(want(body, "numer", ctx)?, ctx)?,
                    denom: as_int(want(body, "denom", ctx)?, ctx)?,
                }),
                "SumDim" => Ok(Op::SumDim {
                    dim: as_usize(want(body, "dim", ctx)?, ctx)?,
                    keepdim: as_bool(want(body, "keepdim", ctx)?, ctx)?,
                }),
                "MeanDim" => Ok(Op::MeanDim {
                    dim: as_usize(want(body, "dim", ctx)?, ctx)?,
                    keepdim: as_bool(want(body, "keepdim", ctx)?, ctx)?,
                }),
                "Softmax" => Ok(Op::Softmax {
                    dim: as_usize(want(body, "dim", ctx)?, ctx)?,
                }),
                "Reshape" => {
                    let dims = as_arr(want(body, "shape", ctx)?, ctx)?
                        .iter()
                        .map(|d| decode_dim(d, ctx))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(Op::Reshape { shape: dims })
                }
                "Transpose" => Ok(Op::Transpose {
                    d0: as_usize(want(body, "d0", ctx)?, ctx)?,
                    d1: as_usize(want(body, "d1", ctx)?, ctx)?,
                }),
                "Permute" => {
                    let perm = as_arr(want(body, "perm", ctx)?, ctx)?
                        .iter()
                        .map(|p| as_usize(p, ctx))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(Op::Permute { perm })
                }
                "Slice" => Ok(Op::Slice {
                    dim: as_usize(want(body, "dim", ctx)?, ctx)?,
                    start: decode_dim(want(body, "start", ctx)?, ctx)?,
                    end: decode_dim(want(body, "end", ctx)?, ctx)?,
                }),
                "Concat" => Ok(Op::Concat {
                    dim: as_usize(want(body, "dim", ctx)?, ctx)?,
                }),
                "Pad" => Ok(Op::Pad {
                    dim: as_usize(want(body, "dim", ctx)?, ctx)?,
                    before: decode_dim(want(body, "before", ctx)?, ctx)?,
                    after: decode_dim(want(body, "after", ctx)?, ctx)?,
                }),
                "EmbeddingGrad" => Ok(Op::EmbeddingGrad {
                    vocab: as_usize(want(body, "vocab", ctx)?, ctx)?,
                }),
                "Attention" => Ok(Op::Attention {
                    heads: as_usize(want(body, "heads", ctx)?, ctx)?,
                    causal: as_bool(want(body, "causal", ctx)?, ctx)?,
                }),
                "AllGather" => Ok(Op::AllGather {
                    dim: as_usize(want(body, "dim", ctx)?, ctx)?,
                }),
                "ReduceScatter" => Ok(Op::ReduceScatter {
                    dim: as_usize(want(body, "dim", ctx)?, ctx)?,
                    rank: as_usize(want(body, "rank", ctx)?, ctx)?,
                    world: as_usize(want(body, "world", ctx)?, ctx)?,
                }),
                other => Err(format!("{ctx}: unknown operator {other:?}")),
            }
        }
        other => Err(format!(
            "{ctx}: expected operator (string or single-key object), found {}",
            other.kind()
        )),
    }
}

/// Decodes the interchange format into a [`Graph`].
///
/// Every id cross-reference is range-checked here; [`Graph::from_json`]
/// additionally runs full [`Graph::validate`] afterwards.
pub(crate) fn decode_graph(text: &str) -> Result<Graph, IrError> {
    decode_graph_inner(text).map_err(IrError::Serde)
}

fn decode_graph_inner(text: &str) -> Result<Graph, String> {
    let doc = parse(text)?;
    let name = as_str(want(&doc, "name", "graph")?, "graph.name")?.to_owned();

    let tensor_items = as_arr(want(&doc, "tensors", "graph")?, "graph.tensors")?;
    let node_items = as_arr(want(&doc, "nodes", "graph")?, "graph.nodes")?;
    let n_tensors = tensor_items.len();
    let n_nodes = node_items.len();

    let check_tensor_ref = |id: u32, ctx: &str| -> Result<TensorId, String> {
        if (id as usize) < n_tensors {
            Ok(TensorId(id))
        } else {
            Err(format!(
                "{ctx}: tensor id {id} out of range (graph has {n_tensors} tensors)"
            ))
        }
    };
    let check_node_ref = |id: u32, ctx: &str| -> Result<NodeId, String> {
        if (id as usize) < n_nodes {
            Ok(NodeId(id))
        } else {
            Err(format!(
                "{ctx}: node id {id} out of range (graph has {n_nodes} nodes)"
            ))
        }
    };

    let mut tensors = Vec::with_capacity(n_tensors);
    let mut names = HashSet::with_capacity(n_tensors);
    for (i, t) in tensor_items.iter().enumerate() {
        let ctx = format!("tensor[{i}]");
        let id = as_u32(want(t, "id", &ctx)?, &ctx)?;
        if id as usize != i {
            return Err(format!("{ctx}: id {id} does not match its position"));
        }
        let tname = as_str(want(t, "name", &ctx)?, &ctx)?;
        if !names.insert(tname) {
            return Err(format!("{ctx}: duplicate tensor name {tname:?}"));
        }
        let tname = tname.to_owned();
        let shape = decode_shape(want(t, "shape", &ctx)?, &ctx)?;
        let dtype = decode_dtype(want(t, "dtype", &ctx)?, &ctx)?;
        let producer = match want(t, "producer", &ctx)? {
            Json::Null => None,
            v => Some(check_node_ref(as_u32(v, &ctx)?, &ctx)?),
        };
        tensors.push(Tensor {
            id: TensorId(id),
            name: tname,
            shape,
            dtype,
            producer,
        });
    }

    let mut nodes = Vec::with_capacity(n_nodes);
    for (i, n) in node_items.iter().enumerate() {
        let ctx = format!("node[{i}]");
        let id = as_u32(want(n, "id", &ctx)?, &ctx)?;
        if id as usize != i {
            return Err(format!("{ctx}: id {id} does not match its position"));
        }
        let nname = as_str(want(n, "name", &ctx)?, &ctx)?.to_owned();
        let op = decode_op(want(n, "op", &ctx)?, &format!("{ctx}.op"))?;
        let inputs = as_arr(want(n, "inputs", &ctx)?, &ctx)?
            .iter()
            .map(|v| check_tensor_ref(as_u32(v, &ctx)?, &ctx))
            .collect::<Result<Vec<_>, _>>()?;
        let output = check_tensor_ref(as_u32(want(n, "output", &ctx)?, &ctx)?, &ctx)?;
        nodes.push(Node {
            id: NodeId(id),
            name: nname,
            op,
            inputs,
            output,
        });
    }

    let id_list = |key: &str| -> Result<Vec<TensorId>, String> {
        as_arr(want(&doc, key, "graph")?, key)?
            .iter()
            .map(|v| check_tensor_ref(as_u32(v, key)?, key))
            .collect()
    };
    let inputs = id_list("inputs")?;
    let outputs = id_list("outputs")?;

    Ok(Graph::from_parts_unchecked(
        name, tensors, nodes, inputs, outputs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_values() {
        let text = r#"{"a": [1, -2, 3], "b": "x\"y", "c": null, "d": true, "e": {}}"#;
        let v = parse(text).unwrap();
        let pretty = to_string_pretty(&v);
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("1.5").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err());
    }

    #[test]
    fn strings_keep_escapes_and_multibyte_runs() {
        // Runs between escapes are copied whole; every cut is at an ASCII
        // delimiter, so multi-byte characters on either side of one survive.
        let v = parse(r#"["né\"é", "\u00e9→\n←", "", "日本\\語", "~ones[2, 3]"]"#).unwrap();
        let strs = |v: &Json| match v {
            Json::Arr(items) => items
                .iter()
                .map(|i| match i {
                    Json::Str(s) => s.clone(),
                    other => panic!("not a string: {other:?}"),
                })
                .collect::<Vec<_>>(),
            other => panic!("not an array: {other:?}"),
        };
        assert_eq!(strs(&v), ["né\"é", "é→\n←", "", "日本\\語", "~ones[2, 3]"]);
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
        assert!(parse("\"é").is_err(), "unterminated after a multi-byte run");
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_NESTING)).is_ok());
        let err = parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // The hostile shape: nothing but openers, far past any stack.
        assert!(parse(&"[".repeat(200_000))
            .unwrap_err()
            .contains("nesting deeper"));
        assert!(parse(&"{\"a\":".repeat(200_000))
            .unwrap_err()
            .contains("nesting deeper"));
        // Siblings do not nest: the count falls again when a value closes.
        let wide = format!("[{}]", vec![nested(MAX_NESTING - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn op_codec_round_trips() {
        let ops = vec![
            Op::Matmul,
            Op::ScalarMul { numer: 3, denom: 4 },
            Op::SumDim {
                dim: 1,
                keepdim: true,
            },
            Op::Slice {
                dim: 0,
                start: Dim::from(0),
                end: Dim::from(4),
            },
            Op::Reshape {
                shape: vec![Dim::from(2), Dim::from(6)],
            },
            Op::Permute { perm: vec![1, 0] },
            Op::ReduceScatter {
                dim: 1,
                rank: 0,
                world: 2,
            },
            Op::Attention {
                heads: 4,
                causal: true,
            },
        ];
        for op in ops {
            let enc = encode_op(&op);
            let dec = decode_op(&enc, "op").unwrap();
            assert_eq!(dec, op);
        }
    }

    #[test]
    fn unknown_operator_is_rejected() {
        assert!(decode_op(&Json::Str("Matmul2".into()), "op").is_err());
        // A unit tag where an attribute-carrying op was expected.
        assert!(decode_op(&Json::Str("Softmax".into()), "op").is_err());
    }
}
