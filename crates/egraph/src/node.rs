//! E-nodes and recursive expressions, with the s-expression surface syntax
//! used throughout the paper (Listing 4).

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use entangle_symbolic::SymExpr;

use crate::symbol::Symbol;
use crate::unionfind::Id;

/// A node of the expression language.
///
/// The language is deliberately untyped at this layer: an operator is a
/// symbol applied to children, scalars are inline leaves. Tensor leaves
/// (the `A₁`, `B₂`, `C` of the paper's figures) are nullary [`ENode::Op`]s
/// whose symbol is the tensor's name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ENode {
    /// A concrete integer scalar (dimension indices, slice bounds, …).
    Int(i64),
    /// A symbolic integer scalar (§5 "Handling Symbolic Scalars").
    Sym(SymExpr),
    /// An operator applied to child e-classes; nullary ops are leaves.
    Op(Symbol, Vec<Id>),
}

impl ENode {
    /// A tensor/operator leaf with no children.
    pub fn leaf(name: &str) -> ENode {
        ENode::Op(Symbol::new(name), Vec::new())
    }

    /// An operator node.
    pub fn op(name: &str, children: Vec<Id>) -> ENode {
        ENode::Op(Symbol::new(name), children)
    }

    /// The children of this node (empty for scalars and leaves).
    pub fn children(&self) -> &[Id] {
        match self {
            ENode::Op(_, ch) => ch,
            _ => &[],
        }
    }

    /// Returns a copy with every child id replaced by `f(child)`.
    pub fn map_children<F: FnMut(Id) -> Id>(&self, mut f: F) -> ENode {
        match self {
            ENode::Op(s, ch) => ENode::Op(*s, ch.iter().map(|&c| f(c)).collect()),
            other => other.clone(),
        }
    }

    /// `true` if the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children().is_empty()
    }

    /// The concrete integer value, if this is an `Int` node.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ENode::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for ENode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ENode::Int(i) => write!(f, "{i}"),
            ENode::Sym(s) => write!(f, "{{{s}}}"),
            ENode::Op(sym, ch) if ch.is_empty() => write!(f, "{sym}"),
            ENode::Op(sym, ch) => {
                write!(f, "({sym}")?;
                for c in ch {
                    write!(f, " {c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A recursive expression: a flattened tree of [`ENode`]s in postorder, with
/// children referring to earlier slots.
///
/// The last node is the root. This mirrors `egg::RecExpr` and is the currency
/// between the parser, the e-graph, and the extractor.
///
/// A clone shares its node storage with the original, and [`RecExpr::add`]
/// copies it first if anything else still holds it (copy-on-write), so a
/// term that many places name is stored once. Equality, hashing and
/// printing read the nodes only, never where they are stored.
///
/// # Examples
///
/// ```
/// use entangle_egraph::RecExpr;
///
/// let e: RecExpr = "(concat (slice X 0 0 16) (slice X 0 16 32) 0)".parse().unwrap();
/// assert_eq!(e.to_string(), "(concat (slice X 0 0 16) (slice X 0 16 32) 0)");
/// assert_eq!(e.len(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RecExpr {
    nodes: Arc<Vec<ENode>>,
}

impl RecExpr {
    /// An empty expression (no root).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty expression with room for `slots` nodes.
    pub fn with_capacity(slots: usize) -> Self {
        RecExpr {
            nodes: Arc::new(Vec::with_capacity(slots)),
        }
    }

    /// Appends a node whose children must already be present, returning its
    /// slot as an [`Id`].
    ///
    /// # Panics
    ///
    /// Panics if a child id is out of bounds (children must be added first).
    pub fn add(&mut self, node: ENode) -> Id {
        for child in node.children() {
            assert!(
                child.index() < self.nodes.len(),
                "RecExpr::add: child {child} out of bounds"
            );
        }
        let nodes = Arc::make_mut(&mut self.nodes);
        nodes.push(node);
        Id::from_index(nodes.len() - 1)
    }

    /// The nodes in postorder.
    pub fn nodes(&self) -> &[ENode] {
        &self.nodes
    }

    /// Where the nodes live. Two expressions with the same key share one
    /// storage and so have the same nodes; the key of a storage nothing
    /// holds any more may be reused, so whoever keys by it must keep a clone.
    pub fn storage_key(&self) -> usize {
        Arc::as_ptr(&self.nodes) as usize
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the expression has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node.
    ///
    /// # Panics
    ///
    /// Panics on an empty expression.
    pub fn root(&self) -> &ENode {
        self.nodes
            .last()
            .expect("RecExpr::root on empty expression")
    }

    /// Id of the root slot.
    pub fn root_id(&self) -> Id {
        Id::from_index(self.nodes.len() - 1)
    }

    /// The node in a given slot.
    pub fn node(&self, id: Id) -> &ENode {
        &self.nodes[id.index()]
    }

    /// All distinct leaf operator symbols (tensor names) in the expression.
    pub fn leaf_symbols(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for n in self.nodes.iter() {
            if let ENode::Op(s, ch) = n {
                if ch.is_empty() && !out.contains(s) {
                    out.push(*s);
                }
            }
        }
        out
    }

    /// Builds a sub-`RecExpr` rooted at `id`.
    pub fn extract_subtree(&self, id: Id) -> RecExpr {
        let mut out = RecExpr::new();
        let root = self.copy_into(id, &mut out);
        debug_assert_eq!(root, out.root_id());
        out
    }

    fn copy_into(&self, id: Id, out: &mut RecExpr) -> Id {
        let node = self.node(id).map_children(|c| self.copy_into(c, out));
        out.add(node)
    }

    fn fmt_node(&self, id: Id, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node = self.node(id);
        match node {
            ENode::Int(i) => write!(f, "{i}"),
            ENode::Sym(s) => write!(f, "{{{s}}}"),
            ENode::Op(sym, ch) if ch.is_empty() => write!(f, "{sym}"),
            ENode::Op(sym, ch) => {
                write!(f, "({sym}")?;
                for c in ch {
                    write!(f, " ")?;
                    self.fmt_node(*c, f)?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for RecExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nodes.is_empty() {
            return write!(f, "()");
        }
        self.fmt_node(self.root_id(), f)
    }
}

/// Error parsing an s-expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExprError {
    message: String,
}

impl ParseExprError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ParseExprError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid s-expression: {}", self.message)
    }
}

impl std::error::Error for ParseExprError {}

/// A parsed s-expression token tree, shared by the expression and pattern
/// parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Sexp {
    Atom(String),
    List(Vec<Sexp>),
}

/// Deepest term the s-expression reader accepts (a leaf is depth 1, an
/// application one more than its deepest argument). The reader recurses per
/// `(` and so does every consumer behind it (`Display`, `copy_into`, the
/// pattern compiler): the bound is what lets them run on untrusted text.
pub const MAX_TERM_DEPTH: usize = 512;

pub(crate) fn parse_sexp(input: &str) -> Result<Sexp, ParseExprError> {
    let tokens = tokenize(input);
    let mut pos = 0;
    let sexp = parse_tokens(&tokens, &mut pos, 1)?;
    if pos != tokens.len() {
        return Err(ParseExprError::new(format!(
            "trailing tokens after expression in {input:?}"
        )));
    }
    Ok(sexp)
}

fn tokenize(input: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in input.chars() {
        match ch {
            '(' | ')' => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
                tokens.push(ch.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// Parses the term at `pos`, itself at `depth` below the root (the root is 1).
fn parse_tokens(tokens: &[String], pos: &mut usize, depth: usize) -> Result<Sexp, ParseExprError> {
    let Some(tok) = tokens.get(*pos) else {
        return Err(ParseExprError::new("unexpected end of input"));
    };
    if depth > MAX_TERM_DEPTH {
        return Err(ParseExprError::new(format!(
            "expression nests deeper than {MAX_TERM_DEPTH} levels"
        )));
    }
    *pos += 1;
    match tok.as_str() {
        "(" => {
            let mut items = Vec::new();
            loop {
                match tokens.get(*pos).map(String::as_str) {
                    Some(")") => {
                        *pos += 1;
                        return Ok(Sexp::List(items));
                    }
                    Some(_) => items.push(parse_tokens(tokens, pos, depth + 1)?),
                    None => return Err(ParseExprError::new("unclosed parenthesis")),
                }
            }
        }
        ")" => Err(ParseExprError::new("unexpected ')'")),
        atom => Ok(Sexp::Atom(atom.to_owned())),
    }
}

fn build_expr(sexp: &Sexp, out: &mut RecExpr) -> Result<Id, ParseExprError> {
    match sexp {
        Sexp::Atom(a) => {
            if let Ok(i) = a.parse::<i64>() {
                Ok(out.add(ENode::Int(i)))
            } else if a.starts_with('?') {
                Err(ParseExprError::new(format!(
                    "pattern variable {a} not allowed in a ground expression"
                )))
            } else {
                Ok(out.add(ENode::leaf(a)))
            }
        }
        Sexp::List(items) => {
            let Some(Sexp::Atom(head)) = items.first() else {
                return Err(ParseExprError::new("list must start with an operator atom"));
            };
            if head.starts_with('?') || head.parse::<i64>().is_ok() {
                return Err(ParseExprError::new(format!(
                    "invalid operator name {head:?}"
                )));
            }
            let mut children = Vec::with_capacity(items.len() - 1);
            for item in &items[1..] {
                children.push(build_expr(item, out)?);
            }
            Ok(out.add(ENode::op(head, children)))
        }
    }
}

impl FromStr for RecExpr {
    type Err = ParseExprError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let sexp = parse_sexp(s)?;
        let mut expr = RecExpr::new();
        build_expr(&sexp, &mut expr)?;
        Ok(expr)
    }
}
