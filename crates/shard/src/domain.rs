//! The abstract domain: hash-consed logical terms and per-tensor abstract
//! layouts.
//!
//! Every distributed tensor is described *relative to the sequential
//! program*: an [`AbsVal`] pairs a logical term (a node in the shared
//! [`TermTable`], built over `G_s` tensor names) with a *form* — replicated,
//! a window (sharded/padded/halo slices along one dimension), or a partial
//! sum awaiting reduction. Because both the `G_s` interpretation and the
//! `G_d` transfer functions intern terms through the same table, two
//! tensors denote the same logical value exactly when their `TermId`s are
//! pointer-equal — the analysis never needs structural matching after
//! construction.

use std::collections::HashMap;

use entangle_ir::layout::{self, Seg};

/// Index of an interned term in a [`TermTable`].
pub type TermId = u32;

/// Sentinel `axis` for partial sums produced by matrix-multiply contraction
/// (the decomposed dimension is internal to the contraction, not a
/// dimension of the result).
pub const CONTRACTION_AXIS: usize = usize::MAX;

/// The head symbol of a term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Head {
    /// A `G_s` tensor (or, in self-seeded mode, `G_d` input) by name.
    Leaf(String),
    /// An operator application, by s-expression head.
    Op(&'static str),
    /// An opaque term that matches nothing, not even itself across
    /// allocations — used for unseeded inputs and inexpressible results.
    Fresh(u32),
}

/// One interned term: `head(children…; attrs…)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TermNode {
    /// Head symbol.
    pub head: Head,
    /// Scalar attributes (dims, bounds, scale factors), all concrete.
    pub attrs: Vec<i64>,
    /// Child terms.
    pub children: Vec<TermId>,
}

/// Hash-consing table of logical terms.
#[derive(Debug, Default)]
pub struct TermTable {
    nodes: Vec<TermNode>,
    index: HashMap<TermNode, TermId>,
    fresh: u32,
}

impl TermTable {
    /// An empty table.
    pub fn new() -> TermTable {
        TermTable::default()
    }

    fn intern(&mut self, node: TermNode) -> TermId {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = self.nodes.len() as TermId;
        self.nodes.push(node.clone());
        self.index.insert(node, id);
        id
    }

    /// The term for a named leaf tensor.
    pub fn leaf(&mut self, name: &str) -> TermId {
        self.intern(TermNode {
            head: Head::Leaf(name.to_owned()),
            attrs: Vec::new(),
            children: Vec::new(),
        })
    }

    /// An operator application term.
    pub fn op(&mut self, name: &'static str, children: Vec<TermId>, attrs: Vec<i64>) -> TermId {
        self.intern(TermNode {
            head: Head::Op(name),
            attrs,
            children,
        })
    }

    /// A fresh opaque term, distinct from every other term.
    pub fn fresh_term(&mut self) -> TermId {
        self.fresh += 1;
        let tag = self.fresh;
        self.intern(TermNode {
            head: Head::Fresh(tag),
            attrs: Vec::new(),
            children: Vec::new(),
        })
    }

    /// The term node for an id.
    pub fn node(&self, id: TermId) -> &TermNode {
        &self.nodes[id as usize]
    }

    /// `numer/denom · t`, normalized: the fraction is reduced, nested
    /// `scalar_mul`s compose, and a unit scale is the identity. This is what
    /// lets `all_reduce(½·aux, ½·aux)` collapse back to `aux`.
    ///
    /// A scale past `i64` is an opaque fresh term.
    pub fn scaled(&mut self, t: TermId, numer: i64, denom: i64) -> TermId {
        let sign = if denom < 0 { -1 } else { 1 };
        let (Some(n), Some(d)) = (numer.checked_mul(sign), denom.checked_mul(sign)) else {
            return self.fresh_term();
        };
        if let Head::Op("scalar_mul") = self.node(t).head {
            let inner = self.node(t);
            let (n2, d2) = (inner.attrs[0], inner.attrs[1]);
            let child = inner.children[0];
            let (Some(n), Some(d)) = (n.checked_mul(n2), d.checked_mul(d2)) else {
                return self.fresh_term();
            };
            return self.scaled(child, n, d);
        }
        let g = gcd(n.unsigned_abs(), d.unsigned_abs()).max(1) as i64;
        let (n, d) = (n / g, d / g);
        if n == 1 && d == 1 {
            return t;
        }
        self.op("scalar_mul", vec![t], vec![n, d])
    }

    /// Left-folded binary sum of `terms`; a sum of `k` copies of the same
    /// term is normalized to `k · t` so it can later cancel against `1/k`
    /// scaling.
    pub fn fold_add(&mut self, terms: &[TermId]) -> TermId {
        assert!(!terms.is_empty());
        if terms.iter().all(|&t| t == terms[0]) && terms.len() > 1 {
            return self.scaled(terms[0], terms.len() as i64, 1);
        }
        let mut acc = terms[0];
        for &t in &terms[1..] {
            acc = self.op("add", vec![acc, t], Vec::new());
        }
        acc
    }

    /// Left-folded binary concatenation of `terms` along `dim`, matching
    /// the e-graph lowering of variadic concat/all-gather.
    pub fn fold_concat(&mut self, terms: &[TermId], dim: usize) -> TermId {
        assert!(!terms.is_empty());
        let mut acc = terms[0];
        for &t in &terms[1..] {
            acc = self.op("concat", vec![acc, t], vec![dim as i64]);
        }
        acc
    }

    /// Renders a term as an s-expression (for diagnostics and debugging).
    pub fn render(&self, id: TermId) -> String {
        let node = self.node(id);
        match &node.head {
            Head::Leaf(name) => name.clone(),
            Head::Fresh(tag) => format!("?{tag}"),
            Head::Op(op) => {
                let mut out = format!("({op}");
                for &c in &node.children {
                    out.push(' ');
                    out.push_str(&self.render(c));
                }
                for a in &node.attrs {
                    out.push_str(&format!(" {a}"));
                }
                out.push(')');
                out
            }
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The abstract layout of one distributed tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbsVal {
    /// Nothing is known; the lattice top. Always sound.
    Unknown,
    /// The tensor *is* the logical term — every rank holding it holds the
    /// full value (replication).
    Rep(TermId),
    /// The tensor is, along dimension `dim` of logical extent `full`, the
    /// concatenation of `segs` — slices of the logical term and padding
    /// zeros. Covers sharding (one piece), padded sharding, halo/offset
    /// windows, and gather results.
    Window {
        /// The logical term being windowed.
        term: TermId,
        /// The windowed dimension (all other dimensions are whole).
        dim: usize,
        /// Logical extent of `dim`.
        full: i64,
        /// The window, in physical order.
        segs: Vec<Seg>,
    },
    /// The tensor is one addend of the logical term: summing the group
    /// members whose pieces `[start, end)` tile `[0, total)` along `axis`
    /// yields the term. `axis` is [`CONTRACTION_AXIS`] for matmul-style
    /// contraction partials.
    Partial {
        /// The logical term the group sums to.
        term: TermId,
        /// This addend's piece start.
        start: i64,
        /// This addend's piece end.
        end: i64,
        /// The decomposed extent.
        total: i64,
        /// The decomposed dimension (group key).
        axis: usize,
    },
}

impl AbsVal {
    /// Builds a window, normalizing: segments are coalesced, a window that
    /// is exactly the full extent collapses to [`AbsVal::Rep`], and an
    /// empty window degrades to [`AbsVal::Unknown`].
    pub fn window(term: TermId, dim: usize, full: i64, segs: Vec<Seg>) -> AbsVal {
        let segs = layout::coalesce(segs);
        match layout::pure_piece(&segs) {
            Some((0, e)) if e == full => AbsVal::Rep(term),
            _ if segs.is_empty() => AbsVal::Unknown,
            _ => AbsVal::Window {
                term,
                dim,
                full,
                segs,
            },
        }
    }

    /// Builds a partial sum, normalizing: a piece covering the whole range
    /// *is* the full sum and collapses to [`AbsVal::Rep`].
    pub fn partial(term: TermId, start: i64, end: i64, total: i64, axis: usize) -> AbsVal {
        if start == 0 && end == total {
            AbsVal::Rep(term)
        } else {
            AbsVal::Partial {
                term,
                start,
                end,
                total,
                axis,
            }
        }
    }

    /// The logical term this value references, if any.
    pub fn term(&self) -> Option<TermId> {
        match self {
            AbsVal::Unknown => None,
            AbsVal::Rep(t) | AbsVal::Window { term: t, .. } | AbsVal::Partial { term: t, .. } => {
                Some(*t)
            }
        }
    }

    /// A short human-readable form label.
    pub fn form(&self) -> &'static str {
        match self {
            AbsVal::Unknown => "unknown",
            AbsVal::Rep(_) => "replicated",
            AbsVal::Window { .. } => "window",
            AbsVal::Partial { .. } => "partial-sum",
        }
    }

    /// Renders the value with its term resolved through `table`.
    pub fn describe(&self, table: &TermTable) -> String {
        match self {
            AbsVal::Unknown => "unknown".to_owned(),
            AbsVal::Rep(t) => format!("replicated = {}", table.render(*t)),
            AbsVal::Window {
                term,
                dim,
                full,
                segs,
            } => format!(
                "window dim={dim} of {} (full {full}): {}",
                table.render(*term),
                layout::render_segs(segs)
            ),
            AbsVal::Partial {
                term,
                start,
                end,
                total,
                axis,
            } => {
                let axis = if *axis == CONTRACTION_AXIS {
                    "contraction".to_owned()
                } else {
                    format!("axis {axis}")
                };
                format!(
                    "partial-sum [{start},{end}) of [0,{total}) ({axis}) of {}",
                    table.render(*term)
                )
            }
        }
    }
}
