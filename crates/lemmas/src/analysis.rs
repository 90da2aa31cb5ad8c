//! The tensor analysis: shapes, dtypes and const-folded scalars per e-class.

use std::collections::HashMap;

use entangle_egraph::{Analysis, EGraph, ENode, Id, Symbol, TermStore};
use entangle_ir::{Attr, AttrKind, AttrValues, DType, Dim, Op, OpRow, Shape};
use entangle_symbolic::{SymCtx, SymExpr};

use crate::term::infer_application;

/// Per-e-class metadata: what the checker knows about the tensors (or
/// scalars) in the class.
///
/// This mirrors the paper's captured-graph tensors, which "do not carry
/// actual data values; instead, they contain only metadata such as shape and
/// data type information", with scalars being concrete or symbolic (§5).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Meta {
    /// Tensor shape, if known.
    pub shape: Option<Shape>,
    /// Tensor dtype, if known.
    pub dtype: Option<DType>,
    /// Scalar value (concrete or symbolic), if the class is a scalar.
    pub scalar: Option<SymExpr>,
}

impl Meta {
    /// Metadata for a scalar class.
    pub fn scalar(e: SymExpr) -> Meta {
        Meta {
            scalar: Some(e),
            ..Meta::default()
        }
    }

    /// Metadata for a tensor class.
    pub fn tensor(shape: Shape, dtype: DType) -> Meta {
        Meta {
            shape: Some(shape),
            dtype: Some(dtype),
            scalar: None,
        }
    }

    /// Nothing known.
    pub fn unknown() -> Meta {
        Meta::default()
    }

    /// The rank of the tensor, if its shape is known.
    pub fn rank(&self) -> Option<usize> {
        self.shape.as_ref().map(Shape::rank)
    }
}

/// The analysis attached to checker e-graphs: propagates shapes bottom-up
/// via the IR's shape inference, registers leaf tensors, and carries the
/// symbolic-scalar context for lemma conditions.
#[derive(Debug, Default)]
pub struct TensorAnalysis {
    /// Decision procedure for symbolic scalars (§5).
    pub ctx: SymCtx,
    /// Known metadata for leaf tensors by name.
    pub leaves: HashMap<Symbol, (Shape, DType)>,
}

impl TensorAnalysis {
    /// Creates an analysis with a pre-populated symbolic context.
    pub fn with_ctx(ctx: SymCtx) -> TensorAnalysis {
        TensorAnalysis {
            ctx,
            leaves: HashMap::new(),
        }
    }

    /// Registers a leaf tensor's metadata (called by the checker for every
    /// `G_d` tensor before building expressions).
    pub fn register_leaf(&mut self, name: &str, shape: Shape, dtype: DType) {
        self.leaves.insert(Symbol::new(name), (shape, dtype));
    }
}

impl Analysis for TensorAnalysis {
    type Data = Meta;

    fn make(egraph: &EGraph<Self>, enode: &ENode) -> Meta {
        match enode {
            ENode::Int(i) => Meta::scalar(SymExpr::constant(*i)),
            ENode::Sym(e) => Meta::scalar(e.clone()),
            ENode::Op(sym, ch) if ch.is_empty() => match egraph.analysis.leaves.get(sym) {
                Some((shape, dtype)) => Meta::tensor(shape.clone(), *dtype),
                None => Meta::unknown(),
            },
            ENode::Op(sym, ch) => {
                let metas: Vec<&Meta> = ch.iter().map(|&c| &egraph[c].data).collect();
                infer_application(*sym, &metas).unwrap_or_default()
            }
        }
    }

    fn merge(a: &mut Meta, b: Meta) -> (bool, bool) {
        let mut a_changed = false;
        let mut b_changed = false;
        // Prefer known over unknown; on conflict keep `a` (shapes of truly
        // equivalent tensors agree, but symbolic forms may differ
        // syntactically — keeping one is sound for condition checks).
        if a.shape.is_none() && b.shape.is_some() {
            a.shape.clone_from(&b.shape);
            a.dtype = b.dtype;
            a_changed = true;
        } else if a.shape.is_some() && b.shape.is_none() {
            b_changed = true;
        }
        if a.scalar.is_none() && b.scalar.is_some() {
            a.scalar.clone_from(&b.scalar);
            a_changed = true;
        } else if a.scalar.is_some() && b.scalar.is_none() {
            b_changed = true;
        }
        (a_changed, b_changed)
    }
}

/// Reconstructs an [`Op`] from its e-graph head symbol (an
/// [`OpRow::by_term`] head) and the metadata of its children; returns the op
/// and the number of leading tensor children (`None` when there are fewer
/// children than that, so callers may slice).
///
/// A term puts the tensor children first, then the row's attributes as
/// scalars: one each, but a `Dims`/`Indices` list is every trailing child.
/// n-ary concat is lowered to a binary chain first, so it has 2 tensors.
pub fn decode_op(name: &str, metas: &[&Meta]) -> Option<(Op, usize)> {
    let row = OpRow::by_term(name)?;
    let tensors = row.arity.unwrap_or(2);
    let scalar = |i: usize| metas.get(i)?.scalar.as_ref();
    let index = |i: usize| usize::try_from(scalar(i)?.as_const()?).ok();
    let dim = |i: usize| Some(Dim(scalar(i)?.clone()));
    let mut values = AttrValues::default();
    for (at, (value, &(_, kind))) in (tensors..).zip(values.iter_mut().zip(row.attrs)) {
        let rest = at..metas.len();
        *value = Some(match kind {
            AttrKind::Index => Attr::Index(index(at)?),
            AttrKind::Int => Attr::Int(scalar(at)?.as_const()?),
            AttrKind::Flag => Attr::Flag(scalar(at)?.as_const()? != 0),
            AttrKind::Dim => Attr::Dim(dim(at)?),
            AttrKind::Dims => Attr::Dims(rest.map(dim).collect::<Option<_>>()?),
            AttrKind::Indices => Attr::Indices(rest.map(index).collect::<Option<_>>()?),
        });
    }
    (tensors <= metas.len()).then(|| (Op::from_attrs(row, values), tensors))
}

/// Convenience accessors used by lemma conditions and dynamic appliers, over
/// whichever [`TermStore`] they run on.
pub mod cond {
    use super::*;

    /// The metadata of a term.
    pub fn meta(eg: &dyn TermStore<TensorAnalysis>, id: Id) -> Meta {
        eg.data(id).clone()
    }

    /// The shape of a term, if known (borrowed: conditions run per match,
    /// and most only read a dim or compare two shapes).
    pub fn shape(eg: &dyn TermStore<TensorAnalysis>, id: Id) -> Option<&Shape> {
        eg.data(id).shape.as_ref()
    }

    /// The rank, if the shape is known.
    pub fn rank(eg: &dyn TermStore<TensorAnalysis>, id: Id) -> Option<usize> {
        eg.data(id).rank()
    }

    /// The scalar value (concrete or symbolic) of a term.
    pub fn scalar(eg: &dyn TermStore<TensorAnalysis>, id: Id) -> Option<SymExpr> {
        eg.data(id).scalar.clone()
    }

    /// The concrete integer value of a term.
    pub fn int(eg: &dyn TermStore<TensorAnalysis>, id: Id) -> Option<i64> {
        eg.data(id).scalar.as_ref()?.as_const()
    }

    /// The size of dimension `d` of a tensor term.
    pub fn dim_size(eg: &dyn TermStore<TensorAnalysis>, id: Id, d: usize) -> Option<SymExpr> {
        let s = shape(eg, id)?;
        (d < s.rank()).then(|| s.dim(d).0.clone())
    }

    /// Proves `a == b` via the symbolic context (exact for constants).
    pub fn sym_eq(eg: &dyn TermStore<TensorAnalysis>, a: &SymExpr, b: &SymExpr) -> bool {
        eg.analysis().ctx.check_eq(a, b).is_proved()
    }

    /// Proves `a <= b`.
    pub fn sym_le(eg: &dyn TermStore<TensorAnalysis>, a: &SymExpr, b: &SymExpr) -> bool {
        eg.analysis()
            .ctx
            .check(a, entangle_symbolic::Rel::Le, b)
            .is_proved()
    }

    // The writers are generic rather than `&mut dyn`: passing the store on
    // is then a plain reborrow, which may overlap a read of the store in a
    // later argument (`add_op(eg, &mint_ones_leaf(s), ..)` with `s`
    // borrowed from `eg`); an unsizing reborrow may not.

    /// Adds an integer scalar node.
    pub fn add_int<S: TermStore<TensorAnalysis> + ?Sized>(eg: &mut S, v: i64) -> Id {
        eg.add(ENode::Int(v))
    }

    /// Adds a scalar node: an `Int` when constant, a `Sym` otherwise.
    pub fn add_scalar<S: TermStore<TensorAnalysis> + ?Sized>(eg: &mut S, e: SymExpr) -> Id {
        match e.as_const() {
            Some(v) => eg.add(ENode::Int(v)),
            None => eg.add(ENode::Sym(e)),
        }
    }

    /// Adds an operator node.
    pub fn add_op<S: TermStore<TensorAnalysis> + ?Sized>(
        eg: &mut S,
        name: &str,
        children: Vec<Id>,
    ) -> Id {
        eg.add(ENode::op(name, children))
    }
}
