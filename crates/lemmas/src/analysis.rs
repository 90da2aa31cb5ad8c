//! The tensor analysis: shapes, dtypes and const-folded scalars per e-class.

use std::collections::HashMap;

use entangle_egraph::{Analysis, EGraph, ENode, Id, Symbol};
use entangle_ir::{DType, Dim, Op, Shape};
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
                let metas: Vec<Meta> = ch.iter().map(|&c| egraph[c].data.clone()).collect();
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

/// Every operator name [`decode_op`] can decode — the e-graph-level
/// operator vocabulary. A rewrite whose pattern mentions an operator
/// outside this list can never match a term built by the checker (the
/// `entangle-rules` RL01 *dead rule* diagnostic). Kept in sync with the
/// `decode_op` match arms by `tests::vocabulary_matches_decode_op`.
pub const OP_VOCABULARY: &[&str] = &[
    "add",
    "sub",
    "mul",
    "div",
    "maximum",
    "neg",
    "exp",
    "sqrt",
    "rsqrt",
    "tanh",
    "gelu",
    "silu",
    "relu",
    "sigmoid",
    "step",
    "gelu_grad",
    "silu_grad",
    "ones_like",
    "cos",
    "sin",
    "identity",
    "sum_all",
    "mean_all",
    "matmul",
    "embedding",
    "embedding_grad",
    "rms_norm",
    "mse_loss",
    "cross_entropy",
    "layer_norm",
    "rope",
    "scalar_mul",
    "sum_dim",
    "mean_dim",
    "softmax",
    "transpose",
    "slice",
    "concat",
    "pad",
    "attention",
    "reshape",
    "permute",
];

/// Reconstructs an [`Op`] from its e-graph head symbol and the metadata of
/// its children; returns the op and the number of leading tensor children
/// (`None` when there are fewer children than that, so callers may slice).
///
/// The e-graph encoding is: tensor children first, then attribute scalars
/// (n-ary concat and the collectives are lowered to binary `concat`/`add`
/// chains before entering the e-graph, so arities here are fixed except for
/// `reshape`/`permute`, whose trailing children are all attributes).
pub fn decode_op(name: &str, metas: &[Meta]) -> Option<(Op, usize)> {
    let scalar_at = |i: usize| -> Option<SymExpr> { metas.get(i)?.scalar.clone() };
    let int_at = |i: usize| -> Option<i64> { scalar_at(i)?.as_const() };
    let usize_at = |i: usize| -> Option<usize> {
        let v = int_at(i)?;
        usize::try_from(v).ok()
    };
    let dim_at = |i: usize| -> Option<Dim> { Some(Dim(scalar_at(i)?)) };

    let op = match name {
        "add" => (Op::Add, 2),
        "sub" => (Op::Sub, 2),
        "mul" => (Op::Mul, 2),
        "div" => (Op::Div, 2),
        "maximum" => (Op::Maximum, 2),
        "neg" => (Op::Neg, 1),
        "exp" => (Op::Exp, 1),
        "sqrt" => (Op::Sqrt, 1),
        "rsqrt" => (Op::Rsqrt, 1),
        "tanh" => (Op::Tanh, 1),
        "gelu" => (Op::Gelu, 1),
        "silu" => (Op::Silu, 1),
        "relu" => (Op::Relu, 1),
        "sigmoid" => (Op::Sigmoid, 1),
        "step" => (Op::Step, 1),
        "gelu_grad" => (Op::GeluGrad, 1),
        "silu_grad" => (Op::SiluGrad, 1),
        "ones_like" => (Op::OnesLike, 1),
        "cos" => (Op::Cos, 1),
        "sin" => (Op::Sin, 1),
        "identity" => (Op::Identity, 1),
        "sum_all" => (Op::SumAll, 1),
        "mean_all" => (Op::MeanAll, 1),
        "matmul" => (Op::Matmul, 2),
        "embedding" => (Op::Embedding, 2),
        "embedding_grad" => (
            Op::EmbeddingGrad {
                vocab: usize_at(2)?,
            },
            2,
        ),
        "rms_norm" => (Op::RmsNorm, 2),
        "mse_loss" => (Op::MseLoss, 2),
        "cross_entropy" => (Op::CrossEntropy, 2),
        "layer_norm" => (Op::LayerNorm, 3),
        "rope" => (Op::Rope, 3),
        "scalar_mul" => (
            Op::ScalarMul {
                numer: int_at(1)?,
                denom: int_at(2)?,
            },
            1,
        ),
        "sum_dim" => (
            Op::SumDim {
                dim: usize_at(1)?,
                keepdim: int_at(2)? != 0,
            },
            1,
        ),
        "mean_dim" => (
            Op::MeanDim {
                dim: usize_at(1)?,
                keepdim: int_at(2)? != 0,
            },
            1,
        ),
        "softmax" => (Op::Softmax { dim: usize_at(1)? }, 1),
        "transpose" => (
            Op::Transpose {
                d0: usize_at(1)?,
                d1: usize_at(2)?,
            },
            1,
        ),
        "slice" => (
            Op::Slice {
                dim: usize_at(1)?,
                start: dim_at(2)?,
                end: dim_at(3)?,
            },
            1,
        ),
        "concat" => (Op::Concat { dim: usize_at(2)? }, 2),
        "pad" => (
            Op::Pad {
                dim: usize_at(1)?,
                before: dim_at(2)?,
                after: dim_at(3)?,
            },
            1,
        ),
        "attention" => (
            Op::Attention {
                heads: usize_at(3)?,
                causal: int_at(4)? != 0,
            },
            3,
        ),
        "reshape" => {
            let dims: Option<Vec<Dim>> = (1..metas.len()).map(dim_at).collect();
            (Op::Reshape { shape: dims? }, 1)
        }
        "permute" => {
            let perm: Option<Vec<usize>> = (1..metas.len()).map(usize_at).collect();
            (Op::Permute { perm: perm? }, 1)
        }
        _ => return None,
    };
    (op.1 <= metas.len()).then_some(op)
}

/// Convenience accessors used by lemma conditions and dynamic appliers.
pub mod cond {
    use super::*;

    /// The metadata of an e-class.
    pub fn meta(eg: &EGraph<TensorAnalysis>, id: Id) -> Meta {
        eg[id].data.clone()
    }

    /// The shape of an e-class, if known (borrowed: conditions run per
    /// match, and most only read a dim or compare two shapes).
    pub fn shape(eg: &EGraph<TensorAnalysis>, id: Id) -> Option<&Shape> {
        eg[id].data.shape.as_ref()
    }

    /// The rank, if the shape is known.
    pub fn rank(eg: &EGraph<TensorAnalysis>, id: Id) -> Option<usize> {
        eg[id].data.rank()
    }

    /// The scalar value (concrete or symbolic) of a class.
    pub fn scalar(eg: &EGraph<TensorAnalysis>, id: Id) -> Option<SymExpr> {
        eg[id].data.scalar.clone()
    }

    /// The concrete integer value of a class.
    pub fn int(eg: &EGraph<TensorAnalysis>, id: Id) -> Option<i64> {
        eg[id].data.scalar.as_ref()?.as_const()
    }

    /// The size of dimension `d` of a tensor class.
    pub fn dim_size(eg: &EGraph<TensorAnalysis>, id: Id, d: usize) -> Option<SymExpr> {
        let s = shape(eg, id)?;
        (d < s.rank()).then(|| s.dim(d).0.clone())
    }

    /// Proves `a == b` via the symbolic context (exact for constants).
    pub fn sym_eq(eg: &EGraph<TensorAnalysis>, a: &SymExpr, b: &SymExpr) -> bool {
        eg.analysis.ctx.check_eq(a, b).is_proved()
    }

    /// Proves `a <= b`.
    pub fn sym_le(eg: &EGraph<TensorAnalysis>, a: &SymExpr, b: &SymExpr) -> bool {
        eg.analysis
            .ctx
            .check(a, entangle_symbolic::Rel::Le, b)
            .is_proved()
    }

    /// Adds an integer scalar node.
    pub fn add_int(eg: &mut EGraph<TensorAnalysis>, v: i64) -> Id {
        eg.add(ENode::Int(v))
    }

    /// Adds a scalar node: an `Int` when constant, a `Sym` otherwise.
    pub fn add_scalar(eg: &mut EGraph<TensorAnalysis>, e: SymExpr) -> Id {
        match e.as_const() {
            Some(v) => eg.add(ENode::Int(v)),
            None => eg.add(ENode::Sym(e)),
        }
    }

    /// Adds an operator node.
    pub fn add_op(eg: &mut EGraph<TensorAnalysis>, name: &str, children: Vec<Id>) -> Id {
        eg.add(ENode::op(name, children))
    }
}
