//! The operator vocabulary.
//!
//! Modeled on PyTorch's ATen IR (the operator set TorchDynamo emits), plus
//! explicit collective-communication operators, plus a few fused kernels
//! (RoPE, RMSNorm) of the kind the paper's users add lemmas for (§6.5).

use entangle_symbolic::SymExpr;

use crate::shape::Dim;

/// An operator: the label of a computation-graph vertex.
///
/// Every operator produces exactly one output tensor (multi-output kernels
/// are decomposed, as TorchDynamo does). Attributes (dims, bounds, scale
/// factors) are carried inline and surface as scalar children in the
/// e-graph encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    // ----- element-wise binary (broadcasting) -----
    /// Element-wise addition.
    Add,
    /// Element-wise subtraction.
    Sub,
    /// Element-wise multiplication.
    Mul,
    /// Element-wise division.
    Div,
    /// Element-wise maximum.
    Maximum,

    // ----- element-wise unary -----
    /// Negation.
    Neg,
    /// Exponential.
    Exp,
    /// Square root.
    Sqrt,
    /// Reciprocal square root.
    Rsqrt,
    /// Hyperbolic tangent.
    Tanh,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Sigmoid linear unit (`x * sigmoid(x)`).
    Silu,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Heaviside step (`1` where `x > 0`, else `0`) — the ReLU derivative.
    Step,
    /// The pointwise derivative of [`Op::Gelu`] (ATen's `gelu_backward`
    /// without the upstream factor).
    GeluGrad,
    /// The pointwise derivative of [`Op::Silu`].
    SiluGrad,
    /// A tensor of ones with the input's shape — the broadcast seed used by
    /// reverse-mode differentiation.
    OnesLike,
    /// Cosine (RoPE tables).
    Cos,
    /// Sine (RoPE tables).
    Sin,

    /// Multiplication by a compile-time rational constant `numer/denom`.
    ///
    /// Loss scaling (auxiliary-loss ÷ TP-size, gradient-accumulation ÷
    /// #microbatches) is exactly this operator; bugs 2 and 6 are a missing
    /// `ScalarMul`.
    ScalarMul {
        /// Numerator of the scale factor.
        numer: i64,
        /// Denominator of the scale factor (non-zero).
        denom: i64,
    },

    // ----- reductions -----
    /// Sum over one dimension.
    SumDim {
        /// The reduced dimension.
        dim: usize,
        /// Keep the reduced dimension as size 1.
        keepdim: bool,
    },
    /// Mean over one dimension.
    MeanDim {
        /// The reduced dimension.
        dim: usize,
        /// Keep the reduced dimension as size 1.
        keepdim: bool,
    },
    /// Sum of all elements, producing a rank-0 tensor.
    SumAll,
    /// Mean of all elements, producing a rank-0 tensor.
    MeanAll,
    /// Softmax along a dimension.
    Softmax {
        /// The normalized dimension.
        dim: usize,
    },

    // ----- shape / data movement -----
    /// Identity (view).
    Identity,
    /// Reshape to an explicit target shape.
    Reshape {
        /// The target shape; must preserve element count.
        shape: Vec<Dim>,
    },
    /// Swap two dimensions.
    Transpose {
        /// First dimension.
        d0: usize,
        /// Second dimension.
        d1: usize,
    },
    /// Arbitrary dimension permutation.
    Permute {
        /// `perm[i]` is the source dimension of output dimension `i`.
        perm: Vec<usize>,
    },
    /// Contiguous slice `[start, end)` along one dimension.
    Slice {
        /// The sliced dimension.
        dim: usize,
        /// Inclusive start (symbolic allowed).
        start: Dim,
        /// Exclusive end (symbolic allowed).
        end: Dim,
    },
    /// Concatenation of all inputs along one dimension.
    Concat {
        /// The concatenated dimension.
        dim: usize,
    },
    /// Zero-padding along one dimension.
    Pad {
        /// The padded dimension.
        dim: usize,
        /// Elements added before.
        before: Dim,
        /// Elements added after.
        after: Dim,
    },

    // ----- linear algebra -----
    /// Batched matrix multiplication (`[..., m, k] × [..., k, n]`).
    Matmul,

    // ----- lookups -----
    /// Row gather: `(weight [V, H], ids [..]) → [.., H]`.
    Embedding,
    /// Scatter-add: the gradient of [`Op::Embedding`] with respect to its
    /// weight. `(ids [..], grad [.., H]) → [vocab, H]`.
    EmbeddingGrad {
        /// The vocabulary size (rows of the produced gradient).
        vocab: usize,
    },

    // ----- normalization (fused kernels) -----
    /// Layer normalization over the last dimension: `(x, weight, bias)`.
    LayerNorm,
    /// RMS normalization over the last dimension: `(x, weight)`.
    RmsNorm,

    // ----- attention helpers (fused kernels) -----
    /// Rotary position embedding: `(x, cos, sin) → x'` (same shape as `x`).
    Rope,
    /// Fused multi-head attention: `(q, k, v) → out`, all `[..., S, H]`.
    ///
    /// This models optimized kernels like FlashAttention; the paper assumes
    /// the same fused kernels appear in `G_s` and `G_d` (§3.3) and has users
    /// supply lemmas for them (§6.5).
    Attention {
        /// Number of attention heads (`H % heads == 0`).
        heads: usize,
        /// Apply a causal mask.
        causal: bool,
    },

    // ----- losses -----
    /// Mean squared error: `(pred, target) → scalar`.
    MseLoss,
    /// Cross entropy: `(logits [.., V], targets [..] i64) → scalar`.
    CrossEntropy,

    // ----- collectives (communication kernels) -----
    /// All-reduce (sum): `k` rank-local inputs → the reduced tensor.
    ///
    /// Each rank's copy is a distinct graph node over the same inputs; the
    /// e-graph hash-conses them together.
    AllReduce,
    /// All-gather: `k` rank-local inputs → their concatenation along `dim`.
    AllGather {
        /// Gather dimension.
        dim: usize,
    },
    /// Reduce-scatter (sum): `k` inputs → this rank's shard of the sum.
    ReduceScatter {
        /// Scatter dimension.
        dim: usize,
        /// This rank's index.
        rank: usize,
        /// World size (must equal the input count).
        world: usize,
    },
}

/// How one attribute is held in an [`Op`], written in the graph format and
/// encoded as term scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrKind {
    /// A dimension index or a count (`usize`): a non-negative integer.
    Index,
    /// A signed integer (`i64`).
    Int,
    /// A flag (`bool`): `true`/`false` in the graph format, `1`/`0` in a term.
    Flag,
    /// One size or offset ([`Dim`]), possibly symbolic.
    Dim,
    /// A list of sizes: every term scalar after the tensors.
    Dims,
    /// A list of dimension indices: every term scalar after the tensors.
    Indices,
}

/// One attribute value, of the [`AttrKind`] of the same name.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Attr {
    Index(usize),
    Int(i64),
    Flag(bool),
    Dim(Dim),
    Dims(Vec<Dim>),
    Indices(Vec<usize>),
}

/// An operator's attribute values in its row's order; the slots past its
/// schema are `None`. Three is the most attributes an operator has.
pub type AttrValues = [Option<Attr>; 3];

/// One operator of the vocabulary: everything the graph format and the term
/// language say about it. What it computes lives with each semantics
/// (`infer`, the runtime, the numeric model, sharding, autodiff).
#[derive(Debug)]
pub struct OpRow {
    /// The variant; for a unit operator the operator itself (the attribute
    /// values of the others are placeholders).
    pub op: Op,
    /// The term head (`add`), in lemmas and in the e-graph encoding.
    pub name: &'static str,
    /// The graph format's tag (`Add`).
    pub tag: &'static str,
    /// The number of tensor inputs; `None` means variadic (at least one).
    pub arity: Option<usize>,
    /// The attributes, keyed as the graph format names them, in the order
    /// it writes them and a term puts them after its tensor children.
    pub attrs: &'static [(&'static str, AttrKind)],
}

/// The operator vocabulary, one row per [`Op`] variant. Adding an operator
/// is a row here, an arm in [`Op::attrs`] and [`Op::from_attrs`] if it has
/// attributes, and its semantics.
#[rustfmt::skip]
pub static OPS: &[OpRow] = {
    use AttrKind::{Dim as D, Dims, Flag, Index as I, Indices, Int};
    type Schema = &'static [(&'static str, AttrKind)];
    const fn row(
        op: Op, name: &'static str, tag: &'static str, arity: Option<usize>, attrs: Schema,
    ) -> OpRow {
        OpRow { op, name, tag, arity, attrs }
    }
    const D0: Dim = Dim(SymExpr::constant(0));
    &[
        // variant                                 term head         tag              tensors
        row(Op::Add,                               "add",            "Add",           Some(2), &[]),
        row(Op::Sub,                               "sub",            "Sub",           Some(2), &[]),
        row(Op::Mul,                               "mul",            "Mul",           Some(2), &[]),
        row(Op::Div,                               "div",            "Div",           Some(2), &[]),
        row(Op::Maximum,                           "maximum",        "Maximum",       Some(2), &[]),
        row(Op::Neg,                               "neg",            "Neg",           Some(1), &[]),
        row(Op::Exp,                               "exp",            "Exp",           Some(1), &[]),
        row(Op::Sqrt,                              "sqrt",           "Sqrt",          Some(1), &[]),
        row(Op::Rsqrt,                             "rsqrt",          "Rsqrt",         Some(1), &[]),
        row(Op::Tanh,                              "tanh",           "Tanh",          Some(1), &[]),
        row(Op::Gelu,                              "gelu",           "Gelu",          Some(1), &[]),
        row(Op::Silu,                              "silu",           "Silu",          Some(1), &[]),
        row(Op::Relu,                              "relu",           "Relu",          Some(1), &[]),
        row(Op::Sigmoid,                           "sigmoid",        "Sigmoid",       Some(1), &[]),
        row(Op::Step,                              "step",           "Step",          Some(1), &[]),
        row(Op::GeluGrad,                          "gelu_grad",      "GeluGrad",      Some(1), &[]),
        row(Op::SiluGrad,                          "silu_grad",      "SiluGrad",      Some(1), &[]),
        row(Op::OnesLike,                          "ones_like",      "OnesLike",      Some(1), &[]),
        row(Op::Cos,                               "cos",            "Cos",           Some(1), &[]),
        row(Op::Sin,                               "sin",            "Sin",           Some(1), &[]),
        row(Op::ScalarMul { numer: 0, denom: 1 },  "scalar_mul",     "ScalarMul",     Some(1),
            &[("numer", Int), ("denom", Int)]),
        row(Op::SumDim { dim: 0, keepdim: false }, "sum_dim",        "SumDim",        Some(1),
            &[("dim", I), ("keepdim", Flag)]),
        row(Op::MeanDim { dim: 0, keepdim: false }, "mean_dim",       "MeanDim",       Some(1),
            &[("dim", I), ("keepdim", Flag)]),
        row(Op::SumAll,                            "sum_all",        "SumAll",        Some(1), &[]),
        row(Op::MeanAll,                           "mean_all",       "MeanAll",       Some(1), &[]),
        row(Op::Softmax { dim: 0 },                "softmax",        "Softmax",       Some(1),
            &[("dim", I)]),
        row(Op::Identity,                          "identity",       "Identity",      Some(1), &[]),
        row(Op::Reshape { shape: Vec::new() },     "reshape",        "Reshape",       Some(1),
            &[("shape", Dims)]),
        row(Op::Transpose { d0: 0, d1: 0 },        "transpose",      "Transpose",     Some(1),
            &[("d0", I), ("d1", I)]),
        row(Op::Permute { perm: Vec::new() },      "permute",        "Permute",       Some(1),
            &[("perm", Indices)]),
        row(Op::Slice { dim: 0, start: D0, end: D0 }, "slice",         "Slice",         Some(1),
            &[("dim", I), ("start", D), ("end", D)]),
        row(Op::Concat { dim: 0 },                 "concat",         "Concat",        None,
            &[("dim", I)]),
        row(Op::Pad { dim: 0, before: D0, after: D0 }, "pad",          "Pad",           Some(1),
            &[("dim", I), ("before", D), ("after", D)]),
        row(Op::Matmul,                            "matmul",         "Matmul",        Some(2), &[]),
        row(Op::Embedding,                         "embedding",      "Embedding",     Some(2), &[]),
        row(Op::EmbeddingGrad { vocab: 0 },        "embedding_grad", "EmbeddingGrad", Some(2),
            &[("vocab", I)]),
        row(Op::LayerNorm,                         "layer_norm",     "LayerNorm",     Some(3), &[]),
        row(Op::RmsNorm,                           "rms_norm",       "RmsNorm",       Some(2), &[]),
        row(Op::Rope,                              "rope",           "Rope",          Some(3), &[]),
        row(Op::Attention { heads: 0, causal: false }, "attention",    "Attention",     Some(3),
            &[("heads", I), ("causal", Flag)]),
        row(Op::MseLoss,                           "mse_loss",       "MseLoss",       Some(2), &[]),
        row(Op::CrossEntropy,                      "cross_entropy",  "CrossEntropy",  Some(2), &[]),
        row(Op::AllReduce,                         "all_reduce",     "AllReduce",     None,    &[]),
        row(Op::AllGather { dim: 0 },              "all_gather",     "AllGather",     None,
            &[("dim", I)]),
        row(Op::ReduceScatter { dim: 0, rank: 0, world: 1 }, "reduce_scatter", "ReduceScatter",
            None, &[("dim", I), ("rank", I), ("world", I)]),
    ]
};

impl OpRow {
    /// The row whose term head is `name`, if the term language has it: the
    /// collectives are lowered to `add`/`concat` chains and `slice`s before
    /// they become terms, so their heads are not in it.
    pub fn by_term(name: &str) -> Option<&'static OpRow> {
        OPS.iter()
            .find(|row| row.name == name && !row.op.is_collective())
    }
}

impl Op {
    /// This operator's row in [`OPS`].
    pub fn row(&self) -> &'static OpRow {
        let variant = std::mem::discriminant(self);
        OPS.iter()
            .find(|row| std::mem::discriminant(&row.op) == variant)
            .expect("a row per variant")
    }

    /// The operator's s-expression head symbol, used in lemmas and in the
    /// e-graph encoding.
    pub fn name(&self) -> &'static str {
        self.row().name
    }

    /// The number of tensor inputs this operator accepts; `None` means
    /// variadic (at least one).
    pub fn arity(&self) -> Option<usize> {
        self.row().arity
    }

    /// The attribute values, in the order of the row's schema.
    pub fn attrs(&self) -> AttrValues {
        use Attr::{Dim as D, Dims, Flag, Index as I, Indices, Int};
        match self.clone() {
            Op::ScalarMul { numer, denom } => [Some(Int(numer)), Some(Int(denom)), None],
            Op::SumDim { dim, keepdim } | Op::MeanDim { dim, keepdim } => {
                [Some(I(dim)), Some(Flag(keepdim)), None]
            }
            Op::Softmax { dim } | Op::Concat { dim } | Op::AllGather { dim } => {
                [Some(I(dim)), None, None]
            }
            Op::Reshape { shape } => [Some(Dims(shape)), None, None],
            Op::Transpose { d0, d1 } => [Some(I(d0)), Some(I(d1)), None],
            Op::Permute { perm } => [Some(Indices(perm)), None, None],
            Op::Slice { dim, start, end } => [Some(I(dim)), Some(D(start)), Some(D(end))],
            Op::Pad { dim, before, after } => [Some(I(dim)), Some(D(before)), Some(D(after))],
            Op::EmbeddingGrad { vocab } => [Some(I(vocab)), None, None],
            Op::Attention { heads, causal } => [Some(I(heads)), Some(Flag(causal)), None],
            Op::ReduceScatter { dim, rank, world } => [Some(I(dim)), Some(I(rank)), Some(I(world))],
            _ => AttrValues::default(),
        }
    }

    /// The operator of `row` with these attribute values: the inverse of
    /// [`Op::attrs`].
    ///
    /// # Panics
    ///
    /// If the values are not of the kinds `row.attrs` names, in its order:
    /// a reader that reads each value by its kind cannot get here.
    pub fn from_attrs(row: &OpRow, values: AttrValues) -> Op {
        use Attr::{Dim as D, Dims, Flag, Index as I, Indices, Int};
        match (&row.op, values) {
            (Op::ScalarMul { .. }, [Some(Int(numer)), Some(Int(denom)), None]) => {
                Op::ScalarMul { numer, denom }
            }
            (Op::SumDim { .. }, [Some(I(dim)), Some(Flag(keepdim)), None]) => {
                Op::SumDim { dim, keepdim }
            }
            (Op::MeanDim { .. }, [Some(I(dim)), Some(Flag(keepdim)), None]) => {
                Op::MeanDim { dim, keepdim }
            }
            (Op::Softmax { .. }, [Some(I(dim)), None, None]) => Op::Softmax { dim },
            (Op::Reshape { .. }, [Some(Dims(shape)), None, None]) => Op::Reshape { shape },
            (Op::Transpose { .. }, [Some(I(d0)), Some(I(d1)), None]) => Op::Transpose { d0, d1 },
            (Op::Permute { .. }, [Some(Indices(perm)), None, None]) => Op::Permute { perm },
            (Op::Slice { .. }, [Some(I(dim)), Some(D(start)), Some(D(end))]) => {
                Op::Slice { dim, start, end }
            }
            (Op::Concat { .. }, [Some(I(dim)), None, None]) => Op::Concat { dim },
            (Op::Pad { .. }, [Some(I(dim)), Some(D(before)), Some(D(after))]) => {
                Op::Pad { dim, before, after }
            }
            (Op::EmbeddingGrad { .. }, [Some(I(vocab)), None, None]) => Op::EmbeddingGrad { vocab },
            (Op::Attention { .. }, [Some(I(heads)), Some(Flag(causal)), None]) => {
                Op::Attention { heads, causal }
            }
            (Op::AllGather { .. }, [Some(I(dim)), None, None]) => Op::AllGather { dim },
            (Op::ReduceScatter { .. }, [Some(I(dim)), Some(I(rank)), Some(I(world))]) => {
                Op::ReduceScatter { dim, rank, world }
            }
            (unit, [None, None, None]) if row.attrs.is_empty() => unit.clone(),
            (op, values) => panic!("{} does not take {values:?}", op.name()),
        }
    }

    /// The attribute scalars appended after tensor children in the
    /// e-graph encoding (dims, bounds, scale factors).
    pub fn attr_scalars(&self) -> Vec<SymExpr> {
        let c = SymExpr::constant;
        let mut scalars = Vec::new();
        for attr in self.attrs().into_iter().flatten() {
            match attr {
                Attr::Index(n) => scalars.push(c(n as i64)),
                Attr::Int(n) => scalars.push(c(n)),
                Attr::Flag(b) => scalars.push(c(i64::from(b))),
                Attr::Dim(d) => scalars.push(d.0),
                Attr::Dims(dims) => scalars.extend(dims.into_iter().map(|d| d.0)),
                Attr::Indices(perm) => scalars.extend(perm.into_iter().map(|p| c(p as i64))),
            }
        }
        scalars
    }

    /// `true` for communication kernels (collectives).
    pub fn is_collective(&self) -> bool {
        matches!(
            self,
            Op::AllReduce | Op::AllGather { .. } | Op::ReduceScatter { .. }
        )
    }

    /// `true` for broadcasting element-wise binary operators.
    pub fn is_elementwise_binary(&self) -> bool {
        matches!(self, Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Maximum)
    }

    /// `true` for pointwise unary operators (each output element depends on
    /// exactly the corresponding input element).
    pub fn is_elementwise_unary(&self) -> bool {
        matches!(
            self,
            Op::Neg
                | Op::Exp
                | Op::Sqrt
                | Op::Rsqrt
                | Op::Tanh
                | Op::Gelu
                | Op::Silu
                | Op::Relu
                | Op::Sigmoid
                | Op::Step
                | Op::GeluGrad
                | Op::SiluGrad
                | Op::Cos
                | Op::Sin
                | Op::ScalarMul { .. }
        )
    }

    /// `true` for pointwise unary operators with `f(0) == 0`: padding zeros
    /// survive the operator unchanged, so sharding analyses may carry padded
    /// windows through. (`exp(0) = 1`, `sigmoid(0) = ½`, `cos(0) = 1`,
    /// `rsqrt(0) = ∞`, `gelu'(0) = ½`, `silu'(0) = ½` are all excluded.)
    pub fn preserves_zero(&self) -> bool {
        matches!(
            self,
            Op::Neg
                | Op::Sqrt
                | Op::Tanh
                | Op::Gelu
                | Op::Silu
                | Op::Relu
                | Op::Step
                | Op::Sin
                | Op::ScalarMul { .. }
        )
    }

    /// `true` for unary operators linear in their input: they commute with
    /// summation, so partial sums pass through (`f(Σxᵢ) = Σf(xᵢ)`).
    pub fn is_linear_unary(&self) -> bool {
        matches!(
            self,
            Op::Neg
                | Op::ScalarMul { .. }
                | Op::Identity
                | Op::Transpose { .. }
                | Op::Permute { .. }
                | Op::SumDim { .. }
                | Op::MeanDim { .. }
                | Op::SumAll
                | Op::MeanAll
        )
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
