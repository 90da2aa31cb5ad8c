//! The operator semantics, written once and generic over the element
//! algebra.
//!
//! [`eval_op_in`] says, for every [`Op`], which scalar operations produce
//! each output element and in which order. It does not say what a scalar
//! *is*: that is the [`Algebra`] it runs at. [`crate::eval_op`] runs it at
//! `f64`, where every method has its IEEE-754 meaning; `entangle-num` runs
//! the same function over hash-consed symbolic expressions, so the model it
//! derives error bounds from is this code at another element type, not a
//! transcription of it.
//!
//! The kernels never ask which algebra they run at. The only
//! algebra-dependent control flow is what [`Algebra::index`] returning
//! `None` and [`Algebra::admit`] returning `Err` select.

use entangle_ir::{Dim, Op};

use crate::eval::EvalError;

/// The elementary functions an [`Algebra`] interprets: every scalar
/// computation of the vocabulary that is not `+`, `−`, `×` or a scaling by
/// a constant. An enum, so a kernel cannot name a function the algebras do
/// not know.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Atom {
    /// `a / b`.
    Div,
    /// `max(a, b)`.
    Max,
    /// `eˣ`.
    Exp,
    /// `ln x`.
    Ln,
    /// `√x`.
    Sqrt,
    /// `tanh x`.
    Tanh,
    /// GELU, tanh approximation.
    Gelu,
    /// `x · σ(x)`.
    Silu,
    /// `max(x, 0)`.
    Relu,
    /// `σ(x) = 1 / (1 + e⁻ˣ)`.
    Sigmoid,
    /// `1` where `x > 0`, else `0`.
    Step,
    /// Derivative of [`Atom::Gelu`].
    GeluGrad,
    /// Derivative of [`Atom::Silu`].
    SiluGrad,
    /// `cos x`.
    Cos,
    /// `sin x`.
    Sin,
    /// `1 / √(x + 1e-5)`: the normalisation factor of layer/RMS norm.
    RstdEps,
    /// `score · (1 / √width)` for a head width that is not a power of four
    /// (where the factor is a rounded constant).
    AttnScale,
    /// One column of an embedding table, as a gather domain. An opaque
    /// handle: it only ever feeds [`Atom::Embed`].
    Col,
    /// One row of logits, as a selection domain; feeds [`Atom::Sel`].
    Row,
    /// `Embed(id, col)`: the entry of `col` an unreadable id selects.
    Embed,
    /// `Sel(id, row)`: the entry of `row` an unreadable id selects.
    Sel,
    /// `Ind(id, v)`: `1` where an unreadable id equals `v`, else `0`.
    Ind,
}

/// What the kernels need from their elements.
///
/// Methods take `&mut self` because the symbolic algebra interns every
/// result; the order of calls is therefore part of the kernels' contract
/// (it decides the ids the symbolic side assigns), not only of their
/// result.
pub trait Algebra {
    /// One tensor element.
    type Elem: Copy;

    /// The integer `v`, exactly.
    fn int(&mut self, v: i64) -> Self::Elem;
    /// `fl(a + b)`.
    fn add(&mut self, a: Self::Elem, b: Self::Elem) -> Self::Elem;
    /// `−a`, exactly.
    fn neg(&mut self, a: Self::Elem) -> Self::Elem;
    /// `fl(a · b)`.
    fn mul(&mut self, a: Self::Elem, b: Self::Elem) -> Self::Elem;
    /// `fl(fl(numer / denom) · x)`, for a compile-time constant ratio
    /// (`denom ≠ 0`).
    fn scale_mul(&mut self, x: Self::Elem, numer: i64, denom: i64) -> Self::Elem;
    /// `fl(x / n)` for a width `n ≥ 1` known only from the input shapes.
    fn scale_div(&mut self, x: Self::Elem, n: u64) -> Self::Elem;
    /// The elementary function `atom` of `args`.
    fn fun(&mut self, atom: Atom, args: &[Self::Elem]) -> Self::Elem;
    /// Appends to `out` the `m × n` dot products of the `m` rows and `n`
    /// columns of length `k` stored back to back in `rows` and `cols`,
    /// row-major, each folded left to right from zero:
    /// `fl(… fl(fl(0 + fl(r₀·c₀)) + fl(r₁·c₁)) …)`.
    fn dot(
        &mut self,
        rows: &[Self::Elem],
        cols: &[Self::Elem],
        mkn: (usize, usize, usize),
        out: &mut Vec<Self::Elem>,
    );
    /// The non-negative integer `e` holds, when the algebra can read it:
    /// the row a gather, scatter or selection addresses. `None` sends the
    /// kernel down the [`Atom::Embed`] / [`Atom::Sel`] / [`Atom::Ind`]
    /// path, which addresses every row symbolically.
    fn index(&self, e: Self::Elem) -> Option<usize>;
    /// Whether the algebra takes on an output of `shape`; the `Err` is the
    /// evaluation's error.
    fn admit(&self, shape: &[usize]) -> Result<(), String>;
}

/// A borrowed row-major tensor: what the kernels read.
#[derive(Debug, Clone, Copy)]
pub struct View<'a, E> {
    /// The shape.
    pub shape: &'a [usize],
    /// Row-major elements; `shape`'s product many.
    pub data: &'a [E],
}

impl<E: Copy> View<'_, E> {
    fn rank(&self) -> usize {
        self.shape.len()
    }

    fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat offset of a full-rank multi-index (Horner over the shape).
    pub(crate) fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.shape.len(), "full-rank index");
        index
            .iter()
            .zip(self.shape)
            .fold(0, |acc, (&ix, &dim)| acc * dim + ix)
    }

    fn get(&self, index: &[usize]) -> E {
        self.data[self.offset(index)]
    }

    fn to_tensor(self) -> Tensor<E> {
        Tensor {
            shape: self.shape.to_vec(),
            data: self.data.to_vec(),
        }
    }
}

/// An owned row-major tensor: what the kernels return.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<E> {
    /// The shape.
    pub shape: Vec<usize>,
    /// Row-major elements; `shape`'s product many.
    pub data: Vec<E>,
}

impl<E: Copy> Tensor<E> {
    fn scalar(e: E) -> Tensor<E> {
        Tensor {
            shape: Vec::new(),
            data: vec![e],
        }
    }

    fn filled(shape: Vec<usize>, e: E) -> Tensor<E> {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![e; n],
        }
    }

    /// The tensor as the kernels read it.
    pub fn view(&self) -> View<'_, E> {
        View {
            shape: &self.shape,
            data: &self.data,
        }
    }
}

fn shape_err(msg: impl Into<String>) -> EvalError {
    EvalError::Shape(msg.into())
}

/// A size or offset attribute: concrete and non-negative.
fn attr(d: &Dim) -> Result<usize, EvalError> {
    let c = d
        .as_const()
        .ok_or_else(|| EvalError::Symbolic(format!("attribute {d} is symbolic")))?;
    usize::try_from(c).map_err(|_| shape_err(format!("attribute {d} is negative")))
}

/// Evaluates one operator at the algebra `alg`.
///
/// Error messages do not name the operator; callers that want it prefix
/// it.
///
/// # Errors
///
/// [`EvalError::Shape`] on too few inputs, shape violations, degenerate
/// attributes (a zero denominator or world size) and whatever
/// [`Algebra::admit`] refuses; [`EvalError::Symbolic`] on an attribute
/// that is not a constant.
pub fn eval_op_in<A: Algebra>(
    alg: &mut A,
    op: &Op,
    inputs: &[View<'_, A::Elem>],
) -> Result<Tensor<A::Elem>, EvalError> {
    // Variadic operators take at least one input.
    let arity = op.arity().unwrap_or(1);
    if inputs.len() < arity {
        return Err(shape_err(format!(
            "expected {arity} inputs, got {}",
            inputs.len()
        )));
    }
    let x = inputs[0];
    match op {
        Op::Add => broadcast_binary(alg, x, inputs[1], |a, x, y| a.add(x, y)),
        // fl(a − b) = fl(a + (−b)) bitwise.
        Op::Sub => broadcast_binary(alg, x, inputs[1], |a, x, y| {
            let ny = a.neg(y);
            a.add(x, ny)
        }),
        Op::Mul => broadcast_binary(alg, x, inputs[1], |a, x, y| a.mul(x, y)),
        Op::Div => broadcast_binary(alg, x, inputs[1], |a, x, y| a.fun(Atom::Div, &[x, y])),
        Op::Maximum => broadcast_binary(alg, x, inputs[1], |a, x, y| a.fun(Atom::Max, &[x, y])),
        Op::Neg => Ok(unary(alg, x, |a, e| a.neg(e))),
        Op::Exp => Ok(unary(alg, x, atom1(Atom::Exp))),
        Op::Sqrt => Ok(unary(alg, x, atom1(Atom::Sqrt))),
        // Literally 1 / √x: the same two operations as Div(ones, Sqrt(x)).
        Op::Rsqrt => Ok(unary(alg, x, |a, e| {
            let s = a.fun(Atom::Sqrt, &[e]);
            let one = a.int(1);
            a.fun(Atom::Div, &[one, s])
        })),
        Op::Tanh => Ok(unary(alg, x, atom1(Atom::Tanh))),
        Op::Gelu => Ok(unary(alg, x, atom1(Atom::Gelu))),
        Op::Silu => Ok(unary(alg, x, atom1(Atom::Silu))),
        Op::Relu => Ok(unary(alg, x, atom1(Atom::Relu))),
        Op::Sigmoid => Ok(unary(alg, x, atom1(Atom::Sigmoid))),
        Op::Step => Ok(unary(alg, x, atom1(Atom::Step))),
        Op::GeluGrad => Ok(unary(alg, x, atom1(Atom::GeluGrad))),
        Op::SiluGrad => Ok(unary(alg, x, atom1(Atom::SiluGrad))),
        Op::OnesLike => Ok(Tensor::filled(x.shape.to_vec(), alg.int(1))),
        Op::Cos => Ok(unary(alg, x, atom1(Atom::Cos))),
        Op::Sin => Ok(unary(alg, x, atom1(Atom::Sin))),
        Op::ScalarMul { numer, denom } => {
            if *denom == 0 {
                return Err(shape_err("zero-denominator scalar_mul"));
            }
            Ok(unary(alg, x, |a, e| a.scale_mul(e, *numer, *denom)))
        }
        Op::Identity => Ok(x.to_tensor()),
        Op::SumDim { dim, keepdim } => reduce_dim(alg, x, *dim, *keepdim, false),
        Op::MeanDim { dim, keepdim } => reduce_dim(alg, x, *dim, *keepdim, true),
        Op::SumAll => Ok(Tensor::scalar(sum(alg, x.data))),
        Op::MeanAll => {
            let total = sum(alg, x.data);
            Ok(Tensor::scalar(
                alg.scale_div(total, x.numel().max(1) as u64),
            ))
        }
        Op::Softmax { dim } => softmax(alg, x, *dim),
        Op::Reshape { shape } => {
            let dims: Vec<usize> = shape.iter().map(attr).collect::<Result<_, _>>()?;
            let n = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            if n != Some(x.numel()) {
                return Err(shape_err("reshape changes element count"));
            }
            Ok(Tensor {
                shape: dims,
                data: x.data.to_vec(),
            })
        }
        Op::Transpose { d0, d1 } => {
            let mut perm: Vec<usize> = (0..x.rank()).collect();
            if *d0 >= perm.len() || *d1 >= perm.len() {
                return Err(shape_err("dim out of range"));
            }
            perm.swap(*d0, *d1);
            Ok(permute(x, &perm))
        }
        Op::Permute { perm } => {
            let mut seen = vec![false; x.rank()];
            let valid = perm.len() == x.rank()
                && perm
                    .iter()
                    .all(|&p| p < seen.len() && !std::mem::replace(&mut seen[p], true));
            if !valid {
                return Err(shape_err("perm is not a permutation of the dims"));
            }
            Ok(permute(x, perm))
        }
        Op::Slice { dim, start, end } => slice(x, *dim, attr(start)?, attr(end)?),
        Op::Concat { dim } | Op::AllGather { dim } => concat(alg, inputs, *dim),
        Op::Pad { dim, before, after } => pad(alg, x, *dim, attr(before)?, attr(after)?),
        Op::Matmul => matmul(alg, x, inputs[1]),
        Op::Embedding => embedding(alg, x, inputs[1]),
        Op::EmbeddingGrad { vocab } => embedding_grad(alg, x, inputs[1], *vocab),
        Op::LayerNorm => layer_norm(alg, x, inputs[1], inputs[2]),
        Op::RmsNorm => rms_norm(alg, x, inputs[1]),
        Op::Rope => rope(alg, x, inputs[1], inputs[2]),
        Op::Attention { heads, causal } => attention(alg, x, inputs[1], inputs[2], *heads, *causal),
        Op::MseLoss => {
            let target = inputs[1];
            if x.shape != target.shape {
                return Err(shape_err("pred/target shape mismatch"));
            }
            let mut acc = alg.int(0);
            for (&a, &b) in x.data.iter().zip(target.data) {
                let nb = alg.neg(b);
                let d = alg.add(a, nb);
                let sq = alg.mul(d, d);
                acc = alg.add(acc, sq);
            }
            Ok(Tensor::scalar(alg.scale_div(acc, x.numel().max(1) as u64)))
        }
        Op::CrossEntropy => cross_entropy(alg, x, inputs[1]),
        Op::AllReduce => all_reduce(alg, inputs),
        Op::ReduceScatter { dim, rank, world } => {
            let summed = all_reduce(alg, inputs)?;
            let size = *summed
                .shape
                .get(*dim)
                .ok_or_else(|| shape_err("dim out of range"))?;
            if *world == 0 || size % world != 0 {
                return Err(shape_err("dim not divisible by world size"));
            }
            // A rank past the world saturates into a slice past the end.
            let chunk = size / world;
            let start = rank.saturating_mul(chunk);
            slice(summed.view(), *dim, start, start.saturating_add(chunk))
        }
    }
}

fn broadcast_shape(a: &[usize], b: &[usize]) -> Result<Vec<usize>, EvalError> {
    let rank = a.len().max(b.len());
    let mut out = vec![0; rank];
    for (i, slot) in out.iter_mut().enumerate() {
        let x = a.len().checked_sub(rank - i).map(|j| a[j]).unwrap_or(1);
        let y = b.len().checked_sub(rank - i).map(|j| b[j]).unwrap_or(1);
        *slot = if x == y {
            x
        } else if x == 1 {
            y
        } else if y == 1 {
            x
        } else {
            return Err(shape_err(format!("cannot broadcast {a:?} with {b:?}")));
        };
    }
    Ok(out)
}

/// Flat offset into a tensor of `shape` of the element that broadcasts to
/// position `full` of the (equal or higher rank) result.
fn broadcast_offset(full: &[usize], shape: &[usize]) -> usize {
    let skip = full.len() - shape.len();
    shape
        .iter()
        .zip(&full[skip..])
        .fold(0, |acc, (&d, &ix)| acc * d + if d == 1 { 0 } else { ix })
}

/// Row-major walk over every multi-index of `shape`, in one reused buffer.
struct Indices<'a> {
    shape: &'a [usize],
    idx: Vec<usize>,
    left: usize,
    started: bool,
}

impl<'a> Indices<'a> {
    fn new(shape: &'a [usize]) -> Indices<'a> {
        Indices {
            shape,
            idx: vec![0; shape.len()],
            left: shape.iter().product(),
            started: false,
        }
    }

    /// The next index, valid until the next call.
    fn advance(&mut self) -> Option<&[usize]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        if self.started {
            for i in (0..self.shape.len()).rev() {
                self.idx[i] += 1;
                if self.idx[i] < self.shape[i] {
                    break;
                }
                self.idx[i] = 0;
            }
        }
        self.started = true;
        Some(&self.idx)
    }
}

/// Splits `shape` around `dim` into (product before, `shape[dim]`, product
/// after): element `(o, k, r)` sits at flat offset `(o·n + k)·inner + r`.
fn split_at_dim(shape: &[usize], dim: usize) -> (usize, usize, usize) {
    (
        shape[..dim].iter().product(),
        shape[dim],
        shape[dim + 1..].iter().product(),
    )
}

fn broadcast_binary<A: Algebra>(
    alg: &mut A,
    a: View<'_, A::Elem>,
    b: View<'_, A::Elem>,
    mut f: impl FnMut(&mut A, A::Elem, A::Elem) -> A::Elem,
) -> Result<Tensor<A::Elem>, EvalError> {
    let shape = broadcast_shape(a.shape, b.shape)?;
    alg.admit(&shape).map_err(EvalError::Shape)?;
    let mut data = Vec::with_capacity(shape.iter().product());
    let mut walk = Indices::new(&shape);
    while let Some(idx) = walk.advance() {
        let av = a.data[broadcast_offset(idx, a.shape)];
        let bv = b.data[broadcast_offset(idx, b.shape)];
        data.push(f(alg, av, bv));
    }
    Ok(Tensor { shape, data })
}

fn unary<A: Algebra>(
    alg: &mut A,
    x: View<'_, A::Elem>,
    mut f: impl FnMut(&mut A, A::Elem) -> A::Elem,
) -> Tensor<A::Elem> {
    Tensor {
        shape: x.shape.to_vec(),
        data: x.data.iter().map(|&e| f(alg, e)).collect(),
    }
}

fn atom1<A: Algebra>(atom: Atom) -> impl FnMut(&mut A, A::Elem) -> A::Elem {
    move |alg, e| alg.fun(atom, &[e])
}

/// `xs` added up left to right from zero.
fn sum<A: Algebra>(alg: &mut A, xs: &[A::Elem]) -> A::Elem {
    let mut acc = alg.int(0);
    for &e in xs {
        acc = alg.add(acc, e);
    }
    acc
}

/// `xs` folded left to right with [`Atom::Max`]; `xs` is not empty. (A
/// fold seeded with −∞ computes the same: `max(−∞, e) = e`.)
fn max<A: Algebra>(alg: &mut A, xs: &[A::Elem]) -> A::Elem {
    let mut max = xs[0];
    for &e in &xs[1..] {
        max = alg.fun(Atom::Max, &[max, e]);
    }
    max
}

fn reduce_dim<A: Algebra>(
    alg: &mut A,
    x: View<'_, A::Elem>,
    dim: usize,
    keepdim: bool,
    mean: bool,
) -> Result<Tensor<A::Elem>, EvalError> {
    if dim >= x.rank() {
        return Err(shape_err("dim out of range"));
    }
    let mut shape = x.shape.to_vec();
    let n = shape[dim];
    shape[dim] = 1;
    let mut out = Tensor::filled(shape, alg.int(0));
    let (_, _, inner) = split_at_dim(x.shape, dim);
    for (i, &xv) in x.data.iter().enumerate() {
        let off = i / (n * inner) * inner + i % inner;
        out.data[off] = alg.add(out.data[off], xv);
    }
    if mean && n > 0 {
        for e in &mut out.data {
            *e = alg.scale_div(*e, n as u64);
        }
    }
    if !keepdim {
        out.shape.remove(dim);
    }
    Ok(out)
}

fn softmax<A: Algebra>(
    alg: &mut A,
    x: View<'_, A::Elem>,
    dim: usize,
) -> Result<Tensor<A::Elem>, EvalError> {
    if dim >= x.rank() {
        return Err(shape_err("dim out of range"));
    }
    let mut out = x.to_tensor();
    let mut outer = x.shape.to_vec();
    let n = outer.remove(dim);
    let mut rows = Indices::new(&outer);
    while let Some(row) = rows.advance() {
        let mut full = row.to_vec();
        full.insert(dim, 0);
        if n == 0 {
            continue;
        }
        let mut max = x.get(&full);
        for k in 1..n {
            full[dim] = k;
            let e = x.get(&full);
            max = alg.fun(Atom::Max, &[max, e]);
        }
        let mut denom = alg.int(0);
        let mut exps = Vec::with_capacity(n);
        for k in 0..n {
            full[dim] = k;
            let e = x.get(&full);
            let nm = alg.neg(max);
            let shifted = alg.add(e, nm);
            let ex = alg.fun(Atom::Exp, &[shifted]);
            exps.push(ex);
            denom = alg.add(denom, ex);
        }
        for (k, &ex) in exps.iter().enumerate() {
            full[dim] = k;
            let off = x.offset(&full);
            out.data[off] = alg.fun(Atom::Div, &[ex, denom]);
        }
    }
    Ok(out)
}

/// `perm` is a permutation of `x`'s dims.
fn permute<E: Copy>(x: View<'_, E>, perm: &[usize]) -> Tensor<E> {
    let shape: Vec<usize> = perm.iter().map(|&p| x.shape[p]).collect();
    let mut data = Vec::with_capacity(shape.iter().product());
    let mut src = vec![0; shape.len()];
    let mut walk = Indices::new(&shape);
    while let Some(idx) = walk.advance() {
        for (i, &p) in perm.iter().enumerate() {
            src[p] = idx[i];
        }
        data.push(x.get(&src));
    }
    Tensor { shape, data }
}

fn slice<E: Copy>(
    x: View<'_, E>,
    dim: usize,
    start: usize,
    end: usize,
) -> Result<Tensor<E>, EvalError> {
    if dim >= x.rank() || end > x.shape[dim] || start > end {
        return Err(shape_err(format!(
            "invalid slice [{start},{end}) on {:?}",
            x.shape
        )));
    }
    let mut shape = x.shape.to_vec();
    shape[dim] = end - start;
    let mut data = Vec::with_capacity(shape.iter().product());
    let (outer, n, inner) = split_at_dim(x.shape, dim);
    for o in 0..outer {
        data.extend_from_slice(&x.data[(o * n + start) * inner..(o * n + end) * inner]);
    }
    Ok(Tensor { shape, data })
}

fn concat<A: Algebra>(
    alg: &mut A,
    inputs: &[View<'_, A::Elem>],
    dim: usize,
) -> Result<Tensor<A::Elem>, EvalError> {
    let first = inputs[0];
    if dim >= first.rank() {
        return Err(shape_err("dim out of range"));
    }
    let mut total = 0;
    for v in inputs {
        if v.rank() != first.rank() {
            return Err(shape_err("rank mismatch"));
        }
        for i in 0..first.rank() {
            if i != dim && v.shape[i] != first.shape[i] {
                return Err(shape_err("non-concat dim mismatch"));
            }
        }
        total += v.shape[dim];
    }
    let mut shape = first.shape.to_vec();
    shape[dim] = total;
    alg.admit(&shape).map_err(EvalError::Shape)?;
    let mut out = Tensor::filled(shape, alg.int(0));
    let (outer, _, inner) = split_at_dim(&out.shape, dim);
    let mut offset = 0;
    for v in inputs {
        let run = v.shape[dim] * inner;
        for o in 0..outer {
            let dst = (o * total + offset) * inner;
            out.data[dst..dst + run].copy_from_slice(&v.data[o * run..(o + 1) * run]);
        }
        offset += v.shape[dim];
    }
    Ok(out)
}

fn pad<A: Algebra>(
    alg: &mut A,
    x: View<'_, A::Elem>,
    dim: usize,
    before: usize,
    after: usize,
) -> Result<Tensor<A::Elem>, EvalError> {
    if dim >= x.rank() {
        return Err(shape_err("dim out of range"));
    }
    let mut shape = x.shape.to_vec();
    shape[dim] = before
        .checked_add(after)
        .and_then(|p| p.checked_add(shape[dim]))
        .ok_or_else(|| shape_err("padded dim overflows"))?;
    alg.admit(&shape).map_err(EvalError::Shape)?;
    let mut out = Tensor::filled(shape, alg.int(0));
    let (outer, n, inner) = split_at_dim(x.shape, dim);
    let run = n * inner;
    for o in 0..outer {
        let dst = (o * out.shape[dim] + before) * inner;
        out.data[dst..dst + run].copy_from_slice(&x.data[o * run..(o + 1) * run]);
    }
    Ok(out)
}

fn matmul<A: Algebra>(
    alg: &mut A,
    a: View<'_, A::Elem>,
    b: View<'_, A::Elem>,
) -> Result<Tensor<A::Elem>, EvalError> {
    if a.rank() < 2 || b.rank() < 2 {
        return Err(shape_err("matmul needs rank >= 2"));
    }
    let (m, k1) = (a.shape[a.rank() - 2], a.shape[a.rank() - 1]);
    let (k2, n) = (b.shape[b.rank() - 2], b.shape[b.rank() - 1]);
    if k1 != k2 {
        return Err(shape_err("inner dims differ"));
    }
    let abatch = &a.shape[..a.rank() - 2];
    let bbatch = &b.shape[..b.rank() - 2];
    let batch = broadcast_shape(abatch, bbatch)?;
    let mut shape = batch.clone();
    shape.extend([m, n]);
    alg.admit(&shape).map_err(EvalError::Shape)?;
    let mut data = Vec::with_capacity(shape.iter().product());
    let mut cols = Vec::with_capacity(k1 * n);
    let mut batches = Indices::new(&batch);
    while let Some(bidx) = batches.advance() {
        let a_base = broadcast_offset(bidx, abatch) * m * k1;
        let b_base = broadcast_offset(bidx, bbatch) * k1 * n;
        // The rows of `a` lie back to back already; the columns of `b` are
        // gathered so.
        cols.clear();
        for j in 0..n {
            cols.extend((0..k1).map(|k| b.data[b_base + k * n + j]));
        }
        alg.dot(&a.data[a_base..][..m * k1], &cols, (m, k1, n), &mut data);
    }
    Ok(Tensor { shape, data })
}

fn embedding<A: Algebra>(
    alg: &mut A,
    w: View<'_, A::Elem>,
    ids: View<'_, A::Elem>,
) -> Result<Tensor<A::Elem>, EvalError> {
    if w.rank() != 2 {
        return Err(shape_err("weight must be rank 2"));
    }
    let (v, h) = (w.shape[0], w.shape[1]);
    let mut shape = ids.shape.to_vec();
    shape.push(h);
    alg.admit(&shape).map_err(EvalError::Shape)?;
    // One shared gather handle per weight column: `col_j` stands for the
    // exact (unrounded) selection domain of column j.
    let mut col = Vec::with_capacity(v);
    let cols: Vec<A::Elem> = (0..h)
        .map(|j| {
            col.clear();
            col.extend((0..v).map(|r| w.data[r * h + j]));
            alg.fun(Atom::Col, &col)
        })
        .collect();
    let mut data = Vec::with_capacity(shape.iter().product());
    for &id_e in ids.data {
        match alg.index(id_e) {
            Some(row) if row >= v => {
                return Err(shape_err(format!("index {row} out of vocab {v}")));
            }
            Some(row) => data.extend_from_slice(&w.data[row * h..][..h]),
            None => data.extend(cols.iter().map(|&cj| alg.fun(Atom::Embed, &[id_e, cj]))),
        }
    }
    Ok(Tensor { shape, data })
}

fn embedding_grad<A: Algebra>(
    alg: &mut A,
    ids: View<'_, A::Elem>,
    grad: View<'_, A::Elem>,
    vocab: usize,
) -> Result<Tensor<A::Elem>, EvalError> {
    if grad.rank() != ids.rank() + 1 {
        return Err(shape_err("grad rank must be ids rank + 1"));
    }
    let h = grad.shape[grad.rank() - 1];
    if grad.numel() / h.max(1) != ids.numel() {
        return Err(shape_err("grad batch dims mismatch"));
    }
    let shape = vec![vocab, h];
    alg.admit(&shape).map_err(EvalError::Shape)?;
    let mut out = Tensor::filled(shape, alg.int(0));
    // Row-ascending scatter-add. An id the algebra cannot read is modeled
    // with indicator factors: adding the resulting exact zeros for
    // non-matching rows is bitwise free, and the conservative extra
    // rounding sites only loosen a derived bound.
    for (row, &id_e) in ids.data.iter().enumerate() {
        let known = alg.index(id_e);
        if let Some(vr) = known.filter(|&vr| vr >= vocab) {
            return Err(shape_err(format!("index {vr} out of vocab {vocab}")));
        }
        for j in 0..h {
            let g = grad.data[row * h + j];
            match known {
                Some(vr) => out.data[vr * h + j] = alg.add(out.data[vr * h + j], g),
                None => {
                    for vr in 0..vocab {
                        let vc = alg.int(vr as i64);
                        let ind = alg.fun(Atom::Ind, &[id_e, vc]);
                        let term = alg.mul(ind, g);
                        out.data[vr * h + j] = alg.add(out.data[vr * h + j], term);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// The width of the last dim of `x`, which `w` (and `b`) must match.
fn norm_width<E: Copy>(x: View<'_, E>, params: &[View<'_, E>]) -> Result<usize, EvalError> {
    let Some(&h) = x.shape.last() else {
        return Err(shape_err("rank must be >= 1"));
    };
    if params.iter().any(|p| p.shape != [h]) {
        return Err(shape_err("weight or bias size mismatch"));
    }
    Ok(h)
}

fn layer_norm<A: Algebra>(
    alg: &mut A,
    x: View<'_, A::Elem>,
    w: View<'_, A::Elem>,
    b: View<'_, A::Elem>,
) -> Result<Tensor<A::Elem>, EvalError> {
    let h = norm_width(x, &[w, b])?;
    let mut out = x.to_tensor();
    let mut devs = Vec::with_capacity(h);
    for (r, row) in x.data.chunks_exact(h.max(1)).enumerate() {
        let total = sum(alg, row);
        let mean = alg.scale_div(total, h as u64);
        let nmean = alg.neg(mean);
        let mut vsum = alg.int(0);
        devs.clear();
        for &v in row {
            let d = alg.add(v, nmean);
            devs.push(d);
            let sq = alg.mul(d, d);
            vsum = alg.add(vsum, sq);
        }
        let var = alg.scale_div(vsum, h as u64);
        let rstd = alg.fun(Atom::RstdEps, &[var]);
        for (j, &d) in devs.iter().enumerate() {
            let normed = alg.mul(d, rstd);
            let scaled = alg.mul(normed, w.data[j]);
            out.data[r * h + j] = alg.add(scaled, b.data[j]);
        }
    }
    Ok(out)
}

fn rms_norm<A: Algebra>(
    alg: &mut A,
    x: View<'_, A::Elem>,
    w: View<'_, A::Elem>,
) -> Result<Tensor<A::Elem>, EvalError> {
    let h = norm_width(x, &[w])?;
    let mut out = x.to_tensor();
    for (r, row) in x.data.chunks_exact(h.max(1)).enumerate() {
        let mut msum = alg.int(0);
        for &v in row {
            let sq = alg.mul(v, v);
            msum = alg.add(msum, sq);
        }
        let ms = alg.scale_div(msum, h as u64);
        let rrms = alg.fun(Atom::RstdEps, &[ms]);
        for (j, &v) in row.iter().enumerate() {
            let n = alg.mul(v, rrms);
            out.data[r * h + j] = alg.mul(n, w.data[j]);
        }
    }
    Ok(out)
}

fn rope<A: Algebra>(
    alg: &mut A,
    x: View<'_, A::Elem>,
    cos: View<'_, A::Elem>,
    sin: View<'_, A::Elem>,
) -> Result<Tensor<A::Elem>, EvalError> {
    // x: [..., s, h]; cos/sin: [s, h]. Interleaved-pair formulation (the
    // original RoFormer convention): element 2i pairs with 2i+1. Unlike
    // rotate-half, this convention commutes with even-boundary hidden-dim
    // splits, which is what lets tensor-parallel head sharding slice the
    // tables — the property the rope lemmas encode.
    if x.rank() < 2 || cos.rank() != 2 || cos.shape != sin.shape {
        return Err(shape_err("bad rope inputs"));
    }
    let s = x.shape[x.rank() - 2];
    let h = x.shape[x.rank() - 1];
    if cos.shape != [s, h] || !h.is_multiple_of(2) {
        return Err(shape_err("cos table mismatch or odd head dim"));
    }
    let mut out = x.to_tensor();
    let rows = x.numel().checked_div(s * h).unwrap_or(0);
    for r in 0..rows {
        for t in 0..s {
            let base = (r * s + t) * h;
            for j in (0..h).step_by(2) {
                let (x0, x1) = (x.data[base + j], x.data[base + j + 1]);
                let (c0, s0) = (cos.data[t * h + j], sin.data[t * h + j]);
                let (c1, s1) = (cos.data[t * h + j + 1], sin.data[t * h + j + 1]);
                let a = alg.mul(x0, c0);
                let b = alg.mul(x1, s0);
                let nb = alg.neg(b);
                out.data[base + j] = alg.add(a, nb);
                let c = alg.mul(x1, c1);
                let d = alg.mul(x0, s1);
                out.data[base + j + 1] = alg.add(c, d);
            }
        }
    }
    Ok(out)
}

fn attention<A: Algebra>(
    alg: &mut A,
    q: View<'_, A::Elem>,
    k: View<'_, A::Elem>,
    v: View<'_, A::Elem>,
    heads: usize,
    causal: bool,
) -> Result<Tensor<A::Elem>, EvalError> {
    if q.rank() < 2 || q.shape != k.shape || q.shape != v.shape {
        return Err(shape_err("q/k/v shapes must match with rank >= 2"));
    }
    let h = q.shape[q.rank() - 1];
    let s = q.shape[q.rank() - 2];
    if heads == 0 || !h.is_multiple_of(heads) {
        return Err(shape_err("hidden not divisible by heads"));
    }
    let hd = h / heads;
    // 1/sqrt(hd) is an exact power of two iff hd = 4^j; then the score
    // scaling is a `scale_mul` by that constant. Otherwise it is a
    // multiplication by a rounded constant, which is its own atom.
    let pow2_scale = (hd.is_power_of_two() && hd.trailing_zeros().is_multiple_of(2))
        .then(|| 1i64 << (hd.trailing_zeros() / 2));
    let hd_c = alg.int(hd as i64);
    let batches = q.numel().checked_div(s * h).unwrap_or(0);
    let mut out = Tensor::filled(q.shape.to_vec(), alg.int(0));
    let (mut scores, mut exps) = (Vec::with_capacity(s), Vec::with_capacity(s));
    for b in 0..batches {
        for head in 0..heads {
            let col0 = head * hd;
            for i in 0..s {
                let qbase = (b * s + i) * h + col0;
                // A causal mask hides the keys after `i`. Hidden scores
                // are −∞: they never survive the max, exponentiate to
                // exact zeros and add exactly, so they are left out of
                // every fold instead.
                let limit = if causal { i + 1 } else { s };
                scores.clear();
                for j in 0..limit {
                    let kbase = (b * s + j) * h + col0;
                    let mut dot = alg.int(0);
                    for c in 0..hd {
                        let p = alg.mul(q.data[qbase + c], k.data[kbase + c]);
                        dot = alg.add(dot, p);
                    }
                    scores.push(match pow2_scale {
                        Some(root) => alg.scale_mul(dot, 1, root),
                        None => alg.fun(Atom::AttnScale, &[dot, hd_c]),
                    });
                }
                let max = max(alg, &scores);
                let nmax = alg.neg(max);
                let mut denom = alg.int(0);
                exps.clear();
                for &sc in &scores {
                    let shifted = alg.add(sc, nmax);
                    let ex = alg.fun(Atom::Exp, &[shifted]);
                    exps.push(ex);
                    denom = alg.add(denom, ex);
                }
                for c in 0..hd {
                    let mut acc = alg.int(0);
                    for (j, &ex) in exps.iter().enumerate() {
                        let vbase = (b * s + j) * h + col0;
                        let wj = alg.fun(Atom::Div, &[ex, denom]);
                        let term = alg.mul(wj, v.data[vbase + c]);
                        acc = alg.add(acc, term);
                    }
                    out.data[qbase + c] = acc;
                }
            }
        }
    }
    Ok(out)
}

fn cross_entropy<A: Algebra>(
    alg: &mut A,
    logits: View<'_, A::Elem>,
    targets: View<'_, A::Elem>,
) -> Result<Tensor<A::Elem>, EvalError> {
    if logits.rank() != targets.rank() + 1 {
        return Err(shape_err("logits rank must be targets rank + 1"));
    }
    let v = logits.shape[logits.rank() - 1];
    let rows = logits.numel() / v.max(1);
    if rows != targets.numel() {
        return Err(shape_err("batch dims mismatch"));
    }
    if rows == 0 {
        return Err(shape_err("empty cross_entropy (0/0 rows)"));
    }
    let mut total = alg.int(0);
    for (row, &t_e) in logits.data.chunks_exact(v).zip(targets.data) {
        let max = max(alg, row);
        let nmax = alg.neg(max);
        let mut sumexp = alg.int(0);
        for &e in row {
            let shifted = alg.add(e, nmax);
            let ex = alg.fun(Atom::Exp, &[shifted]);
            sumexp = alg.add(sumexp, ex);
        }
        let ln = alg.fun(Atom::Ln, &[sumexp]);
        let logsum = alg.add(ln, max);
        let sel = match alg.index(t_e) {
            Some(t) if t >= v => return Err(shape_err(format!("target {t} out of vocab {v}"))),
            Some(t) => row[t],
            None => {
                let rh = alg.fun(Atom::Row, row);
                alg.fun(Atom::Sel, &[t_e, rh])
            }
        };
        let nsel = alg.neg(sel);
        let step = alg.add(logsum, nsel);
        total = alg.add(total, step);
    }
    Ok(Tensor::scalar(alg.scale_div(total, rows as u64)))
}

fn all_reduce<A: Algebra>(
    alg: &mut A,
    inputs: &[View<'_, A::Elem>],
) -> Result<Tensor<A::Elem>, EvalError> {
    let mut acc = inputs[0].to_tensor();
    for v in &inputs[1..] {
        if v.shape != acc.shape {
            return Err(shape_err("input shape mismatch"));
        }
        for (a, &b) in acc.data.iter_mut().zip(v.data) {
            *a = alg.add(*a, b);
        }
    }
    Ok(acc)
}
