//! A symbolic mirror of `entangle_runtime::eval`.
//!
//! [`eval_op_sym`] reproduces, element by element and *in the same
//! accumulation order*, the f64 computation the runtime interpreter
//! performs — but over [`Arena`] nodes instead of floats. Fidelity is the
//! whole point: the soundness of the bit-exact classification rests on the
//! claim that two tensors with identical element ids are computed by
//! identical sequences of IEEE operations. Any change to
//! `crates/runtime/src/eval.rs` accumulation order must be mirrored here
//! (the cross-validation tests in this crate pin the correspondence).
//!
//! Departures from the runtime are restricted to models that are bitwise
//! no-ops: masked attention entries (exact zeros added with `+`, which is
//! exact) are dropped from folds, `max` folds skip their `-∞` seed, and
//! reduction folds skip their `0.0` seed (`fl(0 + x) = x`).

use std::collections::HashMap;
use std::rc::Rc;

use entangle_egraph::hashing::FxHashMap;
use entangle_egraph::{ENode, Id, RecExpr};
use entangle_ir::{DType, Graph, Op, Shape};
use entangle_lemmas::{decode_op, Meta, SYNTHETIC_LEAF_PREFIX};

use crate::sym::{Arena, ExprId, Rat, SymTensor, ARENA_CAP};

/// Per-tensor element cap: larger tensors leave the model (pessimistic).
pub const NUMEL_CAP: usize = 1 << 16;

/// A ones-filled tensor (synthetic `~ones[..]` leaves, `ones_like`).
pub fn ones_tensor(arena: &mut Arena, shape: Vec<usize>) -> SymTensor {
    let one = arena.rat(Rat::one());
    let n = shape.iter().product();
    SymTensor::new(shape, vec![one; n])
}

/// A fresh leaf tensor: one [`crate::sym::Node::Leaf`] per element.
pub fn leaf_tensor(arena: &mut Arena, name: &str, shape: Vec<usize>) -> Result<SymTensor, String> {
    let n: usize = shape.iter().product();
    if n > NUMEL_CAP {
        return Err(format!("leaf {name} exceeds element cap ({n})"));
    }
    let nid = arena.name(name);
    let elems = (0..n).map(|i| arena.leaf(nid, i as u64)).collect();
    Ok(SymTensor::new(shape, elems))
}

/// The dims of a fully constant shape.
fn const_dims(shape: &Shape) -> Option<Vec<usize>> {
    shape
        .dims()
        .iter()
        .map(|d| d.as_const().and_then(|c| usize::try_from(c).ok()))
        .collect()
}

#[cfg(test)]
thread_local! {
    /// Percentage of [`graph_nodes_hint`] that [`graph_tensors_sym`]
    /// reserves: the tests force it to nothing and to a multiple to show
    /// the hint is behaviour-free.
    pub(crate) static HINT_PERCENT: std::cell::Cell<usize> = const { std::cell::Cell::new(100) };
}

/// How many nodes [`graph_tensors_sym`] interns for `g` if no two of its
/// operators compute the same element: one leaf per input element, and per
/// operator the count its kernel below makes from the declared shapes
/// (symbolic or oversized tensors count as the element cap). Only ever a
/// **capacity hint**. Hash-consing merges replicated work, so the true
/// count is lower (0.2–16 % on the benchmark inputs that stay under the
/// cap) — which is also why this number must not stand in for it against
/// [`ARENA_CAP`]: it can exceed the cap when the arena never would.
pub(crate) fn graph_nodes_hint(g: &Graph) -> usize {
    let dims = |t: entangle_ir::TensorId| -> Vec<u64> {
        match const_dims(&g.tensor(t).shape) {
            Some(d) if d.iter().product::<usize>() <= NUMEL_CAP => {
                d.iter().map(|&x| x as u64).collect()
            }
            _ => vec![NUMEL_CAP as u64],
        }
    };
    let numel = |shape: &[u64]| shape.iter().product::<u64>();
    let mut total = 0u64;
    for &t in g.inputs() {
        total = total.saturating_add(numel(&dims(t)));
    }
    for node in g.nodes() {
        let ins: Vec<Vec<u64>> = node.inputs.iter().map(|&t| dims(t)).collect();
        let out = numel(&dims(node.output));
        let x = ins.first().map_or(0, |s| numel(s));
        let last = ins.first().and_then(|s| s.last().copied()).unwrap_or(1);
        let rows = x.checked_div(last).unwrap_or(0);
        let nodes = match &node.op {
            Op::Identity
            | Op::OnesLike
            | Op::Reshape { .. }
            | Op::Transpose { .. }
            | Op::Permute { .. }
            | Op::Slice { .. }
            | Op::Concat { .. }
            | Op::Pad { .. }
            | Op::AllGather { .. } => 0,
            Op::Sub | Op::Rsqrt => 2 * out,
            Op::Add
            | Op::Mul
            | Op::Div
            | Op::Maximum
            | Op::Neg
            | Op::Exp
            | Op::Sqrt
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
            | Op::ScalarMul { .. } => out,
            Op::SumDim { .. } | Op::SumAll => x,
            Op::MeanDim { .. } | Op::MeanAll => x + out,
            Op::Softmax { .. } => 5 * out,
            // K multiplies and K − 1 adds per output element.
            Op::Matmul => out * (2 * last).saturating_sub(1),
            Op::Embedding => out + ins.get(1).map_or(0, |w| numel(w)),
            // Opaque ids: an indicator per (id, row), a multiply-add per
            // (id, row, column).
            Op::EmbeddingGrad { vocab } => {
                let grad = ins.get(1).map_or(0, |s| numel(s));
                (*vocab as u64).saturating_mul(2 * grad + x + 1)
            }
            Op::LayerNorm => 7 * x + 4 * rows,
            Op::RmsNorm => 4 * x + 2 * rows,
            // Seven nodes per rotated pair.
            Op::Rope => 4 * x,
            // Per query row and head, over its `limit` visible keys: the
            // score dot products (2·hd each), max, shift, exp, sum and
            // weight (5), the weighted value sum (2·hd).
            Op::Attention { heads, causal } => {
                let s = ins
                    .first()
                    .and_then(|q| q.len().checked_sub(2).map(|i| q[i]))
                    .unwrap_or(0);
                let batches = rows.checked_div(s).unwrap_or(0);
                let pairs = if *causal { s * (s + 1) / 2 } else { s * s };
                let hd = last.checked_div(*heads as u64).unwrap_or(0);
                (batches * pairs)
                    .saturating_mul(*heads as u64)
                    .saturating_mul(4 * hd + 5)
            }
            Op::MseLoss => 4 * x + 1,
            Op::CrossEntropy => 4 * x + 8 * rows + 1,
            Op::AllReduce | Op::ReduceScatter { .. } => {
                (node.inputs.len() as u64).saturating_sub(1) * x
            }
        };
        // The constants a kernel seeds its folds with.
        total = total.saturating_add(nodes).saturating_add(2);
    }
    usize::try_from(total).unwrap_or(usize::MAX)
}

/// Symbolically evaluates every tensor of `g` in topological order: graph
/// inputs become named leaf tensors, and every operator output the
/// expression its producer computes. A tensor *name* therefore denotes the
/// bit-level value the runtime materializes for it — which is what makes
/// `G_d`-definition steps (`(matmul x w)` ↔ `y`) classify as bit-exact.
/// Tensors whose evaluation leaves the model (symbolic shapes, cap
/// overflows) map to `Err` and poison only their consumers.
pub fn graph_tensors_sym(
    arena: &mut Arena,
    g: &Graph,
) -> HashMap<String, Result<Rc<SymTensor>, String>> {
    let hint = graph_nodes_hint(g);
    #[cfg(test)]
    let hint = hint.saturating_mul(HINT_PERCENT.get()) / 100;
    // A quarter more than `g` itself: terms over its tensors are evaluated
    // into the same arena next, and where they reassociate a sum they
    // intern it again (1–14 % on top, on the benchmark inputs).
    let hint = hint.saturating_add(hint / 4).min(ARENA_CAP + NUMEL_CAP);
    arena.reserve(arena.len() + hint);
    let mut out: HashMap<String, Result<Rc<SymTensor>, String>> = HashMap::new();
    for &t in g.inputs() {
        let tensor = g.tensor(t);
        let r = match const_dims(&tensor.shape) {
            Some(dims) => leaf_tensor(arena, &tensor.name, dims),
            None => Err(format!("symbolic shape on {:?}", tensor.name)),
        };
        out.insert(tensor.name.clone(), r.map(Rc::new));
    }
    for node in g.nodes() {
        let ins: Result<Vec<&SymTensor>, String> = node
            .inputs
            .iter()
            .map(|&t| match out.get(&g.tensor(t).name) {
                Some(Ok(v)) => Ok(&**v),
                Some(Err(e)) => Err(e.clone()),
                None => Err(format!(
                    "tensor {:?} referenced before definition",
                    g.tensor(t).name
                )),
            })
            .collect();
        let r = ins.and_then(|ins| eval_op_sym(arena, &node.op, &ins));
        out.insert(g.tensor(node.output).name.clone(), r.map(Rc::new));
    }
    out
}

/// Why an evaluation past [`ARENA_CAP`] leaves the model.
pub const ARENA_CAP_MSG: &str = "arena node cap exceeded";

fn check_caps(arena: &Arena, shape: &[usize]) -> Result<(), String> {
    let n: usize = shape.iter().product();
    if n > NUMEL_CAP {
        return Err(format!("tensor exceeds element cap ({n})"));
    }
    if arena.len() > ARENA_CAP {
        return Err(ARENA_CAP_MSG.to_owned());
    }
    Ok(())
}

fn broadcast_shape(a: &[usize], b: &[usize]) -> Result<Vec<usize>, String> {
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
            return Err(format!("cannot broadcast {a:?} with {b:?}"));
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

fn broadcast_binary(
    arena: &mut Arena,
    a: &SymTensor,
    b: &SymTensor,
    mut f: impl FnMut(&mut Arena, ExprId, ExprId) -> ExprId,
) -> Result<SymTensor, String> {
    let shape = broadcast_shape(&a.shape, &b.shape)?;
    check_caps(arena, &shape)?;
    let mut elems = Vec::with_capacity(shape.iter().product());
    let mut walk = Indices::new(&shape);
    while let Some(idx) = walk.advance() {
        let av = a.elems[broadcast_offset(idx, &a.shape)];
        let bv = b.elems[broadcast_offset(idx, &b.shape)];
        elems.push(f(arena, av, bv));
    }
    Ok(SymTensor::new(shape, elems))
}

fn unary(
    arena: &mut Arena,
    x: &SymTensor,
    mut f: impl FnMut(&mut Arena, ExprId) -> ExprId,
) -> SymTensor {
    let elems = x.elems.iter().map(|&e| f(arena, e)).collect();
    SymTensor::new(x.shape.clone(), elems)
}

fn atom1(name: &'static str) -> impl FnMut(&mut Arena, ExprId) -> ExprId {
    move |arena, e| arena.fun(name, &[e])
}

fn reduce_dim(
    arena: &mut Arena,
    x: &SymTensor,
    dim: usize,
    keepdim: bool,
    mean: bool,
) -> Result<SymTensor, String> {
    if dim >= x.shape.len() {
        return Err("dim out of range".to_owned());
    }
    let mut shape = x.shape.clone();
    let n = shape[dim];
    shape[dim] = 1;
    let zero = arena.rat(Rat::zero());
    let mut out = SymTensor::new(shape.clone(), vec![zero; shape.iter().product()]);
    let (_, _, inner) = split_at_dim(&x.shape, dim);
    for (i, &xv) in x.elems.iter().enumerate() {
        let off = i / (n * inner) * inner + i % inner;
        out.elems[off] = arena.add(out.elems[off], xv);
    }
    if mean && n > 0 {
        for e in &mut out.elems {
            *e = arena.scale_div(*e, n as u64);
        }
    }
    if keepdim {
        Ok(out)
    } else {
        let mut s = shape;
        s.remove(dim);
        Ok(SymTensor::new(s, out.elems))
    }
}

fn softmax(arena: &mut Arena, x: &SymTensor, dim: usize) -> Result<SymTensor, String> {
    if dim >= x.shape.len() {
        return Err("dim out of range".to_owned());
    }
    let mut out = x.clone();
    let mut outer = x.shape.clone();
    let n = outer.remove(dim);
    let mut rows = Indices::new(&outer);
    while let Some(row) = rows.advance() {
        let mut full = row.to_vec();
        full.insert(dim, 0);
        if n == 0 {
            continue;
        }
        // max-fold: the runtime seeds with -∞; fl(max(-∞, e)) = e.
        let mut max = x.get(&full);
        for k in 1..n {
            full[dim] = k;
            let e = x.get(&full);
            max = arena.fun("max", &[max, e]);
        }
        let mut denom = arena.rat(Rat::zero());
        let mut exps = Vec::with_capacity(n);
        for k in 0..n {
            full[dim] = k;
            let e = x.get(&full);
            let nm = arena.neg(max);
            let shifted = arena.add(e, nm);
            let ex = arena.fun("exp", &[shifted]);
            exps.push(ex);
            denom = arena.add(denom, ex);
        }
        for (k, &ex) in exps.iter().enumerate() {
            full[dim] = k;
            let off = out.offset(&full);
            out.elems[off] = arena.fun("div", &[ex, denom]);
        }
    }
    Ok(out)
}

fn permute(x: &SymTensor, perm: &[usize]) -> SymTensor {
    let shape: Vec<usize> = perm.iter().map(|&p| x.shape[p]).collect();
    let mut elems = Vec::with_capacity(shape.iter().product());
    let mut src = vec![0; shape.len()];
    let mut walk = Indices::new(&shape);
    while let Some(idx) = walk.advance() {
        for (i, &p) in perm.iter().enumerate() {
            src[p] = idx[i];
        }
        elems.push(x.get(&src));
    }
    SymTensor::new(shape, elems)
}

fn slice_t(x: &SymTensor, dim: usize, start: usize, end: usize) -> Result<SymTensor, String> {
    if dim >= x.shape.len() || end > x.shape[dim] || start > end {
        return Err(format!("invalid slice [{start},{end}) on {:?}", x.shape));
    }
    let mut shape = x.shape.clone();
    shape[dim] = end - start;
    let mut elems = Vec::with_capacity(shape.iter().product());
    let (outer, n, inner) = split_at_dim(&x.shape, dim);
    for o in 0..outer {
        elems.extend_from_slice(&x.elems[(o * n + start) * inner..(o * n + end) * inner]);
    }
    Ok(SymTensor::new(shape, elems))
}

fn concat(arena: &mut Arena, inputs: &[&SymTensor], dim: usize) -> Result<SymTensor, String> {
    let first = inputs[0];
    if dim >= first.shape.len() {
        return Err("dim out of range".to_owned());
    }
    let mut total = 0;
    for v in inputs {
        if v.shape.len() != first.shape.len() {
            return Err("rank mismatch".to_owned());
        }
        for i in 0..first.shape.len() {
            if i != dim && v.shape[i] != first.shape[i] {
                return Err("non-concat dim mismatch".to_owned());
            }
        }
        total += v.shape[dim];
    }
    let mut shape = first.shape.clone();
    shape[dim] = total;
    check_caps(arena, &shape)?;
    let zero = arena.rat(Rat::zero());
    let mut out = SymTensor::new(shape.clone(), vec![zero; shape.iter().product()]);
    let (outer, _, inner) = split_at_dim(&shape, dim);
    let mut offset = 0;
    for v in inputs {
        let run = v.shape[dim] * inner;
        for o in 0..outer {
            let dst = (o * total + offset) * inner;
            out.elems[dst..dst + run].copy_from_slice(&v.elems[o * run..(o + 1) * run]);
        }
        offset += v.shape[dim];
    }
    Ok(out)
}

fn pad(
    arena: &mut Arena,
    x: &SymTensor,
    dim: usize,
    before: usize,
    after: usize,
) -> Result<SymTensor, String> {
    if dim >= x.shape.len() {
        return Err("dim out of range".to_owned());
    }
    let mut shape = x.shape.clone();
    shape[dim] += before + after;
    check_caps(arena, &shape)?;
    let zero = arena.rat(Rat::zero());
    let mut out = SymTensor::new(shape.clone(), vec![zero; shape.iter().product()]);
    let (outer, n, inner) = split_at_dim(&x.shape, dim);
    let run = n * inner;
    for o in 0..outer {
        let dst = (o * shape[dim] + before) * inner;
        out.elems[dst..dst + run].copy_from_slice(&x.elems[o * run..(o + 1) * run]);
    }
    Ok(out)
}

fn matmul(arena: &mut Arena, a: &SymTensor, b: &SymTensor) -> Result<SymTensor, String> {
    if a.shape.len() < 2 || b.shape.len() < 2 {
        return Err("matmul needs rank >= 2".to_owned());
    }
    let (m, k1) = (a.shape[a.shape.len() - 2], a.shape[a.shape.len() - 1]);
    let (k2, n) = (b.shape[b.shape.len() - 2], b.shape[b.shape.len() - 1]);
    if k1 != k2 {
        return Err("inner dims differ".to_owned());
    }
    let abatch = &a.shape[..a.shape.len() - 2];
    let bbatch = &b.shape[..b.shape.len() - 2];
    let batch = broadcast_shape(abatch, bbatch)?;
    let mut shape = batch.clone();
    shape.extend([m, n]);
    check_caps(arena, &shape)?;
    let mut elems = Vec::with_capacity(shape.iter().product());
    let (mut rows, mut cols) = (Vec::with_capacity(m), Vec::with_capacity(n));
    let mut col = vec![0; k1];
    let mut batches = Indices::new(&batch);
    while let Some(bidx) = batches.advance() {
        let a_base = broadcast_offset(bidx, abatch) * m * k1;
        let b_base = broadcast_offset(bidx, bbatch) * k1 * n;
        // Each row of `a` and column of `b` once, as an interned id list:
        // a dot product some earlier matmul folded over the same two
        // lists (a shard of this one, say) is then a lookup.
        rows.clear();
        rows.extend((0..m).map(|i| arena.list_id(&a.elems[a_base + i * k1..][..k1])));
        cols.clear();
        for j in 0..n {
            for (k, e) in col.iter_mut().enumerate() {
                *e = b.elems[b_base + k * n + j];
            }
            cols.push(arena.list_id(&col));
        }
        for &row in &rows {
            for &col in &cols {
                elems.push(arena.dot(row, col));
            }
        }
    }
    Ok(SymTensor::new(shape, elems))
}

/// The vocab row index of an ids element, when it is a known exact
/// non-negative integer (synthetic ones, folded constants).
fn const_index(r: Option<Rat>) -> Option<usize> {
    let r = r?;
    if r.denom() != 1 || r.numer() < 0 {
        return None;
    }
    usize::try_from(r.numer()).ok()
}

fn embedding(arena: &mut Arena, w: &SymTensor, ids: &SymTensor) -> Result<SymTensor, String> {
    if w.shape.len() != 2 {
        return Err("weight must be rank 2".to_owned());
    }
    let (v, h) = (w.shape[0], w.shape[1]);
    let mut shape = ids.shape.clone();
    shape.push(h);
    check_caps(arena, &shape)?;
    // One shared gather handle per weight column: `col_j` stands for the
    // exact (unrounded) selection domain of column j.
    let cols: Vec<ExprId> = (0..h)
        .map(|j| {
            let col: Vec<ExprId> = (0..v).map(|r| w.elems[r * h + j]).collect();
            arena.fun("col", &col)
        })
        .collect();
    let mut elems = Vec::with_capacity(shape.iter().product());
    for &id_e in &ids.elems {
        let known = const_index(arena.constant(id_e));
        for (j, &cj) in cols.iter().enumerate() {
            match known {
                Some(row) => {
                    if row >= v {
                        return Err(format!("index {row} out of vocab {v}"));
                    }
                    elems.push(w.elems[row * h + j]);
                }
                None => elems.push(arena.fun("embed", &[id_e, cj])),
            }
        }
    }
    Ok(SymTensor::new(shape, elems))
}

fn embedding_grad(
    arena: &mut Arena,
    ids: &SymTensor,
    grad: &SymTensor,
    vocab: usize,
) -> Result<SymTensor, String> {
    if grad.shape.len() != ids.shape.len() + 1 {
        return Err("grad rank must be ids rank + 1".to_owned());
    }
    let h = grad.shape[grad.shape.len() - 1];
    if grad.numel() / h.max(1) != ids.numel() {
        return Err("grad batch dims mismatch".to_owned());
    }
    let shape = vec![vocab, h];
    check_caps(arena, &shape)?;
    let zero = arena.rat(Rat::zero());
    let mut out = vec![zero; vocab * h];
    // Row-ascending scatter-add, exactly the runtime order. Opaque ids are
    // modeled with indicator factors: adding the resulting exact zeros for
    // non-matching rows is bitwise free, and the conservative extra
    // rounding sites only loosen the derived bound.
    for (row, &id_e) in ids.elems.iter().enumerate() {
        let known = const_index(arena.constant(id_e));
        if let Some(vr) = known {
            if vr >= vocab {
                return Err(format!("index {vr} out of vocab {vocab}"));
            }
        }
        for j in 0..h {
            let g = grad.elems[row * h + j];
            match known {
                Some(vr) => {
                    out[vr * h + j] = arena.add(out[vr * h + j], g);
                }
                None => {
                    for vr in 0..vocab {
                        let vc = arena.rat(Rat::int(vr as i64));
                        let ind = arena.fun("ind", &[id_e, vc]);
                        let term = arena.mul(ind, g);
                        out[vr * h + j] = arena.add(out[vr * h + j], term);
                    }
                }
            }
        }
    }
    Ok(SymTensor::new(shape, out))
}

fn layer_norm(
    arena: &mut Arena,
    x: &SymTensor,
    w: &SymTensor,
    b: Option<&SymTensor>,
) -> Result<SymTensor, String> {
    if x.shape.is_empty() {
        return Err("rank must be >= 1".to_owned());
    }
    let h = x.shape[x.shape.len() - 1];
    if w.shape != [h] {
        return Err("weight size mismatch".to_owned());
    }
    if let Some(bb) = b {
        if bb.shape != [h] {
            return Err("bias size mismatch".to_owned());
        }
    }
    let mut out = x.clone();
    let rows = x.numel() / h.max(1);
    for r in 0..rows {
        let base = r * h;
        let row = &x.elems[base..base + h];
        let mut sum = arena.rat(Rat::zero());
        for &v in row {
            sum = arena.add(sum, v);
        }
        let mean = arena.scale_div(sum, h as u64);
        let nmean = arena.neg(mean);
        let mut vsum = arena.rat(Rat::zero());
        let mut devs = Vec::with_capacity(h);
        for &v in row {
            let d = arena.add(v, nmean);
            devs.push(d);
            let sq = arena.mul(d, d);
            vsum = arena.add(vsum, sq);
        }
        let var = arena.scale_div(vsum, h as u64);
        let rstd = arena.fun("rstd_eps", &[var]);
        for (j, &d) in devs.iter().enumerate() {
            let normed = arena.mul(d, rstd);
            let scaled = arena.mul(normed, w.elems[j]);
            out.elems[base + j] = match b {
                Some(bb) => arena.add(scaled, bb.elems[j]),
                None => scaled,
            };
        }
    }
    Ok(out)
}

fn rms_norm(arena: &mut Arena, x: &SymTensor, w: &SymTensor) -> Result<SymTensor, String> {
    if x.shape.is_empty() {
        return Err("rank must be >= 1".to_owned());
    }
    let h = x.shape[x.shape.len() - 1];
    if w.shape != [h] {
        return Err("weight size mismatch".to_owned());
    }
    let mut out = x.clone();
    let rows = x.numel() / h.max(1);
    for r in 0..rows {
        let base = r * h;
        let row = &x.elems[base..base + h];
        let mut msum = arena.rat(Rat::zero());
        for &v in row {
            let sq = arena.mul(v, v);
            msum = arena.add(msum, sq);
        }
        let ms = arena.scale_div(msum, h as u64);
        let rrms = arena.fun("rstd_eps", &[ms]);
        for (j, &v) in row.iter().enumerate() {
            let n = arena.mul(v, rrms);
            out.elems[base + j] = arena.mul(n, w.elems[j]);
        }
    }
    Ok(out)
}

fn rope(
    arena: &mut Arena,
    x: &SymTensor,
    cos: &SymTensor,
    sin: &SymTensor,
) -> Result<SymTensor, String> {
    if x.shape.len() < 2 || cos.shape.len() != 2 || cos.shape != sin.shape {
        return Err("bad rope inputs".to_owned());
    }
    let s = x.shape[x.shape.len() - 2];
    let h = x.shape[x.shape.len() - 1];
    if cos.shape != [s, h] || !h.is_multiple_of(2) {
        return Err("cos table mismatch or odd head dim".to_owned());
    }
    let mut out = x.clone();
    let rows = x.numel().checked_div(s * h).unwrap_or(0);
    for r in 0..rows {
        for t in 0..s {
            let base = (r * s + t) * h;
            for j in (0..h).step_by(2) {
                let (x0, x1) = (x.elems[base + j], x.elems[base + j + 1]);
                let (c0, s0) = (cos.elems[t * h + j], sin.elems[t * h + j]);
                let (c1, s1) = (cos.elems[t * h + j + 1], sin.elems[t * h + j + 1]);
                let a = arena.mul(x0, c0);
                let bmul = arena.mul(x1, s0);
                let nb = arena.neg(bmul);
                out.elems[base + j] = arena.add(a, nb);
                let c = arena.mul(x1, c1);
                let d = arena.mul(x0, s1);
                out.elems[base + j + 1] = arena.add(c, d);
            }
        }
    }
    Ok(out)
}

fn attention(
    arena: &mut Arena,
    q: &SymTensor,
    k: &SymTensor,
    v: &SymTensor,
    heads: usize,
    causal: bool,
) -> Result<SymTensor, String> {
    if q.shape.len() < 2 || q.shape != k.shape || q.shape != v.shape {
        return Err("q/k/v shapes must match with rank >= 2".to_owned());
    }
    let h = q.shape[q.shape.len() - 1];
    let s = q.shape[q.shape.len() - 2];
    if heads == 0 || !h.is_multiple_of(heads) {
        return Err("hidden not divisible by heads".to_owned());
    }
    let hd = h / heads;
    // 1/sqrt(hd) is an exact power of two iff hd = 4^j; then the score
    // scaling is exact. Otherwise it is one rounded multiplication,
    // modeled as one opaque rounding atom.
    let pow2_scale: Option<Rat> = if hd.is_power_of_two() && hd.trailing_zeros().is_multiple_of(2) {
        Rat::new(1, 1i128 << (hd.trailing_zeros() / 2))
    } else {
        None
    };
    let hd_c = arena.rat(Rat::int(hd as i64));
    let batches = q.numel().checked_div(s * h).unwrap_or(0);
    let mut out = q.clone();
    for e in &mut out.elems {
        *e = arena.rat(Rat::zero());
    }
    for b in 0..batches {
        for head in 0..heads {
            let col0 = head * hd;
            for i in 0..s {
                let qbase = (b * s + i) * h + col0;
                let limit = if causal { i + 1 } else { s };
                let mut scores = Vec::with_capacity(limit);
                for j in 0..limit {
                    let kbase = (b * s + j) * h + col0;
                    let mut dot = arena.rat(Rat::zero());
                    for c in 0..hd {
                        let p = arena.mul(q.elems[qbase + c], k.elems[kbase + c]);
                        dot = arena.add(dot, p);
                    }
                    let scaled = match pow2_scale {
                        Some(r) => arena.scale_mul(dot, r),
                        None => arena.fun("attn_scale", &[dot, hd_c]),
                    };
                    scores.push(scaled);
                }
                if scores.is_empty() {
                    continue;
                }
                // Masked (-∞) entries never survive max, exp to exact
                // zeros, and add exactly; they are dropped from the model.
                let mut max = scores[0];
                for &sc in &scores[1..] {
                    max = arena.fun("max", &[max, sc]);
                }
                let nmax = arena.neg(max);
                let mut denom = arena.rat(Rat::zero());
                let mut exps = Vec::with_capacity(scores.len());
                for &sc in &scores {
                    let shifted = arena.add(sc, nmax);
                    let ex = arena.fun("exp", &[shifted]);
                    exps.push(ex);
                    denom = arena.add(denom, ex);
                }
                for c in 0..hd {
                    let mut acc = arena.rat(Rat::zero());
                    for (j, &ex) in exps.iter().enumerate() {
                        let vbase = (b * s + j) * h + col0;
                        let wj = arena.fun("div", &[ex, denom]);
                        let term = arena.mul(wj, v.elems[vbase + c]);
                        acc = arena.add(acc, term);
                    }
                    out.elems[qbase + c] = acc;
                }
            }
        }
    }
    Ok(out)
}

fn cross_entropy(
    arena: &mut Arena,
    logits: &SymTensor,
    targets: &SymTensor,
) -> Result<SymTensor, String> {
    if logits.shape.len() != targets.shape.len() + 1 {
        return Err("logits rank must be targets rank + 1".to_owned());
    }
    let v = logits.shape[logits.shape.len() - 1];
    let rows = logits.numel() / v.max(1);
    if rows != targets.numel() {
        return Err("batch dims mismatch".to_owned());
    }
    if rows == 0 {
        return Err("empty cross_entropy (0/0 rows)".to_owned());
    }
    let mut total = arena.rat(Rat::zero());
    for r in 0..rows {
        let base = r * v;
        let row = &logits.elems[base..base + v];
        if row.is_empty() {
            return Err("empty vocab".to_owned());
        }
        let mut max = row[0];
        for &e in &row[1..] {
            max = arena.fun("max", &[max, e]);
        }
        let nmax = arena.neg(max);
        let mut sumexp = arena.rat(Rat::zero());
        for &e in row {
            let shifted = arena.add(e, nmax);
            let ex = arena.fun("exp", &[shifted]);
            sumexp = arena.add(sumexp, ex);
        }
        let ln = arena.fun("ln", &[sumexp]);
        let logsum = arena.add(ln, max);
        let t_e = targets.elems[r];
        let sel = match const_index(arena.constant(t_e)) {
            Some(t) => {
                if t >= v {
                    return Err(format!("target {t} out of vocab {v}"));
                }
                row[t]
            }
            None => {
                let rh = arena.fun("row", row);
                arena.fun("sel", &[t_e, rh])
            }
        };
        let nsel = arena.neg(sel);
        let step = arena.add(logsum, nsel);
        total = arena.add(total, step);
    }
    let result = arena.scale_div(total, rows as u64);
    Ok(SymTensor::scalar(result))
}

/// Evaluates one operator symbolically, mirroring
/// `entangle_runtime::eval_op` bit for bit.
///
/// # Errors
///
/// Returns `Err` on shape violations (the binding/term is invalid) and on
/// model caps (the computation is too large to track — callers classify
/// pessimistically).
pub fn eval_op_sym(arena: &mut Arena, op: &Op, inputs: &[&SymTensor]) -> Result<SymTensor, String> {
    if arena.len() > ARENA_CAP {
        return Err(ARENA_CAP_MSG.to_owned());
    }
    let need = |n: usize| -> Result<(), String> {
        if inputs.len() < n {
            Err(format!("{op}: expected {n} inputs, got {}", inputs.len()))
        } else {
            Ok(())
        }
    };
    match op {
        Op::Add => {
            need(2)?;
            broadcast_binary(arena, inputs[0], inputs[1], |a, x, y| a.add(x, y))
        }
        Op::Sub => {
            need(2)?;
            // fl(a − b) = fl(a + (−b)) bitwise.
            broadcast_binary(arena, inputs[0], inputs[1], |a, x, y| {
                let ny = a.neg(y);
                a.add(x, ny)
            })
        }
        Op::Mul => {
            need(2)?;
            broadcast_binary(arena, inputs[0], inputs[1], |a, x, y| a.mul(x, y))
        }
        Op::Div => {
            need(2)?;
            broadcast_binary(arena, inputs[0], inputs[1], |a, x, y| {
                match a.constant(y) {
                    // a/1 and a/−1 are exact.
                    Some(r) if r == Rat::one() => x,
                    Some(r) if r == Rat::int(-1) => a.neg(x),
                    _ => a.fun("div", &[x, y]),
                }
            })
        }
        Op::Maximum => {
            need(2)?;
            broadcast_binary(arena, inputs[0], inputs[1], |a, x, y| a.fun("max", &[x, y]))
        }
        Op::Neg => {
            need(1)?;
            Ok(unary(arena, inputs[0], |a, e| a.neg(e)))
        }
        Op::Exp => {
            need(1)?;
            Ok(unary(arena, inputs[0], atom1("exp")))
        }
        Op::Sqrt => {
            need(1)?;
            Ok(unary(arena, inputs[0], atom1("sqrt")))
        }
        Op::Rsqrt => {
            need(1)?;
            // The runtime computes literally 1.0 / x.sqrt(): identical to
            // Div(ones, Sqrt(x)), so decompose for cross-op agreement.
            Ok(unary(arena, inputs[0], |a, e| {
                let s = a.fun("sqrt", &[e]);
                let one = a.rat(Rat::one());
                a.fun("div", &[one, s])
            }))
        }
        Op::Tanh => {
            need(1)?;
            Ok(unary(arena, inputs[0], atom1("tanh")))
        }
        Op::Gelu => {
            need(1)?;
            Ok(unary(arena, inputs[0], atom1("gelu")))
        }
        Op::Silu => {
            need(1)?;
            Ok(unary(arena, inputs[0], atom1("silu")))
        }
        Op::Relu => {
            need(1)?;
            Ok(unary(arena, inputs[0], atom1("relu")))
        }
        Op::Sigmoid => {
            need(1)?;
            Ok(unary(arena, inputs[0], atom1("sigmoid")))
        }
        Op::Step => {
            need(1)?;
            Ok(unary(arena, inputs[0], atom1("step")))
        }
        Op::GeluGrad => {
            need(1)?;
            Ok(unary(arena, inputs[0], atom1("gelu_grad")))
        }
        Op::SiluGrad => {
            need(1)?;
            Ok(unary(arena, inputs[0], atom1("silu_grad")))
        }
        Op::OnesLike => {
            need(1)?;
            Ok(ones_tensor(arena, inputs[0].shape.clone()))
        }
        Op::Cos => {
            need(1)?;
            Ok(unary(arena, inputs[0], atom1("cos")))
        }
        Op::Sin => {
            need(1)?;
            Ok(unary(arena, inputs[0], atom1("sin")))
        }
        Op::ScalarMul { numer, denom } => {
            need(1)?;
            let r = Rat::new(i128::from(*numer), i128::from(*denom))
                .ok_or_else(|| "zero-denominator scalar_mul".to_owned())?;
            Ok(unary(arena, inputs[0], |a, e| a.scale_mul(e, r)))
        }
        Op::Identity => {
            need(1)?;
            Ok(inputs[0].clone())
        }
        Op::SumDim { dim, keepdim } => {
            need(1)?;
            reduce_dim(arena, inputs[0], *dim, *keepdim, false)
        }
        Op::MeanDim { dim, keepdim } => {
            need(1)?;
            reduce_dim(arena, inputs[0], *dim, *keepdim, true)
        }
        Op::SumAll => {
            need(1)?;
            let mut acc = arena.rat(Rat::zero());
            for &e in &inputs[0].elems {
                acc = arena.add(acc, e);
            }
            Ok(SymTensor::scalar(acc))
        }
        Op::MeanAll => {
            need(1)?;
            let n = inputs[0].numel().max(1) as u64;
            let mut acc = arena.rat(Rat::zero());
            for &e in &inputs[0].elems {
                acc = arena.add(acc, e);
            }
            let m = arena.scale_div(acc, n);
            Ok(SymTensor::scalar(m))
        }
        Op::Softmax { dim } => {
            need(1)?;
            softmax(arena, inputs[0], *dim)
        }
        Op::Reshape { shape } => {
            need(1)?;
            let dims: Option<Vec<i64>> = shape.iter().map(|d| d.as_const()).collect();
            let dims = dims.ok_or_else(|| "symbolic reshape target".to_owned())?;
            let dims: Vec<usize> = dims.into_iter().map(|d| d as usize).collect();
            let n: usize = dims.iter().product();
            if n != inputs[0].numel() {
                return Err("reshape changes element count".to_owned());
            }
            Ok(SymTensor::new(dims, inputs[0].elems.clone()))
        }
        Op::Transpose { d0, d1 } => {
            need(1)?;
            let mut perm: Vec<usize> = (0..inputs[0].shape.len()).collect();
            if *d0 >= perm.len() || *d1 >= perm.len() {
                return Err("dim out of range".to_owned());
            }
            perm.swap(*d0, *d1);
            Ok(permute(inputs[0], &perm))
        }
        Op::Permute { perm } => {
            need(1)?;
            if perm.len() != inputs[0].shape.len() {
                return Err("perm length mismatch".to_owned());
            }
            Ok(permute(inputs[0], perm))
        }
        Op::Slice { dim, start, end } => {
            need(1)?;
            let s = start.as_const().ok_or("symbolic slice start")? as usize;
            let e = end.as_const().ok_or("symbolic slice end")? as usize;
            slice_t(inputs[0], *dim, s, e)
        }
        Op::Concat { dim } => {
            need(1)?;
            concat(arena, inputs, *dim)
        }
        Op::Pad { dim, before, after } => {
            need(1)?;
            let b = before.as_const().ok_or("symbolic pad before")? as usize;
            let a = after.as_const().ok_or("symbolic pad after")? as usize;
            pad(arena, inputs[0], *dim, b, a)
        }
        Op::Matmul => {
            need(2)?;
            matmul(arena, inputs[0], inputs[1])
        }
        Op::Embedding => {
            need(2)?;
            embedding(arena, inputs[0], inputs[1])
        }
        Op::EmbeddingGrad { vocab } => {
            need(2)?;
            embedding_grad(arena, inputs[0], inputs[1], *vocab)
        }
        Op::LayerNorm => {
            need(3)?;
            layer_norm(arena, inputs[0], inputs[1], Some(inputs[2]))
        }
        Op::RmsNorm => {
            need(2)?;
            rms_norm(arena, inputs[0], inputs[1])
        }
        Op::Rope => {
            need(3)?;
            rope(arena, inputs[0], inputs[1], inputs[2])
        }
        Op::Attention { heads, causal } => {
            need(3)?;
            attention(arena, inputs[0], inputs[1], inputs[2], *heads, *causal)
        }
        Op::MseLoss => {
            need(2)?;
            if inputs[0].shape != inputs[1].shape {
                return Err("pred/target shape mismatch".to_owned());
            }
            let n = inputs[0].numel().max(1) as u64;
            let mut acc = arena.rat(Rat::zero());
            for (&a, &b) in inputs[0].elems.iter().zip(&inputs[1].elems) {
                let nb = arena.neg(b);
                let d = arena.add(a, nb);
                let sq = arena.mul(d, d);
                acc = arena.add(acc, sq);
            }
            let m = arena.scale_div(acc, n);
            Ok(SymTensor::scalar(m))
        }
        Op::CrossEntropy => {
            need(2)?;
            cross_entropy(arena, inputs[0], inputs[1])
        }
        Op::AllReduce => {
            need(1)?;
            let mut acc = inputs[0].clone();
            for v in &inputs[1..] {
                if v.shape != acc.shape {
                    return Err("input shape mismatch".to_owned());
                }
                for (a, &b) in acc.elems.iter_mut().zip(&v.elems) {
                    *a = arena.add(*a, b);
                }
            }
            Ok(acc)
        }
        Op::AllGather { dim } => {
            need(1)?;
            concat(arena, inputs, *dim)
        }
        Op::ReduceScatter { dim, rank, world } => {
            need(1)?;
            let summed = eval_op_sym(arena, &Op::AllReduce, inputs)?;
            let size = *summed
                .shape
                .get(*dim)
                .ok_or_else(|| "dim out of range".to_owned())?;
            if *world == 0 || size % world != 0 {
                return Err("dim not divisible by world size".to_owned());
            }
            let chunk = size / world;
            slice_t(&summed, *dim, rank * chunk, (rank + 1) * chunk)
        }
    }
}

/// Parses the `[2, 3]` suffix of a synthetic ones leaf (`~ones[2, 3]`).
fn parse_ones_shape(rest: &str) -> Option<Vec<usize>> {
    let body = rest
        .strip_prefix("ones")?
        .strip_prefix('[')?
        .strip_suffix(']')?;
    let body = body.trim();
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',')
        .map(|p| p.trim().parse::<usize>().ok())
        .collect()
}

/// The metadata `decode_op` reads off a tensor child.
pub(crate) fn tensor_meta(t: &SymTensor) -> Meta {
    let dims: Vec<i64> = t.shape.iter().map(|&d| d as i64).collect();
    Meta::tensor(Shape::of(&dims), DType::F32)
}

/// The exact-ones tensor a synthetic `~ones[...]` leaf denotes; `None`
/// when `name` is not synthetic.
pub(crate) fn synthetic_leaf(arena: &mut Arena, name: &str) -> Option<Result<SymTensor, String>> {
    let rest = name.strip_prefix(SYNTHETIC_LEAF_PREFIX)?;
    Some(
        parse_ones_shape(rest)
            .map(|dims| ones_tensor(arena, dims))
            .ok_or_else(|| format!("unparseable synthetic leaf {name:?}")),
    )
}

/// One operator application, shared by the term and the pattern evaluator:
/// decodes `sym` against its children's metadata, evaluates it over the
/// leading tensor children, and describes the result for its own parent.
pub(crate) fn apply_op(
    arena: &mut Arena,
    sym: &str,
    metas: &[Meta],
    tensors: &[Option<&SymTensor>],
) -> Result<(Meta, SymTensor), String> {
    let (op, tensor_count) = decode_op(sym, metas).ok_or_else(|| format!("cannot decode {sym}"))?;
    let inputs: Vec<&SymTensor> = tensors
        .get(..tensor_count)
        .ok_or_else(|| format!("{sym}: missing tensor children"))?
        .iter()
        .map(|t| t.ok_or_else(|| "tensor child has no value".to_owned()))
        .collect::<Result<_, _>>()?;
    let t = eval_op_sym(arena, &op, &inputs)?;
    Ok((tensor_meta(&t), t))
}

/// Resolves a leaf tensor name to its symbolic value.
pub type Leaves<'a> = dyn FnMut(&mut Arena, &str) -> Result<Rc<SymTensor>, String> + 'a;

/// What one evaluated subterm is to its parents: the metadata `decode_op`
/// reads, and the value when it is a tensor.
type Slot = Result<(Meta, Option<Rc<SymTensor>>), String>;

/// The hash-consed subterm table of one analysis: every distinct ground
/// subterm (an [`ENode`] over table slots) is evaluated once, success or
/// error, however many proof-step terms repeat it. Sound to share because
/// re-evaluating a subterm in the same arena only ever re-derives the ids
/// it produced the first time.
#[derive(Default)]
pub struct TermTable {
    ids: FxHashMap<ENode, Id>,
    slots: Vec<Slot>,
    hits: usize,
}

impl TermTable {
    /// Distinct subterms evaluated so far.
    pub fn subterms(&self) -> usize {
        self.slots.len()
    }

    /// Subterm occurrences answered from the table.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Evaluates a *ground* s-expression term (no pattern variables)
    /// bottom-up into a symbolic tensor — the static analogue of the
    /// runtime's ground evaluator. Leaf tensors are resolved by `leaves`;
    /// synthetic `~ones[...]` leaves become exact-ones tensors.
    ///
    /// # Errors
    ///
    /// Returns the error of the first subterm, in postorder, that has one:
    /// unknown leaves, undecodable operators, shape violations, and model
    /// caps. Callers treat this as "outside the model".
    pub fn eval(
        &mut self,
        arena: &mut Arena,
        expr: &RecExpr,
        leaves: &mut Leaves,
    ) -> Result<Rc<SymTensor>, String> {
        let mut slot_of: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.nodes() {
            let key = node.map_children(|c| slot_of[c.index()]);
            // Past the cap every operator application is outside the
            // model, whether or not the table has seen it.
            if !key.is_leaf() && arena.len() > ARENA_CAP {
                return Err(ARENA_CAP_MSG.to_owned());
            }
            let id = match self.ids.get(&key) {
                Some(&id) => {
                    self.hits += 1;
                    id
                }
                None => {
                    let slot = self.eval_node(arena, &key, leaves);
                    let id = Id::from_index(self.slots.len());
                    self.slots.push(slot);
                    self.ids.insert(key, id);
                    id
                }
            };
            if let Err(e) = &self.slots[id.index()] {
                return Err(e.clone());
            }
            slot_of.push(id);
        }
        let root = slot_of
            .last()
            .and_then(|id| self.slots[id.index()].as_ref().ok());
        root.and_then(|(_, v)| v.clone())
            .ok_or_else(|| "root has no value".to_owned())
    }

    /// Evaluates one node whose children are slots of this table (all of
    /// them `Ok`: [`TermTable::eval`] stops at the first error).
    fn eval_node(&self, arena: &mut Arena, node: &ENode, leaves: &mut Leaves) -> Slot {
        let tensor = |t: Rc<SymTensor>| (tensor_meta(&t), Some(t));
        match node {
            ENode::Int(i) => Ok((Meta::scalar((*i).into()), None)),
            ENode::Sym(e) => Ok((Meta::scalar(e.clone()), None)),
            ENode::Op(sym, ch) if ch.is_empty() => {
                let name = sym.as_str();
                match synthetic_leaf(arena, name) {
                    Some(ones) => ones.map(|t| tensor(Rc::new(t))),
                    None => leaves(arena, name).map(tensor),
                }
            }
            ENode::Op(sym, ch) => {
                let child = |c: &Id| {
                    self.slots[c.index()]
                        .as_ref()
                        .expect("children evaluated without error")
                };
                let metas: Vec<Meta> = ch.iter().map(|c| child(c).0.clone()).collect();
                let tensors: Vec<Option<&SymTensor>> =
                    ch.iter().map(|c| child(c).1.as_deref()).collect();
                apply_op(arena, sym.as_str(), &metas, &tensors).map(|(m, t)| (m, Some(Rc::new(t))))
            }
        }
    }
}

/// [`TermTable::eval`] of a single term over a fresh table.
///
/// # Errors
///
/// As [`TermTable::eval`].
pub fn eval_term(
    arena: &mut Arena,
    expr: &RecExpr,
    leaves: &mut dyn FnMut(&mut Arena, &str) -> Result<SymTensor, String>,
) -> Result<SymTensor, String> {
    TermTable::default()
        .eval(arena, expr, &mut |a, n| leaves(a, n).map(Rc::new))
        .map(Rc::unwrap_or_clone)
}
