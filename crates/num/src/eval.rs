//! `entangle_runtime`'s operator kernels at the symbolic algebra.
//!
//! The runtime writes the operator semantics once, generic over the
//! element algebra ([`entangle_runtime::kernels`]), and interprets them at
//! `f64`. [`eval_op_sym`] runs the same function over [`Arena`] nodes, so
//! the node an element evaluates to stands for the very sequence of IEEE
//! operations, in the very order, that the oracle performs for it — which
//! is what the bit-exact classification and every derived rounding-site
//! count `k` rest on. That correspondence is a property of the build:
//! there is no second transcription of an operator to keep in step.
//!
//! What differs between the two sides is confined to `impl Algebra for
//! Arena` below and the canonicalisations of [`Arena`]'s own methods, each
//! a bitwise IEEE identity. The rest of this module is what the kernels do
//! not know about: leaves, whole graphs and certificate terms.

use std::collections::HashMap;
use std::rc::Rc;

use entangle_egraph::hashing::FxHashMap;
use entangle_egraph::{ENode, Id, RecExpr};
use entangle_ir::{DType, Graph, Op, Shape};
use entangle_lemmas::{decode_op, parse_ones_leaf, Meta};
use entangle_runtime::kernels::{eval_op_in, Algebra, Atom, View};
use entangle_runtime::EvalError;

use crate::sym::{Arena, ExprId, ListId, Rat, SymTensor, ARENA_CAP};

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
/// operator the nodes the algebra calls of its kernel
/// (`entangle_runtime::kernels`) intern, from the declared shapes
/// (symbolic or oversized tensors count as the element cap). Only ever a
/// **capacity hint**, in nodes as stored — not the operations
/// [`ARENA_CAP`] counts ([`Arena::modelled`]), and not a bound on those
/// either: hash-consing merges replicated work, so the true count is lower
/// (2–5 % on the zoo, 90 % on the `gpt_tp8` benchmark input), and an
/// estimate in the cap's place could leave the model when the arena never
/// would.
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
            // One `Dot` per output element.
            Op::Matmul => out,
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
    // into the same arena next, and where a step reassociates a matmul its
    // products are interned as the `Dot`s unfold (14–54 % on top on the zoo:
    // past the reservation the table doubles, once).
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

/// The name an elementary function is interned under. Names in
/// [`crate::sym`]'s exact set return one of their (already rounded)
/// arguments or an exact integer; every other function rounds.
fn atom_name(atom: Atom) -> &'static str {
    match atom {
        Atom::Div => "div",
        Atom::Max => "max",
        Atom::Exp => "exp",
        Atom::Ln => "ln",
        Atom::Sqrt => "sqrt",
        Atom::Tanh => "tanh",
        Atom::Gelu => "gelu",
        Atom::Silu => "silu",
        Atom::Relu => "relu",
        Atom::Sigmoid => "sigmoid",
        Atom::Step => "step",
        Atom::GeluGrad => "gelu_grad",
        Atom::SiluGrad => "silu_grad",
        Atom::Cos => "cos",
        Atom::Sin => "sin",
        Atom::RstdEps => "rstd_eps",
        Atom::AttnScale => "attn_scale",
        Atom::Col => "col",
        Atom::Row => "row",
        Atom::Embed => "embed",
        Atom::Sel => "sel",
        Atom::Ind => "ind",
    }
}

/// The symbolic algebra: every method interns the node that stands for the
/// f64 the runtime computes at the same call. The departures from a plain
/// transcription are the canonicalisations documented on the inherent
/// methods (each a bitwise IEEE identity), and the three below.
impl Algebra for Arena {
    type Elem = ExprId;

    fn int(&mut self, v: i64) -> ExprId {
        self.rat(Rat::int(v))
    }

    fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        Arena::add(self, a, b)
    }

    fn neg(&mut self, a: ExprId) -> ExprId {
        Arena::neg(self, a)
    }

    fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        Arena::mul(self, a, b)
    }

    fn scale_mul(&mut self, x: ExprId, numer: i64, denom: i64) -> ExprId {
        let r = Rat::new(i128::from(numer), i128::from(denom))
            .expect("the kernels pass a non-zero denominator");
        Arena::scale_mul(self, x, r)
    }

    fn scale_div(&mut self, x: ExprId, n: u64) -> ExprId {
        Arena::scale_div(self, x, n)
    }

    fn fun(&mut self, atom: Atom, args: &[ExprId]) -> ExprId {
        if atom == Atom::Div {
            // a/1 and a/−1 are exact.
            match self.constant(args[1]) {
                Some(r) if r == Rat::one() => return args[0],
                Some(r) if r == Rat::int(-1) => return Arena::neg(self, args[0]),
                _ => {}
            }
        }
        Arena::fun(self, atom_name(atom), args)
    }

    /// Each row and column once, as an interned id list; each output
    /// element one [`Arena::dot`] of two of them.
    fn dot(
        &mut self,
        rows: &[ExprId],
        cols: &[ExprId],
        (m, k, n): (usize, usize, usize),
        out: &mut Vec<ExprId>,
    ) {
        let rows: Vec<ListId> = (0..m).map(|i| self.list_id(&rows[i * k..][..k])).collect();
        let cols: Vec<ListId> = (0..n).map(|j| self.list_id(&cols[j * k..][..k])).collect();
        for &row in &rows {
            out.extend(cols.iter().map(|&col| Arena::dot(self, row, col)));
        }
    }

    /// A row index is readable when the element is a known exact
    /// non-negative integer (synthetic ones, folded constants); the ids of
    /// a graph input are leaves, and take the opaque path.
    fn index(&self, e: ExprId) -> Option<usize> {
        let r = self.constant(e)?;
        if r.denom() != 1 || r.numer() < 0 {
            return None;
        }
        usize::try_from(r.numer()).ok()
    }

    /// The model's caps: larger computations leave it (pessimistic).
    fn admit(&self, shape: &[usize]) -> Result<(), String> {
        let n: usize = shape.iter().product();
        if n > NUMEL_CAP {
            return Err(format!("tensor exceeds element cap ({n})"));
        }
        if self.modelled() > ARENA_CAP {
            return Err(ARENA_CAP_MSG.to_owned());
        }
        Ok(())
    }
}

/// Evaluates one operator symbolically: `entangle_runtime`'s operator
/// kernels, the ones its f64 interpreter runs, at the [`Arena`] algebra.
/// The node an element evaluates to therefore stands for exactly the
/// sequence of float operations the runtime performs for it.
///
/// # Errors
///
/// Returns `Err` on shape violations (the binding/term is invalid) and on
/// model caps (the computation is too large to track — callers classify
/// pessimistically).
pub fn eval_op_sym(arena: &mut Arena, op: &Op, inputs: &[&SymTensor]) -> Result<SymTensor, String> {
    if arena.modelled() > ARENA_CAP {
        return Err(ARENA_CAP_MSG.to_owned());
    }
    let views: Vec<View<'_, ExprId>> = inputs
        .iter()
        .map(|t| View {
            shape: &t.shape,
            data: &t.elems,
        })
        .collect();
    match eval_op_in(arena, op, &views) {
        Ok(t) => Ok(SymTensor::new(t.shape, t.data)),
        Err(EvalError::Shape(m) | EvalError::Symbolic(m) | EvalError::MissingInput(m)) => Err(m),
    }
}

/// The metadata `decode_op` reads off a tensor child.
pub(crate) fn tensor_meta(t: &SymTensor) -> Meta {
    let dims: Vec<i64> = t.shape.iter().map(|&d| d as i64).collect();
    Meta::tensor(Shape::of(&dims), DType::F32)
}

/// The exact-ones tensor a synthetic `~ones[...]` leaf denotes; `None`
/// when `name` is not synthetic.
pub(crate) fn synthetic_leaf(arena: &mut Arena, name: &str) -> Result<Option<SymTensor>, String> {
    let dims = parse_ones_leaf(name).map_err(|_| format!("unparseable synthetic leaf {name:?}"))?;
    Ok(dims.map(|dims| ones_tensor(arena, dims)))
}

/// One operator application, shared by the term and the pattern evaluator:
/// decodes `sym` against its children's metadata, evaluates it over the
/// leading tensor children, and describes the result for its own parent.
pub(crate) fn apply_op(
    arena: &mut Arena,
    sym: &str,
    metas: &[&Meta],
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
            if !key.is_leaf() && arena.modelled() > ARENA_CAP {
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
                match synthetic_leaf(arena, name)? {
                    Some(ones) => Ok(tensor(Rc::new(ones))),
                    None => leaves(arena, name).map(tensor),
                }
            }
            ENode::Op(sym, ch) => {
                let child = |c: &Id| {
                    self.slots[c.index()]
                        .as_ref()
                        .expect("children evaluated without error")
                };
                let metas: Vec<&Meta> = ch.iter().map(|c| &child(c).0).collect();
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
