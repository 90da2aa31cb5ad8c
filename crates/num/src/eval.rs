//! `entangle_runtime`'s operator kernels at the symbolic algebra.
//!
//! The runtime writes the operator semantics once, generic over the
//! element algebra ([`entangle_runtime::kernels`]), and interprets them at
//! `f64`. `impl Algebra for Arena` below runs the same functions over
//! [`Arena`] nodes, so the node an element evaluates to stands for the
//! very sequence of IEEE operations, in the very order, that the oracle
//! performs for it — which is what the bit-exact classification and every
//! derived rounding-site count `k` rest on. That correspondence is a
//! property of the build: there is no second transcription of an operator
//! to keep in step, nor of the term around it — a term reaches either
//! algebra through [`entangle_lint::ground_step`].
//!
//! What differs between the two sides is confined to `impl Algebra for
//! Arena` below and the canonicalisations of [`Arena`]'s own methods, each
//! a bitwise IEEE identity. The rest of this module is what the kernels do
//! not know about: the leaves of a term and its subterm memo
//! ([`TermTable`], the one evaluator of a term at the arena),
//! `Classifier`, through which the certificate walk and the registry sweep
//! both take a lemma instance to its verdict, and `Hashes`, a third
//! algebra whose elements are structural hashes, which settles a bit-exact
//! certificate rule instance without the arena.

use std::rc::Rc;
use std::time::{Duration, Instant};

use entangle_egraph::hashing::FxHashMap;
use entangle_egraph::{ENode, Id, RecExpr, Symbol};
use entangle_ir::Shape;
use entangle_lemmas::Meta;
use entangle_lint::{eval_ground_in, ground_step};
use entangle_runtime::kernels::{Algebra, Atom, Tensor};

use crate::sym::{classify_tensors, mix, Arena, ExprId, ListId, Rat, Verdict, ARENA_CAP};

/// Per-tensor element cap: larger tensors leave the model (pessimistic).
pub const NUMEL_CAP: usize = 1 << 16;

/// A fresh leaf tensor: one [`crate::sym::Node::Leaf`] per element.
pub fn leaf_tensor(
    arena: &mut Arena,
    name: &str,
    shape: Vec<usize>,
) -> Result<Tensor<ExprId>, String> {
    let n: usize = shape.iter().product();
    if n > NUMEL_CAP {
        return Err(format!("leaf {name} exceeds element cap ({n})"));
    }
    let nid = arena.name(name);
    let data = (0..n).map(|i| arena.leaf(nid, i as u64)).collect();
    Ok(Tensor { shape, data })
}

/// The dims of a fully constant shape.
pub(crate) fn const_dims(shape: &Shape) -> Option<Vec<usize>> {
    shape
        .dims()
        .iter()
        .map(|d| d.as_const().and_then(|c| usize::try_from(c).ok()))
        .collect()
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

/// Resolves a leaf tensor to its symbolic value.
pub type Leaves<'a> = dyn FnMut(&mut Arena, Symbol) -> Result<Tensor<ExprId>, String> + 'a;

/// What one evaluated subterm is to its parents (an
/// [`entangle_lint::Slot`], the tensor shared), or why it has no value.
type Slot = Result<(Meta, Option<Rc<Tensor<ExprId>>>), String>;

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
    /// bottom-up into a symbolic tensor — the runtime's ground evaluator
    /// at the arena, each distinct subterm once. Leaf tensors are resolved
    /// by `leaves`; synthetic `~ones[...]` leaves become exact-ones tensors.
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
    ) -> Result<Rc<Tensor<ExprId>>, String> {
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
    /// them `Ok`: [`TermTable::eval`] stops at the first error) through
    /// [`ground_step`] at the arena.
    fn eval_node(&self, arena: &mut Arena, node: &ENode, leaves: &mut Leaves) -> Slot {
        let child = |c: Id| {
            let (meta, t) = self.slots[c.index()]
                .as_ref()
                .expect("children evaluated without error");
            (meta, t.as_deref())
        };
        let (meta, t) = ground_step(arena, node, child, leaves)?;
        Ok((meta, t.map(Rc::new)))
    }
}

/// Evaluates and classifies lemma instances over opaque atoms: the one path
/// by which a certificate's rule step and a palette binding of the registry
/// sweep get their verdict. One per analysis unit (a certificate, one
/// lemma's sweep): the arena, the subterm table and the atoms grow across
/// the instances it classifies.
#[derive(Default)]
pub(crate) struct Classifier {
    pub(crate) arena: Arena,
    pub(crate) table: TermTable,
    /// The shape of each atom, by name.
    atom_dims: FxHashMap<String, Vec<usize>>,
    /// Time evaluating terms: the arena's, and what a caller adds for its
    /// own passes in front of [`Classifier::classify`].
    pub(crate) eval_time: Duration,
    /// Time classifying evaluated pairs.
    pub(crate) classify_time: Duration,
}

impl Classifier {
    /// The atom `prefix` + position `at` + `dims` (`?0[4, 4]`): an opaque
    /// tensor of that shape. The shape is part of the name, so one name is
    /// one tensor however many instances use it.
    pub(crate) fn atom(&mut self, prefix: char, at: usize, dims: Vec<usize>) -> Symbol {
        let name = format!("{prefix}{at}{dims:?}");
        let sym = Symbol::new(&name);
        self.atom_dims.entry(name).or_insert(dims);
        sym
    }

    /// The shape of the atom `name`, if it is one.
    pub(crate) fn atom_dims(&self, name: &str) -> Option<Vec<usize>> {
        self.atom_dims.get(name).cloned()
    }

    /// Evaluates two terms over atoms and synthetic leaves, then classifies
    /// the pair.
    ///
    /// # Errors
    ///
    /// As [`TermTable::eval`] on either term: the instance is outside the
    /// model.
    pub(crate) fn classify(
        &mut self,
        before: &RecExpr,
        after: &RecExpr,
    ) -> Result<Verdict, String> {
        let start = Instant::now();
        let atom_dims = &self.atom_dims;
        let leaves = &mut |arena: &mut Arena, sym: Symbol| {
            let name = sym.as_str();
            let dims = atom_dims
                .get(name)
                .ok_or_else(|| format!("unknown leaf {name:?}"))?;
            leaf_tensor(arena, name, dims.clone())
        };
        let terms = self
            .table
            .eval(&mut self.arena, before, leaves)
            .and_then(|a| Ok((a, self.table.eval(&mut self.arena, after, leaves)?)));
        let evaluated = Instant::now();
        self.eval_time += evaluated - start;
        let (a, b) = terms?;
        let verdict = classify_tensors(&mut self.arena, &a, &b);
        self.classify_time += evaluated.elapsed();
        Ok(verdict)
    }
}

/// A 128-bit structural hash of one element's computation: what
/// [`Hashes`] computes in place of an [`Arena`] node.
pub(crate) type ElemHash = (u64, u64);

/// The structural-hash algebra: every element is a 128-bit hash of the
/// operations that produced it, built without a table. It keeps the
/// structure the [`Arena`] interns — an `Add` or `Mul` has its children
/// sorted, a matmul element is one `Dot` of its row and column with the
/// two lists sorted, a fold of fewer than two pairs is written out — and
/// none of the arena's other canonicalisations (constant folding, `x + 0`,
/// `x + x`, unit scales, division by `±1`, readable constant ids), so two
/// elements with equal hashes intern to one arena node, and so do the
/// elements of two tensors whose hashes agree everywhere: the pair is
/// bit-exact, exactly as the arena would classify it. Unequal hashes
/// decide nothing; the arena classifies those pairs.
#[derive(Default)]
pub(crate) struct Hashes;

const H_INT: u64 = 1;
const H_LEAF: u64 = 2;
const H_ADD: u64 = 3;
const H_NEG: u64 = 4;
const H_MUL: u64 = 5;
const H_SCALE_MUL: u64 = 6;
const H_SCALE_DIV: u64 = 7;
const H_FUN: u64 = 8;
const H_LIST: u64 = 9;
const H_DOT: u64 = 10;
const H_SYM: u64 = 11;
const H_TERM: u64 = 12;

/// A node: its tag folded with its children in order.
fn elem(tag: u64, children: &[ElemHash]) -> ElemHash {
    children.iter().fold((tag, !tag), |h, &c| mix(h, c))
}

/// An ordered list of elements, hashed as one handle.
fn list(ids: &[ElemHash]) -> ElemHash {
    elem(H_LIST, ids)
}

/// A word as a value [`mix`] folds in.
fn word(w: u64) -> ElemHash {
    (w, w.rotate_left(32) ^ 0x1d8e_4e27_c47d_124f)
}

impl Algebra for Hashes {
    type Elem = ElemHash;

    fn int(&mut self, v: i64) -> ElemHash {
        elem(H_INT, &[word(v as u64)])
    }

    fn add(&mut self, a: ElemHash, b: ElemHash) -> ElemHash {
        elem(H_ADD, &[a.min(b), a.max(b)])
    }

    fn neg(&mut self, a: ElemHash) -> ElemHash {
        elem(H_NEG, &[a])
    }

    fn mul(&mut self, a: ElemHash, b: ElemHash) -> ElemHash {
        elem(H_MUL, &[a.min(b), a.max(b)])
    }

    fn scale_mul(&mut self, x: ElemHash, numer: i64, denom: i64) -> ElemHash {
        let r = Rat::new(i128::from(numer), i128::from(denom))
            .expect("the kernels pass a non-zero denominator");
        let (n, d) = (r.numer(), r.denom());
        let ratio = |v: i128| (v as u64, (v >> 64) as u64);
        elem(H_SCALE_MUL, &[x, ratio(n), ratio(d)])
    }

    fn scale_div(&mut self, x: ElemHash, n: u64) -> ElemHash {
        elem(H_SCALE_DIV, &[x, word(n)])
    }

    fn fun(&mut self, atom: Atom, args: &[ElemHash]) -> ElemHash {
        mix(elem(H_FUN, args), word(atom as u64))
    }

    fn dot(
        &mut self,
        rows: &[ElemHash],
        cols: &[ElemHash],
        (m, k, n): (usize, usize, usize),
        out: &mut Vec<ElemHash>,
    ) {
        if k < 2 {
            // The arena folds these into their multiply-adds.
            for i in 0..m {
                for j in 0..n {
                    let mut acc = self.int(0);
                    for p in 0..k {
                        let prod = self.mul(rows[i * k + p], cols[j * k + p]);
                        acc = self.add(acc, prod);
                    }
                    out.push(acc);
                }
            }
            return;
        }
        let rows: Vec<ElemHash> = (0..m).map(|i| list(&rows[i * k..][..k])).collect();
        let cols: Vec<ElemHash> = (0..n).map(|j| list(&cols[j * k..][..k])).collect();
        for &row in &rows {
            out.extend(
                cols.iter()
                    .map(|&col| elem(H_DOT, &[row.min(col), row.max(col)])),
            );
        }
    }

    /// No id is readable: both sides of a comparison take the opaque
    /// path, where the arena might read a constant id.
    fn index(&self, _: ElemHash) -> Option<usize> {
        None
    }

    fn admit(&self, shape: &[usize]) -> Result<(), String> {
        let n: usize = shape.iter().product();
        if n > NUMEL_CAP {
            return Err(format!("tensor exceeds element cap ({n})"));
        }
        Ok(())
    }
}

/// The structural hash of one term node, `child` giving each child's:
/// equal subterms, equal hashes.
pub(crate) fn node_hash(node: &ENode, child: impl Fn(Id) -> ElemHash) -> ElemHash {
    match node {
        ENode::Int(i) => elem(H_INT, &[word(*i as u64)]),
        ENode::Sym(e) => {
            let mut h = entangle_egraph::hashing::FxHasher::default();
            std::hash::Hash::hash(e, &mut h);
            elem(H_SYM, &[word(std::hash::Hasher::finish(&h))])
        }
        ENode::Op(sym, ch) => op_hash(*sym, ch.iter().map(|&c| child(c))),
    }
}

/// The structural hash of the application of `sym` to children of these
/// hashes (a leaf when there are none).
pub(crate) fn op_hash(sym: Symbol, children: impl Iterator<Item = ElemHash>) -> ElemHash {
    children.fold(elem(H_TERM, &[symbol_word(sym)]), mix)
}

/// A symbol as a value [`mix`] folds in: its interned string's address,
/// which one name and only that name has for the life of the process.
fn symbol_word(sym: Symbol) -> ElemHash {
    let s = sym.as_str();
    (s.as_ptr() as u64, s.len() as u64)
}

/// Evaluates a ground term to its element hashes, `dims` giving each
/// non-synthetic leaf's shape (the element `i` of the leaf `name` hashes
/// `name`'s interned address and `i`); `None` where the hash algebra
/// cannot (an unknown leaf, a cap, a shape error), which leaves the pair
/// to the arena and its diagnostics.
pub(crate) fn hash_term(
    expr: &RecExpr,
    dims: &dyn Fn(&str) -> Option<Vec<usize>>,
) -> Option<Tensor<ElemHash>> {
    eval_ground_in(&mut Hashes, expr, |alg, sym| {
        let shape = dims(sym.as_str()).ok_or_else(String::new)?;
        alg.admit(&shape)?;
        let n = shape.iter().product::<usize>() as u64;
        let name = symbol_word(sym);
        let data = (0..n).map(|i| elem(H_LEAF, &[name, word(i)])).collect();
        Ok(Tensor { shape, data })
    })
    .ok()
}
