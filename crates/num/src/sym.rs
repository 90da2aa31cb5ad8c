//! The abstract domain: hash-consed symbolic f64 expressions with exact
//! rational coefficients.
//!
//! Every tensor element the runtime would compute is mirrored by a node in
//! an [`Arena`]. The node language is chosen so that *node identity implies
//! bitwise-equal runtime values*: two elements canonicalize to the same
//! [`ExprId`] exactly when the interpreter in `entangle-runtime` produces
//! the same f64 for both (under the canonicalization laws documented on
//! [`Arena::add`] etc., each of which is justified by an IEEE-754
//! identity). On top of the exact layer sits a *polynomial normal form*
//! over opaque atoms: two elements with equal normal forms compute the same
//! real number, and differ at most by reassociation of rounded operations.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use entangle_egraph::hashing::{FxHashMap, FxHasher};

/// A reduced rational with `i128` components; `den > 0`.
///
/// All arithmetic is checked: overflow returns `None`, which callers
/// propagate as "outside the model" (pessimistic [`NumClass::Unknown`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rat {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.abs()
}

impl Rat {
    /// A reduced rational; `None` when the denominator is zero (degenerate
    /// width-0 mean, forged scale) or reduction overflows.
    pub fn new(num: i128, den: i128) -> Option<Rat> {
        if den == 0 {
            return None;
        }
        if num == 0 {
            return Some(Rat { num: 0, den: 1 });
        }
        let g = gcd(num, den);
        let sign = if den < 0 { -1 } else { 1 };
        Some(Rat {
            num: num.checked_div(g)?.checked_mul(sign)?,
            den: den.checked_div(g)?.checked_mul(sign)?,
        })
    }

    /// The integer `v`.
    pub fn int(v: i64) -> Rat {
        Rat {
            num: i128::from(v),
            den: 1,
        }
    }

    /// Zero.
    pub fn zero() -> Rat {
        Rat { num: 0, den: 1 }
    }

    /// One.
    pub fn one() -> Rat {
        Rat { num: 1, den: 1 }
    }

    /// Numerator (reduced).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (reduced, positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Is this exactly zero?
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Checked addition.
    pub fn add(&self, o: &Rat) -> Option<Rat> {
        let n = self
            .num
            .checked_mul(o.den)?
            .checked_add(o.num.checked_mul(self.den)?)?;
        Rat::new(n, self.den.checked_mul(o.den)?)
    }

    /// Checked multiplication.
    pub fn mul(&self, o: &Rat) -> Option<Rat> {
        Rat::new(self.num.checked_mul(o.num)?, self.den.checked_mul(o.den)?)
    }

    /// Negation.
    pub fn neg(&self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }

    /// Checked reciprocal (`None` for zero).
    pub fn recip(&self) -> Option<Rat> {
        Rat::new(self.den, self.num)
    }

    /// `true` when multiplying an f64 by this constant is exact: the
    /// reduced ratio is `±2^j` for some integer `j` (so the constant is
    /// representable and the product only shifts the exponent).
    pub fn is_pow2(&self) -> bool {
        !self.is_zero()
            && self.num.unsigned_abs().is_power_of_two()
            && self.den.unsigned_abs().is_power_of_two()
            && (self.num.abs() == 1 || self.den == 1)
    }

    /// `true` when this rational is exactly representable as an f64
    /// (denominator a power of two, magnitude within 2^53): adding or
    /// folding such constants symbolically is bit-faithful.
    pub fn is_representable(&self) -> bool {
        self.den.unsigned_abs().is_power_of_two() && self.num.unsigned_abs() < (1u128 << 53)
    }
}

/// Interned leaf-tensor name.
pub type NameId = u32;

/// Index of a node in the [`Arena`].
pub type ExprId = u32;

/// Funs with names in this set are *exact*: selections and comparisons
/// that return one of their (already rounded) inputs or an exact integer,
/// never a freshly rounded result. Everything else rounds.
const EXACT_FUNS: &[&str] = &["max", "relu", "step", "embed", "col", "ind", "sel", "row"];

/// One symbolic f64: what the runtime computes for one tensor element.
///
/// `Fun` is an uninterpreted (but deterministic) function application —
/// nonlinearities, divisions, gathers. `ScaleMul(x, r)` is multiplication
/// by the compile-time constant `fl(r)`; `ScaleDiv(x, n)` is division by
/// the runtime integer `n` (the two round differently, so they are
/// distinct constructors).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// An exact rational constant (zeros, ones, integer ids).
    Rat(Rat),
    /// Element `flat` of the named input tensor.
    Leaf(NameId, u64),
    /// Rounded sum `fl(a + b)`; children sorted (IEEE + is commutative).
    Add(ExprId, ExprId),
    /// Exact sign flip.
    Neg(ExprId),
    /// Rounded product `fl(a · b)`; children sorted.
    Mul(ExprId, ExprId),
    /// Multiplication by the rounded constant `fl(r)`.
    ScaleMul(ExprId, Rat),
    /// Division by the exact runtime integer `n > 0`.
    ScaleDiv(ExprId, u64),
    /// Deterministic opaque function of rounded arguments.
    Fun(&'static str, Vec<ExprId>),
}

/// Classification of one element pair (and, by max, a tensor pair).
///
/// The order is the join lattice: composing classes takes the maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NumClass {
    /// Same rounded value, bit for bit.
    BitExact,
    /// Same real value; rounding sites differ (reassociation).
    Reassoc,
    /// Outside the model: no claim either way (pessimistic).
    Unknown,
    /// Provably different real values.
    ValueChanging,
}

/// A classification plus the statically derived rounding-site count `k`
/// feeding the `(1+ε)^k` relative bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The class.
    pub class: NumClass,
    /// Differing rounding sites (0 unless `class == Reassoc`).
    pub k: u64,
}

impl Verdict {
    /// Bit-exact, `k = 0`.
    pub fn exact() -> Verdict {
        Verdict {
            class: NumClass::BitExact,
            k: 0,
        }
    }

    /// Pessimistic unknown.
    pub fn unknown() -> Verdict {
        Verdict {
            class: NumClass::Unknown,
            k: 0,
        }
    }

    /// Sequential composition: classes join (max), site counts add.
    ///
    /// Soundness: if `|a − b| ≤ bound(k₁)·‖·‖` and `|b − c| ≤ bound(k₂)·‖·‖`
    /// then `|a − c| ≤ bound(k₁ + k₂)·‖·‖` because `(1+ε)^k − 1` is
    /// superadditive in `k`.
    pub fn compose(&self, o: &Verdict) -> Verdict {
        Verdict {
            class: self.class.max(o.class),
            k: self.k.saturating_add(o.k),
        }
    }

    /// Join over alternatives (worst case over bindings): class max,
    /// site-count max.
    pub fn join(&self, o: &Verdict) -> Verdict {
        Verdict {
            class: self.class.max(o.class),
            k: self.k.max(o.k),
        }
    }

    /// Meet over alternatives (best case over bindings): the verdict with
    /// the smaller class wins; ties keep the smaller site count.
    pub fn meet(&self, o: &Verdict) -> Verdict {
        match self.class.cmp(&o.class) {
            std::cmp::Ordering::Less => *self,
            std::cmp::Ordering::Greater => *o,
            std::cmp::Ordering::Equal => Verdict {
                class: self.class,
                k: self.k.min(o.k),
            },
        }
    }

    /// The derived comparison policy, `None` when no sound tolerance
    /// exists (value-changing or unclassifiable computations must not be
    /// "compared within epsilon" at all).
    pub fn tolerance(&self) -> Option<entangle_runtime::Tolerance> {
        match self.class {
            NumClass::BitExact => Some(entangle_runtime::Tolerance::Exact),
            NumClass::Reassoc => Some(entangle_runtime::Tolerance::Relative(
                entangle_runtime::reassoc_rel_bound(self.k),
            )),
            NumClass::Unknown | NumClass::ValueChanging => None,
        }
    }
}

/// A monomial: sorted atom ids with multiplicity.
type Mono = Vec<ExprId>;

/// Polynomial normal form over opaque atoms (leaves and `Fun`s), with
/// exact rational coefficients. Equal polynomials ⇒ equal real values.
type Poly = BTreeMap<Mono, Rat>;

/// Hard cap on distinct monomials in the lazy difference polynomial;
/// past it the comparison bails out as [`NumClass::Unknown`].
const POLY_CAP: usize = 4096;

/// Hard cap on node expansions per comparison; past it the comparison
/// bails out as [`NumClass::Unknown`]. Shared context cancels without
/// being expanded, so this bounds the size of the *differing* region two
/// terms may have while still being classified.
const EXPAND_CAP: usize = 100_000;

/// Hard cap on arena nodes per analysis unit (one certificate or one rule
/// binding sweep); beyond it the analysis bails out pessimistically.
pub const ARENA_CAP: usize = 4_000_000;

/// One intern-table slot: the high half of a node's hash, and its id.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    id: ExprId,
}

/// An unoccupied slot.
const EMPTY: Slot = Slot {
    tag: 0,
    id: u32::MAX,
};

/// Slots the intern table starts with. Small on purpose: the corpus sweep
/// builds a fresh arena per palette binding, and most hold a few dozen
/// nodes.
const INITIAL_SLOTS: usize = 64;

/// The high 32 bits of the node's FxHash (which ends in a multiply, so the
/// well-mixed bits are the high ones).
fn hash_tag(node: &Node) -> u32 {
    let mut h = FxHasher::default();
    node.hash(&mut h);
    (h.finish() >> 32) as u32
}

/// Home slot of `tag` in a table of `2^bits` slots: its top `bits` bits,
/// so that doubling the table splits slot `s` into `2s` and `2s + 1`.
fn home_slot(tag: u32, bits: u32) -> usize {
    (tag >> (32 - bits)) as usize
}

/// The hash-consing arena plus all per-analysis memo tables.
#[derive(Debug, Default)]
pub struct Arena {
    /// The only copy of every node; an [`ExprId`] indexes it.
    nodes: Vec<Node>,
    /// Open-addressing intern table over `nodes`: a power-of-two number of
    /// slots (or none yet), each [`EMPTY`] or the id of a node whose home
    /// is that slot or, by linear probing, one before it. Kept at most
    /// three quarters full.
    table: Vec<Slot>,
    names: Vec<String>,
    name_ids: HashMap<String, NameId>,
    pair_memo: FxHashMap<(ExprId, ExprId), (NumClass, u64)>,
}

impl Arena {
    /// A fresh arena.
    pub fn new() -> Arena {
        Arena::default()
    }

    /// Number of live nodes (cap accounting).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no nodes exist yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interns a leaf-tensor name.
    pub fn name(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("name count fits u32");
        self.names.push(name.to_owned());
        self.name_ids.insert(name.to_owned(), id);
        id
    }

    fn intern(&mut self, node: Node) -> ExprId {
        if self.nodes.len() * 4 >= self.table.len() * 3 {
            self.grow_table();
        }
        let (bits, mask) = (self.table.len().trailing_zeros(), self.table.len() - 1);
        let tag = hash_tag(&node);
        let mut slot = home_slot(tag, bits);
        loop {
            let seen = self.table[slot];
            if seen.id == EMPTY.id {
                break;
            }
            if seen.tag == tag && self.nodes[seen.id as usize] == node {
                return seen.id;
            }
            slot = (slot + 1) & mask;
        }
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id != EMPTY.id)
            .expect("node count fits u32");
        self.table[slot] = Slot { tag, id };
        self.nodes.push(node);
        id
    }

    /// Doubles the intern table (or creates it). Slots carry their hash
    /// tag and homes are its top bits, so re-seating them in slot order
    /// reads no node and writes the new table front to back.
    fn grow_table(&mut self) {
        let slots = (self.table.len() * 2).max(INITIAL_SLOTS);
        let (bits, mask) = (slots.trailing_zeros(), slots - 1);
        let old = std::mem::replace(&mut self.table, vec![EMPTY; slots]);
        for seen in old {
            if seen.id == EMPTY.id {
                continue;
            }
            let mut slot = home_slot(seen.tag, bits);
            while self.table[slot].id != EMPTY.id {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = seen;
        }
    }

    fn node(&self, id: ExprId) -> &Node {
        &self.nodes[id as usize]
    }

    /// An exact rational constant.
    pub fn rat(&mut self, r: Rat) -> ExprId {
        self.intern(Node::Rat(r))
    }

    /// Element `flat` of leaf tensor `name`.
    pub fn leaf(&mut self, name: NameId, flat: u64) -> ExprId {
        self.intern(Node::Leaf(name, flat))
    }

    /// `fl(a + b)`.
    ///
    /// Canonicalizations (each a bitwise IEEE identity):
    /// `x + 0 = x` (sign-of-zero differences are absorbed by f64 `==`),
    /// commutativity (children sorted by id), `x + x = 2·x` (exact
    /// doubling), and folding of representable constant pairs.
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        if let Node::Rat(r) = self.node(a) {
            if r.is_zero() {
                return b;
            }
        }
        if let Node::Rat(r) = self.node(b) {
            if r.is_zero() {
                return a;
            }
        }
        if let (&Node::Rat(x), &Node::Rat(y)) = (self.node(a), self.node(b)) {
            if let Some(s) = x.add(&y) {
                // fl(x + y) is exact when both operands and the sum are
                // representable dyadics.
                if x.is_representable() && y.is_representable() && s.is_representable() {
                    return self.rat(s);
                }
            }
        }
        if a == b {
            // fl(x + x) = fl(2x): exact power-of-two scaling either way.
            return self.scale_mul(a, Rat::int(2));
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Node::Add(a, b))
    }

    /// Exact negation. `−(−x) = x`, `−c` folds, and `−(x·c) = x·(−c)`
    /// (IEEE sign symmetry of multiplication).
    pub fn neg(&mut self, a: ExprId) -> ExprId {
        match *self.node(a) {
            Node::Neg(x) => x,
            Node::Rat(r) => self.rat(r.neg()),
            Node::ScaleMul(x, r) => self.scale_mul(x, r.neg()),
            _ => self.intern(Node::Neg(a)),
        }
    }

    /// `fl(a · b)`. Constant operands become [`Node::ScaleMul`]
    /// (bit-faithful when the constant is representable — the only way
    /// constants arise here), constant pairs fold when exact, and children
    /// are sorted (IEEE × is commutative).
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        if let (&Node::Rat(x), &Node::Rat(y)) = (self.node(a), self.node(b)) {
            if let Some(p) = x.mul(&y) {
                if x.is_representable() && y.is_representable() && p.is_representable() {
                    return self.rat(p);
                }
            }
        }
        if let &Node::Rat(r) = self.node(a) {
            if r.is_representable() {
                return self.scale_mul(b, r);
            }
        }
        if let &Node::Rat(r) = self.node(b) {
            if r.is_representable() {
                return self.scale_mul(a, r);
            }
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Node::Mul(a, b))
    }

    /// `fl(fl(r) · x)`. `1·x = x`, `(−1)·x = −x`, `0·x = 0` (up to the
    /// sign of zero, absorbed by f64 `==`), nested scales fold when the
    /// combined ratio stays exact.
    pub fn scale_mul(&mut self, x: ExprId, r: Rat) -> ExprId {
        if r.is_zero() {
            return self.rat(Rat::zero());
        }
        if r == Rat::one() {
            return x;
        }
        if r == Rat::int(-1) {
            return self.neg(x);
        }
        if let &Node::Neg(inner) = self.node(x) {
            return self.scale_mul(inner, r.neg());
        }
        if let &Node::Rat(c) = self.node(x) {
            if let Some(p) = c.mul(&r) {
                if c.is_representable() && r.is_representable() && p.is_representable() {
                    return self.rat(p);
                }
            }
        }
        self.intern(Node::ScaleMul(x, r))
    }

    /// `fl(x / n)` for a runtime integer `n ≥ 1` (reduction widths).
    pub fn scale_div(&mut self, x: ExprId, n: u64) -> ExprId {
        assert!(n > 0, "scale_div by zero width");
        if n == 1 {
            return x;
        }
        if let &Node::Rat(c) = self.node(x) {
            if let Some(q) = c.mul(&Rat::new(1, i128::from(n)).expect("n > 0")) {
                if c.is_representable() && q.is_representable() {
                    return self.rat(q);
                }
            }
        }
        self.intern(Node::ScaleDiv(x, n))
    }

    /// An opaque deterministic function application.
    pub fn fun(&mut self, name: &'static str, args: Vec<ExprId>) -> ExprId {
        self.intern(Node::Fun(name, args))
    }

    /// The exact rational value of a node, when it is a constant.
    pub fn constant(&self, id: ExprId) -> Option<Rat> {
        match self.node(id) {
            Node::Rat(r) => Some(*r),
            _ => None,
        }
    }

    /// Does this node perform a fresh rounding?
    fn is_rounding(&self, id: ExprId) -> bool {
        match self.node(id) {
            Node::Rat(_) | Node::Leaf(..) | Node::Neg(_) => false,
            Node::Add(..) | Node::Mul(..) => true,
            Node::ScaleMul(_, r) => !r.is_pow2(),
            Node::ScaleDiv(_, n) => !n.is_power_of_two(),
            Node::Fun(name, _) => !EXACT_FUNS.contains(name),
        }
    }

    /// Can this node be expanded one level into a polynomial over its
    /// children? Leaves and opaque funs are true atoms.
    fn reducible(&self, id: ExprId) -> bool {
        match self.node(id) {
            Node::Leaf(..) | Node::Fun(..) => false,
            Node::ScaleDiv(_, n) => *n != 0,
            _ => true,
        }
    }

    /// One-level expansion of a node into a polynomial over its children,
    /// `None` when the node is a true atom.
    fn one_step(&self, id: ExprId) -> Option<Poly> {
        let mut p = Poly::new();
        match self.node(id) {
            Node::Leaf(..) | Node::Fun(..) => return None,
            Node::Rat(r) => {
                if !r.is_zero() {
                    p.insert(Vec::new(), *r);
                }
            }
            Node::Neg(a) => {
                p.insert(vec![*a], Rat::int(-1));
            }
            Node::Add(a, b) => {
                if a == b {
                    p.insert(vec![*a], Rat::int(2));
                } else {
                    p.insert(vec![*a], Rat::one());
                    p.insert(vec![*b], Rat::one());
                }
            }
            Node::Mul(a, b) => {
                let mut m = vec![*a, *b];
                m.sort_unstable();
                p.insert(m, Rat::one());
            }
            Node::ScaleMul(a, r) => {
                if !r.is_zero() {
                    p.insert(vec![*a], *r);
                }
            }
            Node::ScaleDiv(a, n) => {
                p.insert(vec![*a], Rat::new(1, i128::from(*n))?);
            }
        }
        Some(p)
    }

    /// Classifies one element pair. Identical ids are bit-exact by
    /// construction; everything else runs the lazy difference expansion
    /// of [`Arena::classify_diff`]. Memoized per (a, b).
    pub fn classify_pair(&mut self, a: ExprId, b: ExprId) -> (NumClass, u64) {
        if a == b {
            return (NumClass::BitExact, 0);
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.pair_memo.get(&key) {
            return r;
        }
        let result = self.classify_diff(key.0, key.1);
        self.pair_memo.insert(key, result);
        result
    }

    /// Lazy lockstep difference: maintain `D = expand(a) − expand(b)` with
    /// unexpanded nodes as opaque atoms, always expanding the largest-id
    /// reducible atom first. Children are interned before parents, so this
    /// order is reverse-topological: every subterm shared by both sides
    /// surfaces as identical monomials with cancelling coefficients
    /// *before* it would be expanded, and is never unfolded at all. Only
    /// the region where the two terms genuinely differ is expanded — the
    /// caps bound the difference, not the (arbitrarily deep) shared
    /// context.
    ///
    /// - `D = 0`: the sides compute the same real number —
    ///   reassociation-only, with `k` the number of rounding nodes that
    ///   had to be unfolded (the sites the two evaluations do not share).
    /// - stuck with distinct applications of one opaque fun: congruence
    ///   lifting via [`Arena::merge_congruent_funs`].
    /// - stuck on a fully-unfolded non-zero difference: the sides compute
    ///   generically different reals — value-changing.
    /// - cap overflow or coefficient overflow: unknown.
    fn classify_diff(&mut self, a: ExprId, b: ExprId) -> (NumClass, u64) {
        // The difference polynomial, plus an occurrence index so each
        // expansion touches only the monomials that actually contain the
        // expanded atom (the polynomial stays large while the differing
        // region unfolds; rebuilding it per step would make the analysis
        // quadratic in the region size). `occ` entries may go stale when a
        // monomial cancels — liveness is re-checked against `d` on use.
        let mut d = Poly::new();
        let mut occ: FxHashMap<ExprId, Vec<Mono>> = FxHashMap::default();
        let mut cand: BTreeSet<ExprId> = BTreeSet::new();
        for (mono, c) in [(vec![a], Rat::one()), (vec![b], Rat::int(-1))] {
            if self
                .accum_indexed(&mut d, &mut occ, &mut cand, mono, c)
                .is_none()
            {
                return (NumClass::Unknown, 0);
            }
        }
        let mut k: u64 = 0;
        let mut expansions = 0usize;
        loop {
            if d.is_empty() {
                return (NumClass::Reassoc, k);
            }
            // Largest *live* reducible atom; prune fully-stale candidates.
            let next = loop {
                let Some(&x) = cand.iter().next_back() else {
                    break None;
                };
                let live = occ.get_mut(&x).is_some_and(|v| {
                    v.retain(|m| d.contains_key(m));
                    !v.is_empty()
                });
                if live {
                    break Some(x);
                }
                cand.remove(&x);
                occ.remove(&x);
            };
            let Some(x) = next else {
                match self.merge_congruent_funs(&mut d) {
                    MergeOutcome::Merged(dk) => {
                        k = k.saturating_add(dk);
                        continue;
                    }
                    MergeOutcome::Stuck => return (NumClass::ValueChanging, 0),
                    MergeOutcome::Unknown => return (NumClass::Unknown, 0),
                }
            };
            expansions += 1;
            if expansions > EXPAND_CAP {
                return (NumClass::Unknown, 0);
            }
            if self.is_rounding(x) {
                k = k.saturating_add(1);
            }
            let Some(px) = self.one_step(x) else {
                return (NumClass::Unknown, 0);
            };
            cand.remove(&x);
            let monos = occ.remove(&x).expect("picked candidate has live monomials");
            for m in monos {
                // Duplicate index entries resolve here: first removal wins.
                let Some(c) = d.remove(&m) else { continue };
                let occ_count = m.iter().filter(|&&i| i == x).count();
                let rest: Mono = m.iter().copied().filter(|&i| i != x).collect();
                // px^occ_count, term by term. `m` is indexed under `x`, so
                // occ_count >= 1 — and almost always 1, where the power is
                // px itself.
                let mut pw: Option<Poly> = None;
                for _ in 1..occ_count {
                    pw = match poly_mul(pw.as_ref().unwrap_or(&px), &px) {
                        Some(p) => Some(p),
                        None => return (NumClass::Unknown, 0),
                    };
                }
                for (mm, cc) in pw.as_ref().unwrap_or(&px) {
                    let mut mono = rest.clone();
                    mono.extend(mm.iter().copied());
                    mono.sort_unstable();
                    let Some(coef) = c.mul(cc) else {
                        return (NumClass::Unknown, 0);
                    };
                    if self
                        .accum_indexed(&mut d, &mut occ, &mut cand, mono, coef)
                        .is_none()
                    {
                        return (NumClass::Unknown, 0);
                    }
                }
            }
        }
    }

    /// Adds `c · m` into `d`, dropping cancelled monomials and indexing
    /// the reducible atoms of newly created monomials in `occ`/`cand`.
    /// `None` on coefficient overflow or monomial-count blowup.
    fn accum_indexed(
        &self,
        d: &mut Poly,
        occ: &mut FxHashMap<ExprId, Vec<Mono>>,
        cand: &mut BTreeSet<ExprId>,
        m: Mono,
        c: Rat,
    ) -> Option<()> {
        if c.is_zero() {
            return Some(());
        }
        match d.get(&m) {
            Some(prev) => {
                let s = prev.add(&c)?;
                if s.is_zero() {
                    d.remove(&m);
                } else {
                    d.insert(m, s);
                }
            }
            None => {
                let mut last = None;
                for &atom in &m {
                    if Some(atom) == last {
                        continue; // monomials are sorted; skip repeats
                    }
                    last = Some(atom);
                    if self.reducible(atom) {
                        occ.entry(atom).or_default().push(m.clone());
                        cand.insert(atom);
                    }
                }
                d.insert(m, c);
            }
        }
        if d.len() > POLY_CAP {
            return None;
        }
        Some(())
    }

    /// Congruence lifting over opaque funs: two distinct applications of
    /// the same fun whose argument pairs all classify bit-exact or
    /// reassociation-only compute the same real number, so the two atoms
    /// merge (carrying the arguments' `k` plus, for rounding funs, one
    /// fresh site per application). Merging one pair at a time lets the
    /// main loop re-check for cancellation. If the only obstruction to a
    /// merge is an *unclassifiable* argument pair, the difference is
    /// unknown — never value-changing through an opaque fun we could not
    /// see into.
    fn merge_congruent_funs(&mut self, d: &mut Poly) -> MergeOutcome {
        let atoms: BTreeSet<ExprId> = d.keys().flat_map(|m| m.iter().copied()).collect();
        let funs: Vec<ExprId> = atoms
            .into_iter()
            .filter(|&x| matches!(self.node(x), Node::Fun(..)))
            .collect();
        let mut saw_unknown = false;
        for (i, &u) in funs.iter().enumerate() {
            for &v in &funs[i + 1..] {
                let (nu, args_u) = match self.node(u) {
                    Node::Fun(n, a) => (*n, a.clone()),
                    _ => continue,
                };
                let (nv, args_v) = match self.node(v) {
                    Node::Fun(n, a) => (*n, a.clone()),
                    _ => continue,
                };
                if nu != nv || args_u.len() != args_v.len() {
                    continue;
                }
                let mut dk: u64 = 0;
                let mut mergeable = true;
                for (&p, &q) in args_u.iter().zip(&args_v) {
                    let (c, ka) = self.classify_pair(p, q);
                    match c {
                        NumClass::BitExact => {}
                        NumClass::Reassoc => dk = dk.saturating_add(ka),
                        NumClass::Unknown => {
                            saw_unknown = true;
                            mergeable = false;
                            break;
                        }
                        NumClass::ValueChanging => {
                            mergeable = false;
                            break;
                        }
                    }
                }
                if !mergeable {
                    continue;
                }
                if self.is_rounding(u) {
                    // Both applications round their (reassociated) inputs.
                    dk = dk.saturating_add(2);
                }
                let old = std::mem::take(d);
                for (m, c) in old {
                    let mut mono: Mono =
                        m.into_iter().map(|x| if x == v { u } else { x }).collect();
                    mono.sort_unstable();
                    if poly_accum(d, mono, c).is_none() {
                        return MergeOutcome::Unknown;
                    }
                }
                return MergeOutcome::Merged(dk);
            }
        }
        if saw_unknown {
            MergeOutcome::Unknown
        } else {
            MergeOutcome::Stuck
        }
    }
}

/// Outcome of one congruence-lifting attempt.
enum MergeOutcome {
    /// Two fun atoms were identified; the carried `k` contribution.
    Merged(u64),
    /// No merge applies; the residual difference is real.
    Stuck,
    /// A merge was blocked only by an unclassifiable argument pair.
    Unknown,
}

/// Adds `c · m` into `out`, dropping cancelled monomials. `None` on
/// coefficient overflow or monomial-count blowup.
fn poly_accum(out: &mut Poly, m: Mono, c: Rat) -> Option<()> {
    if c.is_zero() {
        return Some(());
    }
    match out.get(&m) {
        Some(prev) => {
            let s = prev.add(&c)?;
            if s.is_zero() {
                out.remove(&m);
            } else {
                out.insert(m, s);
            }
        }
        None => {
            out.insert(m, c);
        }
    }
    if out.len() > POLY_CAP {
        return None;
    }
    Some(())
}

fn poly_mul(a: &Poly, b: &Poly) -> Option<Poly> {
    let mut out = Poly::new();
    for (ma, ca) in a {
        for (mb, cb) in b {
            let mut m = ma.clone();
            m.extend(mb.iter().copied());
            m.sort_unstable();
            poly_accum(&mut out, m, ca.mul(cb)?)?;
        }
    }
    Some(out)
}

/// A tensor of symbolic elements, row-major, mirroring
/// `entangle_runtime::Value` exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SymTensor {
    /// The shape.
    pub shape: Vec<usize>,
    /// Row-major elements.
    pub elems: Vec<ExprId>,
}

impl SymTensor {
    /// A tensor; element count must match the shape.
    pub fn new(shape: Vec<usize>, elems: Vec<ExprId>) -> SymTensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            elems.len(),
            "SymTensor shape/element mismatch"
        );
        SymTensor { shape, elems }
    }

    /// A rank-0 scalar.
    pub fn scalar(e: ExprId) -> SymTensor {
        SymTensor {
            shape: vec![],
            elems: vec![e],
        }
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.elems.len()
    }

    /// Row-major strides.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1; self.shape.len()];
        for i in (0..self.shape.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.shape[i + 1];
        }
        s
    }

    /// Flat offset of a full-rank multi-index (Horner over the shape: the
    /// same number as Σ index·stride, without building the strides).
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.shape.len(), "full-rank index");
        index
            .iter()
            .zip(&self.shape)
            .fold(0, |acc, (&ix, &dim)| acc * dim + ix)
    }

    /// Element at a multi-index.
    pub fn get(&self, index: &[usize]) -> ExprId {
        self.elems[self.offset(index)]
    }
}

/// Classifies a whole tensor pair: the per-element class join, with `k`
/// the *maximum* per-element site count (the runtime comparison bound is
/// per-element, so the worst element governs).
pub fn classify_tensors(arena: &mut Arena, a: &SymTensor, b: &SymTensor) -> Verdict {
    if a.shape != b.shape {
        return Verdict {
            class: NumClass::ValueChanging,
            k: 0,
        };
    }
    let mut class = NumClass::BitExact;
    let mut k = 0u64;
    for (&ea, &eb) in a.elems.iter().zip(&b.elems) {
        let (c, ke) = arena.classify_pair(ea, eb);
        class = class.max(c);
        k = k.max(ke);
    }
    Verdict { class, k }
}
