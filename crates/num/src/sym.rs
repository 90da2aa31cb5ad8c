//! The abstract domain: hash-consed symbolic f64 expressions with exact
//! rational coefficients.
//!
//! Every tensor element the runtime would compute is a node in an
//! [`Arena`]: the runtime's operator kernels run over these nodes exactly
//! as they run over floats (`crate::eval`). The node language is chosen so
//! that *node identity implies bitwise-equal runtime values*: two elements
//! canonicalize to the same [`ExprId`] exactly when the interpreter in
//! `entangle-runtime` produces the same f64 for both (under the
//! canonicalization laws documented on [`Arena::add`] etc., each of which
//! is justified by an IEEE-754 identity). On top of the exact layer sits a *polynomial normal form*
//! over opaque atoms: two elements with equal normal forms compute the same
//! real number, and differ at most by reassociation of rounded operations.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{Hash, Hasher};

use entangle_egraph::hashing::{FxHashMap, FxHasher};
use entangle_runtime::kernels::Tensor;

#[cfg(test)]
mod oracle;

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

/// Index of a rational in the arena's constant table; equal rationals
/// share one id.
pub type RatId = u32;

/// Index of an opaque-function name in the arena's name table.
pub type FunId = u32;

/// Handle of an interned id list (a `Fun`'s arguments, a matmul row or
/// column); equal lists share one handle.
pub type ListId = u32;

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
///
/// Sixteen bytes, `Copy`: the wide payloads (rationals, fun names,
/// argument lists) live once each in side tables of the [`Arena`] and are
/// referred to by id. Those tables intern — equal values, equal ids — so
/// the derived `Eq`/`Hash` compare exactly what the payloads would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// An exact rational constant (zeros, ones, integer ids).
    Rat(RatId),
    /// Element `flat` of the named input tensor.
    Leaf(NameId, u64),
    /// Rounded sum `fl(a + b)`; children sorted (IEEE + is commutative).
    Add(ExprId, ExprId),
    /// Exact sign flip.
    Neg(ExprId),
    /// Rounded product `fl(a · b)`; children sorted.
    Mul(ExprId, ExprId),
    /// Multiplication by the rounded constant `fl(r)`.
    ScaleMul(ExprId, RatId),
    /// Division by the exact runtime integer `n > 0`.
    ScaleDiv(ExprId, u64),
    /// Deterministic opaque function of rounded arguments.
    Fun(FunId, ListId),
    /// The dot product of two lists of one length `K ≥ 2`, neither holding
    /// a constant, folded left to right from the zero seed:
    /// `fl(… fl(fl(r₀·c₀) + fl(r₁·c₁)) … + fl(r_{K−1}·c_{K−1}))`. Handles
    /// sorted (`fl(a·b) = fl(b·a)`, product by product). One node for the
    /// `2K − 1` operations it stands for; [`Arena::classify_pair`] unfolds
    /// it only where a comparison has to look inside.
    Dot(ListId, ListId),
    /// The exact real sum `Σ fl(rₖ·cₖ)` of the rounded products of two
    /// lists of one length `K ≥ 2`, with no rounding of its own: no
    /// operator computes one. Only the difference expansion builds it, as
    /// a monomial of its own, for a run of pairs of an unfolding `Dot`
    /// that a `Dot` or `Sum` alive in the difference covers exactly (see
    /// [`Arena::one_step`]), so a split contraction cancels as whole
    /// segments instead of product by product. Handles sorted, as a
    /// `Dot`'s.
    Sum(ListId, ListId),
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

/// Atoms a [`Mono`] holds without touching the heap. Seven covers every
/// monomial of the benchmark and golden inputs; wider products spill.
const MONO_INLINE: usize = 7;

/// A monomial: sorted atom ids with multiplicity. Compared, ordered and
/// hashed as the slice [`Mono::atoms`], whichever way it is stored.
#[derive(Debug, Clone)]
enum Mono {
    Inline {
        len: u8,
        atoms: [ExprId; MONO_INLINE],
    },
    Heap(Vec<ExprId>),
}

impl Mono {
    /// The empty monomial (the constant term).
    fn new() -> Mono {
        Mono::Inline {
            len: 0,
            atoms: [0; MONO_INLINE],
        }
    }

    /// The monomial of `atoms`, which must be sorted.
    fn of(atoms: &[ExprId]) -> Mono {
        let mut m = Mono::new();
        for &a in atoms {
            m.push(a);
        }
        m
    }

    fn atoms(&self) -> &[ExprId] {
        match self {
            Mono::Inline { len, atoms } => &atoms[..usize::from(*len)],
            Mono::Heap(v) => v,
        }
    }

    /// Appends one atom; the caller restores the order with [`Mono::sort`].
    fn push(&mut self, atom: ExprId) {
        match self {
            Mono::Inline { len, atoms } if usize::from(*len) < MONO_INLINE => {
                atoms[usize::from(*len)] = atom;
                *len += 1;
            }
            Mono::Inline { atoms, .. } => {
                let mut v = Vec::with_capacity(2 * MONO_INLINE);
                v.extend_from_slice(atoms);
                v.push(atom);
                *self = Mono::Heap(v);
            }
            Mono::Heap(v) => v.push(atom),
        }
    }

    fn sort(&mut self) {
        match self {
            Mono::Inline { len, atoms } => atoms[..usize::from(*len)].sort_unstable(),
            Mono::Heap(v) => v.sort_unstable(),
        }
    }

    /// `self · other`, sorted.
    fn times(&self, other: &Mono) -> Mono {
        let mut m = self.clone();
        for &a in other.atoms() {
            m.push(a);
        }
        m.sort();
        m
    }
}

impl PartialEq for Mono {
    fn eq(&self, other: &Mono) -> bool {
        self.atoms() == other.atoms()
    }
}

impl Eq for Mono {}

impl Hash for Mono {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.atoms().hash(state);
    }
}

impl PartialOrd for Mono {
    fn partial_cmp(&self, other: &Mono) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Mono {
    fn cmp(&self, other: &Mono) -> std::cmp::Ordering {
        self.atoms().cmp(other.atoms())
    }
}

/// A polynomial over opaque atoms (leaves and `Fun`s) with exact rational
/// coefficients, as terms in ascending monomial order. Equal polynomials ⇒
/// equal real values.
type Terms = [(Mono, Rat)];

/// Hard cap on distinct monomials in the lazy difference polynomial;
/// past it the comparison bails out as [`NumClass::Unknown`].
const POLY_CAP: usize = 4096;

/// Hard cap on node expansions per comparison; past it the comparison
/// bails out as [`NumClass::Unknown`]. Shared context cancels without
/// being expanded, so this bounds the size of the *differing* region two
/// terms may have while still being classified.
const EXPAND_CAP: usize = 100_000;

/// Hard cap on the operations one analysis unit (one certificate, or one
/// lemma's palette sweep) may model, counted by [`Arena::modelled`]; beyond
/// it the analysis bails out pessimistically.
pub const ARENA_CAP: usize = 4_000_000;

/// One intern-table slot: the high half of an entry's hash, and its id.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    id: u32,
}

/// Set in the length word of an interned list one of whose elements is a
/// constant: [`Arena::dot`] folds over such a list, so that `x·1 = x`,
/// `x + 0 = x` and constant folding apply to its products.
const LIST_HOLDS_CONSTANT: u32 = 1 << 31;

/// An unoccupied slot.
const EMPTY: Slot = Slot {
    tag: 0,
    id: u32::MAX,
};

/// Slots an intern table starts with. Small on purpose: the registry sweep
/// builds one arena per static lemma, 111 per sweep, and most end with a
/// few hundred nodes (median 121, largest 1 197); a certificate's arena
/// outgrows it in a few doublings.
const INITIAL_SLOTS: usize = 64;

/// Nodes [`Arena::pair_shape`] walks before it gives up and the pair is
/// classified as it is.
const SHAPE_CAP: usize = 1 << 12;

/// Folds one 128-bit value into a 128-bit state: a multiply-fold (the
/// wyhash step) per lane, each lane reading both halves of the value. The
/// structural hashes of `crate::eval` and [`Arena::pair_shape`] are folds
/// of it.
pub(crate) fn mix((h0, h1): (u64, u64), (x0, x1): (u64, u64)) -> (u64, u64) {
    fn mum(a: u64, b: u64) -> u64 {
        let r = u128::from(a) * u128::from(b);
        (r as u64) ^ ((r >> 64) as u64)
    }
    (
        mum(h0 ^ x0 ^ 0xa076_1d64_78bd_642f, x1 ^ 0xe703_7ed1_a0b4_28db),
        mum(h1 ^ x1 ^ 0x8ebc_6af0_9c88_c6e3, x0 ^ 0x5899_65cc_7537_4cc3),
    )
}

/// The high 32 bits of the value's FxHash (which ends in a multiply, so the
/// well-mixed bits are the high ones).
fn hash_tag<T: Hash + ?Sized>(value: &T) -> u32 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    (h.finish() >> 32) as u32
}

/// Open-addressing index from a value's hash tag to the `u32` id its owner
/// stores it under: the nodes, the rationals and the id lists of an
/// [`Arena`] each keep their values in a vector of their own and one of
/// these over it. Every slot is [`EMPTY`] or holds an id whose home is
/// that slot or, by linear probing, one before it; kept at most three
/// quarters full.
#[derive(Debug, Default)]
struct InternTable {
    slots: Vec<Slot>,
    len: usize,
}

impl InternTable {
    /// Home slot of `tag` among `slots`: the tag scaled onto the table, so
    /// any size serves and homes ascend with the tag.
    fn home(tag: u32, slots: usize) -> usize {
        ((u64::from(tag) * slots as u64) >> 32) as usize
    }

    /// Doubles the table (or creates it) when one more entry would fill it
    /// past three quarters.
    fn make_room(&mut self) {
        if self.len * 4 >= self.slots.len() * 3 {
            self.resize((self.slots.len() * 2).max(INITIAL_SLOTS));
        }
    }

    /// Re-seats every entry in a table of `slots` slots. Slots carry their
    /// hash tag and homes ascend with it, so walking the old table in slot
    /// order reads no value and writes the new table front to back.
    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        for seen in old {
            if seen.id == EMPTY.id {
                continue;
            }
            let mut slot = InternTable::home(seen.tag, slots);
            while self.slots[slot].id != EMPTY.id {
                slot = self.next(slot);
            }
            self.slots[slot] = seen;
        }
    }

    fn next(&self, slot: usize) -> usize {
        if slot + 1 == self.slots.len() {
            0
        } else {
            slot + 1
        }
    }

    /// The id stored under `tag` that `is_it` accepts, or else the vacant
    /// slot where [`InternTable::insert`] puts it. Call
    /// [`InternTable::make_room`] first.
    fn find(&self, tag: u32, mut is_it: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mut slot = InternTable::home(tag, self.slots.len());
        loop {
            let seen = self.slots[slot];
            if seen.id == EMPTY.id {
                return Err(slot);
            }
            if seen.tag == tag && is_it(seen.id) {
                return Ok(seen.id);
            }
            slot = self.next(slot);
        }
    }

    fn insert(&mut self, slot: usize, tag: u32, id: u32) {
        self.slots[slot] = Slot { tag, id };
        self.len += 1;
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.slots[..])
    }
}

/// The id the next value pushed onto a side vector of `len` entries gets.
fn next_id(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&id| id != EMPTY.id)
        .expect("interned value count fits u32")
}

/// Values stored once each, in first-seen order, behind the index that
/// finds them again: a value's id is its position.
#[derive(Debug)]
struct Interned<T> {
    values: Vec<T>,
    table: InternTable,
}

impl<T> Default for Interned<T> {
    fn default() -> Interned<T> {
        Interned {
            values: Vec::new(),
            table: InternTable::default(),
        }
    }
}

impl<T: Hash + Eq> Interned<T> {
    fn intern(&mut self, value: T) -> u32 {
        self.table.make_room();
        let tag = hash_tag(&value);
        let values = &self.values;
        match self.table.find(tag, |id| values[id as usize] == value) {
            Ok(id) => id,
            Err(slot) => {
                let id = next_id(self.values.len());
                self.table.insert(slot, tag, id);
                self.values.push(value);
                id
            }
        }
    }

    fn get(&self, id: u32) -> &T {
        &self.values[id as usize]
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.values[..]) + self.table.bytes()
    }
}

/// The difference polynomial of one [`Arena::classify_diff`] run, plus an
/// occurrence index so each expansion touches only the monomials that
/// actually contain the expanded atom (the polynomial stays large while
/// the differing region unfolds; rebuilding it per step would make the
/// analysis quadratic in the region size).
#[derive(Debug, Default)]
struct DiffIndex {
    d: FxHashMap<Mono, Rat>,
    /// The monomials of `d`, a `Sum` counted as the products it stands
    /// for ([`Arena::weight`]): what [`POLY_CAP`] bounds.
    terms: usize,
    /// Monomials that held each reducible atom when they entered `d`, in
    /// insertion order. Entries may go stale when a monomial cancels —
    /// liveness is re-checked against `d` on use.
    occ: FxHashMap<ExprId, Vec<Mono>>,
    /// The keys of `occ` under their [`Arena::cand_key`], largest first.
    cand: BinaryHeap<CandKey>,
    /// Emptied `occ` lists, for the next atom.
    spare: Vec<Vec<Mono>>,
}

impl DiffIndex {
    fn retire(&mut self, mut list: Vec<Mono>) {
        list.clear();
        self.spare.push(list);
    }

    /// Whether the only monomial of `d` holding `x` is `x` alone.
    fn stands_alone(&self, x: ExprId) -> bool {
        let monos = self.occ.get(&x).map_or(&[][..], Vec::as_slice);
        monos
            .iter()
            .filter(|m| self.d.contains_key(m))
            .all(|m| m.atoms() == [x])
    }

    fn clear(&mut self) {
        self.d.clear();
        self.terms = 0;
        self.cand.clear();
        for (_, mut list) in self.occ.drain() {
            list.clear();
            self.spare.push(list);
        }
    }
}

/// Containers [`Arena::classify_diff`] reuses from one element pair to the
/// next: a reassociating step compares a thousand of them.
#[derive(Debug, Default)]
struct DiffScratch {
    ix: DiffIndex,
    step: StepScratch,
    /// A power of the expanded atom's polynomial, and the next one.
    pw: Vec<(Mono, Rat)>,
    pw_next: Vec<(Mono, Rat)>,
}

/// What [`Arena::one_step`] writes one expansion into, and works in.
#[derive(Debug, Default)]
struct StepScratch {
    /// The expanded atom's polynomial.
    px: Vec<(Mono, Rat)>,
    /// The atoms a `Dot` or `Sum` unfolds into on their way there.
    unfolded: Vec<ExprId>,
    /// The `Dot`s and `Sum`s alive in the difference as a `Dot` unfolds,
    /// and the runs of its pairs they cover.
    live: Vec<ExprId>,
    covers: Vec<Cover>,
}

/// Where a reducible atom stands in the expansion order of
/// [`Arena::classify_pair`], largest first: the largest id it reads, then
/// the length of a `Dot` (1 for a `Sum`, 0 for every other node), then its
/// own id.
type CandKey = (ExprId, u32, ExprId);

/// A run of pairs of an unfolding `Dot` that a live `Dot` or `Sum` covers
/// exactly: where it starts among the `Dot`'s pairs, how many pairs it
/// spans, and the `Dot` or `Sum` that covers it.
type Cover = (usize, usize, ExprId);

/// What an analysis did with its arena, for the `stage:numeric` span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ArenaStats {
    /// `Dot` nodes interned.
    pub dots: u64,
    /// Differing element pairs that ran the difference expansion.
    pub classified_pairs: u64,
    /// Nodes those runs expanded, in total.
    pub expansions: u64,
    /// The `Dot`s among them.
    pub dots_unfolded: u64,
    /// `Sum` atoms those `Dot`s wrote in place of a covered run of
    /// products.
    pub sum_atoms: u64,
}

/// The hash-consing arena plus all per-analysis memo tables.
#[derive(Debug, Default)]
pub struct Arena {
    /// The only copy of every node; an [`ExprId`] indexes it.
    nodes: Interned<Node>,
    /// The distinct rationals of `Rat` and `ScaleMul` nodes.
    rats: Interned<Rat>,
    /// The distinct `Fun` names, each with whether it is exact.
    funs: Vec<(&'static str, bool)>,
    /// The distinct id lists, back to back, each behind its length
    /// ([`LIST_HOLDS_CONSTANT`] set in that word when an element is a
    /// `Rat` node); a [`ListId`] is the offset of that length word.
    lists: Vec<u32>,
    list_table: InternTable,
    names: Vec<String>,
    name_ids: HashMap<String, NameId>,
    pair_memo: FxHashMap<(ExprId, ExprId), (NumClass, u64)>,
    /// Classifications by pair shape ([`Arena::pair_shape`]).
    shape_memo: FxHashMap<(u64, u64), (NumClass, u64)>,
    /// Per node, the walk of [`Arena::pair_shape`] that last met it and its
    /// position there.
    seen: Vec<(u32, u32)>,
    walk: u32,
    /// Operations the interned `Dot`s stand for beyond their one node
    /// each: `2K − 2` per `Dot` over `K` pairs.
    folded_ops: usize,
    scratch: DiffScratch,
    stats: ArenaStats,
    /// Fold every dot product into its multiply-adds (the reference the
    /// tests hold [`Node::Dot`] to).
    #[cfg(test)]
    pub(crate) eager_dots: bool,
}

impl Arena {
    /// A fresh arena.
    pub fn new() -> Arena {
        Arena::default()
    }

    /// Number of nodes stored.
    pub fn len(&self) -> usize {
        self.nodes.values.len()
    }

    /// Number of operations modelled — what [`ARENA_CAP`] bounds: a node
    /// each, and a `Dot` the `2K − 1` nodes of its fold. The arena's own
    /// tally, taken as it interns, so that which computations leave the
    /// model does not depend on how compactly they are stored.
    pub fn modelled(&self) -> usize {
        self.len() + self.folded_ops
    }

    /// `true` when no nodes exist yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.values.is_empty()
    }

    /// Bytes held by the nodes, their intern table and the side tables.
    pub(crate) fn bytes(&self) -> usize {
        self.nodes.bytes()
            + self.rats.bytes()
            + std::mem::size_of_val(&self.lists[..])
            + self.list_table.bytes()
    }

    /// Counters of the work done so far.
    pub(crate) fn stats(&self) -> ArenaStats {
        self.stats
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

    fn fun_id(&mut self, name: &'static str) -> FunId {
        // A dozen names at most: a scan beats a hash.
        if let Some(id) = self.funs.iter().position(|&(n, _)| n == name) {
            return id as FunId;
        }
        self.funs.push((name, EXACT_FUNS.contains(&name)));
        (self.funs.len() - 1) as FunId
    }

    /// Interns an id list: the handle every equal list gets.
    pub(crate) fn list_id(&mut self, ids: &[ExprId]) -> ListId {
        self.list_table.make_room();
        let tag = hash_tag(ids);
        let lists = &self.lists;
        let found = self.list_table.find(tag, |at| {
            let at = at as usize;
            (lists[at] & !LIST_HOLDS_CONSTANT) as usize == ids.len()
                && lists[at + 1..][..ids.len()] == *ids
        });
        match found {
            Ok(id) => id,
            Err(slot) => {
                // Lists enter with the operators that intern nodes over
                // them, so the arena cap bounds the pool long before u32.
                let id = next_id(self.lists.len());
                self.list_table.insert(slot, tag, id);
                let len = u32::try_from(ids.len())
                    .ok()
                    .filter(|len| len & LIST_HOLDS_CONSTANT == 0)
                    .expect("list length fits 31 bits");
                let constant = ids.iter().any(|&e| self.constant(e).is_some());
                self.lists
                    .push(len | if constant { LIST_HOLDS_CONSTANT } else { 0 });
                self.lists.extend_from_slice(ids);
                id
            }
        }
    }

    /// The ids of an interned list.
    pub(crate) fn list(&self, id: ListId) -> &[ExprId] {
        let at = id as usize;
        &self.lists[at + 1..][..(self.lists[at] & !LIST_HOLDS_CONSTANT) as usize]
    }

    fn list_holds_constant(&self, id: ListId) -> bool {
        self.lists[id as usize] & LIST_HOLDS_CONSTANT != 0
    }

    fn node(&self, id: ExprId) -> &Node {
        self.nodes.get(id)
    }

    /// An exact rational constant.
    pub fn rat(&mut self, r: Rat) -> ExprId {
        let r = self.rats.intern(r);
        self.nodes.intern(Node::Rat(r))
    }

    /// Element `flat` of leaf tensor `name`.
    pub fn leaf(&mut self, name: NameId, flat: u64) -> ExprId {
        self.nodes.intern(Node::Leaf(name, flat))
    }

    /// `fl(a + b)`.
    ///
    /// Canonicalizations (each a bitwise IEEE identity):
    /// `x + 0 = x` (sign-of-zero differences are absorbed by f64 `==`),
    /// commutativity (children sorted by id), `x + x = 2·x` (exact
    /// doubling), and folding of representable constant pairs.
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        let (ca, cb) = (self.constant(a), self.constant(b));
        if ca.is_some_and(|r| r.is_zero()) {
            return b;
        }
        if cb.is_some_and(|r| r.is_zero()) {
            return a;
        }
        if let (Some(x), Some(y)) = (ca, cb) {
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
        self.nodes.intern(Node::Add(a, b))
    }

    /// Exact negation. `−(−x) = x`, `−c` folds, and `−(x·c) = x·(−c)`
    /// (IEEE sign symmetry of multiplication).
    pub fn neg(&mut self, a: ExprId) -> ExprId {
        match *self.node(a) {
            Node::Neg(x) => x,
            Node::Rat(r) => self.rat(self.rats.get(r).neg()),
            Node::ScaleMul(x, r) => self.scale_mul(x, self.rats.get(r).neg()),
            _ => self.nodes.intern(Node::Neg(a)),
        }
    }

    /// `fl(a · b)`. Constant operands become [`Node::ScaleMul`]
    /// (bit-faithful when the constant is representable — the only way
    /// constants arise here), constant pairs fold when exact, and children
    /// are sorted (IEEE × is commutative).
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        let (ca, cb) = (self.constant(a), self.constant(b));
        if let (Some(x), Some(y)) = (ca, cb) {
            if let Some(p) = x.mul(&y) {
                if x.is_representable() && y.is_representable() && p.is_representable() {
                    return self.rat(p);
                }
            }
        }
        if let Some(r) = ca.filter(Rat::is_representable) {
            return self.scale_mul(b, r);
        }
        if let Some(r) = cb.filter(Rat::is_representable) {
            return self.scale_mul(a, r);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.nodes.intern(Node::Mul(a, b))
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
        if let Some(c) = self.constant(x) {
            if let Some(p) = c.mul(&r) {
                if c.is_representable() && r.is_representable() && p.is_representable() {
                    return self.rat(p);
                }
            }
        }
        let r = self.rats.intern(r);
        self.nodes.intern(Node::ScaleMul(x, r))
    }

    /// `fl(x / n)` for a runtime integer `n ≥ 1` (reduction widths).
    pub fn scale_div(&mut self, x: ExprId, n: u64) -> ExprId {
        assert!(n > 0, "scale_div by zero width");
        if n == 1 {
            return x;
        }
        if let Some(c) = self.constant(x) {
            if let Some(q) = c.mul(&Rat::new(1, i128::from(n)).expect("n > 0")) {
                if c.is_representable() && q.is_representable() {
                    return self.rat(q);
                }
            }
        }
        self.nodes.intern(Node::ScaleDiv(x, n))
    }

    /// An opaque deterministic function application.
    pub fn fun(&mut self, name: &'static str, args: &[ExprId]) -> ExprId {
        let (name, args) = (self.fun_id(name), self.list_id(args));
        self.nodes.intern(Node::Fun(name, args))
    }

    /// The dot product of two interned lists of one length, folded left to
    /// right from the zero seed exactly as the runtime's matmul does:
    /// `fl(… fl(fl(r₀·c₀) + fl(r₁·c₁)) …)` — as one [`Node::Dot`], so the
    /// same two lists (a shard of an earlier matmul, say) are the same id
    /// by interning. Fewer than two pairs, or a constant in either list,
    /// are folded into their multiply-adds here instead, where the
    /// canonicalisations of [`Arena::mul`] and [`Arena::add`] apply.
    pub(crate) fn dot(&mut self, row: ListId, col: ListId) -> ExprId {
        let pairs = self.list(row).len();
        let fold = pairs < 2 || self.list_holds_constant(row) || self.list_holds_constant(col);
        #[cfg(test)]
        let fold = fold || self.eager_dots;
        if fold {
            let mut acc = self.rat(Rat::zero());
            for k in 0..pairs {
                let prod = self.mul(self.list(row)[k], self.list(col)[k]);
                acc = self.add(acc, prod);
            }
            return acc;
        }
        let before = self.len();
        let dot = self.nodes.intern(Node::Dot(row.min(col), row.max(col)));
        if self.len() > before {
            self.stats.dots += 1;
            self.folded_ops += 2 * pairs - 2;
        }
        dot
    }

    /// The exact rational value of a node, when it is a constant.
    pub fn constant(&self, id: ExprId) -> Option<Rat> {
        match *self.node(id) {
            Node::Rat(r) => Some(*self.rats.get(r)),
            _ => None,
        }
    }

    /// Does this node perform a fresh rounding?
    fn is_rounding(&self, id: ExprId) -> bool {
        match *self.node(id) {
            Node::Rat(_) | Node::Leaf(..) | Node::Neg(_) | Node::Sum(..) => false,
            Node::Add(..) | Node::Mul(..) | Node::Dot(..) => true,
            Node::ScaleMul(_, r) => !self.rats.get(r).is_pow2(),
            Node::ScaleDiv(_, n) => !n.is_power_of_two(),
            Node::Fun(name, _) => !self.funs[name as usize].1,
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

    /// Where the reducible atom `id` stands in the expansion order: see
    /// [`CandKey`]. A node is interned after its children, whenever that
    /// is, so the largest id a node reads is at least each child's own id
    /// and therefore above the largest id that child reads: the order is
    /// reverse-topological without any node storing a rank — also over the
    /// product atoms a `Dot` interns as it unfolds, which are new but above
    /// nothing. A `Dot` goes before the other nodes reading up to the same
    /// id (its own last product among them), the longer of two first, so
    /// that every fold over a prefix of its lists is still whole when it
    /// unfolds. A `Sum` goes after every `Dot` and before every other node
    /// reading up to the same id: a `Dot` over its pairs reads at least
    /// what it reads, so each one unfolds while the `Sum` is still whole,
    /// and the `Sum` before any of the products it stands for.
    fn cand_key(&self, id: ExprId) -> CandKey {
        let max = |list: ListId| self.list(list).iter().copied().max().unwrap_or(0);
        match *self.node(id) {
            Node::Rat(_) | Node::Leaf(..) | Node::Fun(..) => (0, 0, id),
            Node::Neg(a) | Node::ScaleMul(a, _) | Node::ScaleDiv(a, _) => (a, 0, id),
            Node::Add(a, b) | Node::Mul(a, b) => (a.max(b), 0, id),
            Node::Dot(r, c) => (max(r).max(max(c)), self.list(r).len() as u32, id),
            Node::Sum(r, c) => (max(r).max(max(c)), 1, id),
        }
    }

    /// The number of pairs the `Dot` `y` folds over, when they are the
    /// leading pairs of the longer `Dot` `x` — whose fold is then `y`'s,
    /// extended by one multiply-add per remaining pair, bit for bit.
    fn prefix_fold_len(&self, x: ExprId, y: ExprId) -> Option<usize> {
        let (&Node::Dot(xr, xc), &Node::Dot(yr, yc)) = (self.node(x), self.node(y)) else {
            return None;
        };
        let (xr, xc, yr, yc) = (self.list(xr), self.list(xc), self.list(yr), self.list(yc));
        let leads = yr.len() < xr.len()
            && ((xr.starts_with(yr) && xc.starts_with(yc))
                || (xr.starts_with(yc) && xc.starts_with(yr)));
        leads.then_some(yr.len())
    }

    /// The first run of pairs of the `Dot` `x`, at or after pair `from`,
    /// that the pairs of the `Dot` or `Sum` `y` are exactly (in either
    /// pairing of the lists: the handles are sorted).
    fn cover(&self, x: ExprId, y: ExprId, from: usize) -> Option<Cover> {
        let (&Node::Dot(xr, xc), &(Node::Dot(yr, yc) | Node::Sum(yr, yc))) =
            (self.node(x), self.node(y))
        else {
            return None;
        };
        let (xr, xc, yr, yc) = (self.list(xr), self.list(xc), self.list(yr), self.list(yc));
        let len = yr.len();
        let start = (from..=xr.len().checked_sub(len)?).find(|&at| {
            let (r, c) = (&xr[at..][..len], &xc[at..][..len]);
            (r == yr && c == yc) || (r == yc && c == yr)
        })?;
        Some((start, len, y))
    }

    /// The atoms the `Dot` `x` unfolds into, written to `out`: `prefix` (a
    /// `Dot` over its leading pairs, with their number) when there is one;
    /// then, pair by pair, the `Sum` over the longest of `covers` (sorted
    /// by start, longest first) that starts at the pair, or else the
    /// pair's product `fl(rₖ·cₖ)`, interned now. Returns the adds
    /// unfolded: one between each two atoms a product-by-product unfolding
    /// writes, however many products a `Sum` stands for.
    fn unfold_dot(
        &mut self,
        x: ExprId,
        prefix: Option<(ExprId, usize)>,
        covers: &[Cover],
        out: &mut Vec<ExprId>,
    ) -> u64 {
        let &Node::Dot(r, c) = self.node(x) else {
            unreachable!("unfold_dot of a non-Dot node")
        };
        out.clear();
        let from = prefix.map_or(0, |(y, len)| {
            out.push(y);
            len
        });
        let pairs = self.list(r).len();
        let mut covers = covers.iter().peekable();
        let mut k = from;
        while k < pairs {
            while covers.next_if(|&&(start, ..)| start < k).is_some() {}
            if let Some(&(_, len, y)) = covers.next_if(|&&(start, ..)| start == k) {
                let sum = match *self.node(y) {
                    Node::Dot(yr, yc) => self.nodes.intern(Node::Sum(yr, yc)),
                    _ => y,
                };
                out.push(sum);
                self.stats.sum_atoms += 1;
                k += len;
            } else {
                let prod = self.mul(self.list(r)[k], self.list(c)[k]);
                out.push(prod);
                k += 1;
            }
        }
        self.stats.dots_unfolded += 1;
        (usize::from(prefix.is_some()) + pairs - from - 1) as u64
    }

    /// The products `fl(rₖ·cₖ)` the `Sum` `x` stands for, interned now,
    /// written to `out`.
    fn unfold_sum(&mut self, x: ExprId, out: &mut Vec<ExprId>) {
        let &Node::Sum(r, c) = self.node(x) else {
            unreachable!("unfold_sum of a non-Sum node")
        };
        out.clear();
        for k in 0..self.list(r).len() {
            let prod = self.mul(self.list(r)[k], self.list(c)[k]);
            out.push(prod);
        }
    }

    /// What the monomial `m` counts toward [`POLY_CAP`]: a `Sum`, only
    /// ever a monomial of its own, as the products it stands for, so that
    /// it leaves the model where they would have; anything else as one.
    fn weight(&self, m: &Mono) -> usize {
        match *m.atoms() {
            [a] => match *self.node(a) {
                Node::Sum(r, _) => self.list(r).len(),
                _ => 1,
            },
            _ => 1,
        }
    }

    /// One-level expansion of the reducible atom `x` of the difference
    /// `ix` into a polynomial over its children, written to `st.px` in
    /// ascending monomial order; returns the rounding sites unfolded.
    ///
    /// A `Dot` unfolds into the longest `Dot` still alive in the
    /// difference that folds over a prefix of its lists, then its
    /// remaining pairs, at one site per add between them: the shard a
    /// row-parallel contraction shares with the full fold cancels as a
    /// whole, the way the shared prefix of two multiply-add chains would.
    /// Where `x` is a monomial of its own, a run of those pairs that a `Dot`
    /// or `Sum` alive in the difference covers exactly is written as one
    /// `Sum`, the rest as products; the other shards of the contraction
    /// then cancel as whole segments, the way their products would one by
    /// one. So a `Sum` is always a monomial of its own too, and no other
    /// atom's cofactor ever holds one. A `Sum` that did not cancel expands
    /// into its products at no site: it rounds nothing.
    ///
    /// `None` when `x` has no expansion (a division by zero width).
    fn one_step(&mut self, ix: &DiffIndex, x: ExprId, st: &mut StepScratch) -> Option<u64> {
        let StepScratch {
            px,
            unfolded,
            live,
            covers,
        } = st;
        px.clear();
        let mut scaled = |a: ExprId, c: Rat| {
            if !c.is_zero() {
                px.push((Mono::of(&[a]), c));
            }
        };
        match *self.node(x) {
            Node::Leaf(..) | Node::Fun(..) => return None,
            Node::Rat(r) => match *self.rats.get(r) {
                r if r.is_zero() => {}
                r => px.push((Mono::new(), r)),
            },
            Node::Neg(a) => scaled(a, Rat::int(-1)),
            Node::Add(a, b) if a == b => scaled(a, Rat::int(2)),
            Node::Add(a, b) => {
                scaled(a.min(b), Rat::one());
                scaled(a.max(b), Rat::one());
            }
            Node::Mul(a, b) => px.push((Mono::of(&[a.min(b), a.max(b)]), Rat::one())),
            Node::ScaleMul(a, r) => scaled(a, *self.rats.get(r)),
            Node::ScaleDiv(a, n) => scaled(a, Rat::new(1, i128::from(n))?),
            Node::Dot(..) | Node::Sum(..) => {
                let sites = if let Node::Dot(..) = self.node(x) {
                    live.clear();
                    live.extend(ix.occ.iter().filter_map(|(&y, monos)| {
                        let kind = matches!(self.node(y), Node::Dot(..) | Node::Sum(..));
                        let alive = kind && y != x && monos.iter().any(|m| ix.d.contains_key(m));
                        alive.then_some(y)
                    }));
                    let prefix = live
                        .iter()
                        .filter_map(|&y| Some((y, self.prefix_fold_len(x, y)?)))
                        .max_by_key(|&(_, len)| len);
                    let from = prefix.map_or(0, |(_, len)| len);
                    covers.clear();
                    if ix.stands_alone(x) {
                        covers.extend(live.iter().filter_map(|&y| self.cover(x, y, from)));
                    }
                    covers.sort_unstable_by_key(|&(start, len, y)| (start, Reverse(len), y));
                    self.unfold_dot(x, prefix, covers, unfolded)
                } else {
                    self.unfold_sum(x, unfolded);
                    0
                };
                unfolded.sort_unstable();
                for run in unfolded.chunk_by(|a, b| a == b) {
                    px.push((Mono::of(&run[..1]), Rat::int(run.len() as i64)));
                }
                return Some(sites);
            }
        }
        Some(u64::from(self.is_rounding(x)))
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

    /// Classifies one element pair of two tensors: [`Arena::classify_pair`],
    /// answered from an earlier pair of the same shape where there is one.
    /// Two pairs of one shape compute the same functions of their leaves,
    /// so they differ at the same rounding sites, and a verdict either's
    /// classification derives bounds both.
    fn classify_element(&mut self, a: ExprId, b: ExprId) -> (NumClass, u64) {
        if a == b {
            return (NumClass::BitExact, 0);
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.pair_memo.get(&key) {
            return r;
        }
        let Some(shape) = self.pair_shape(a, b) else {
            return self.classify_pair(a, b);
        };
        if let Some(&r) = self.shape_memo.get(&shape) {
            return r;
        }
        let r = self.classify_pair(a, b);
        self.shape_memo.insert(shape, r);
        r
    }

    /// A 128-bit hash of the pair `(a, b)` up to renaming leaves: the
    /// nodes reachable from `a`, then from `b`, in depth-first preorder,
    /// each as its kind and payload (a constant's value, a fun's name, a
    /// list's length, a scale) with its children after it, and a node met
    /// again as its position in that order — so two pairs hash alike
    /// exactly when one is the other with its leaves renamed one to one.
    /// `None` past [`SHAPE_CAP`] nodes.
    fn pair_shape(&mut self, a: ExprId, b: ExprId) -> Option<(u64, u64)> {
        if self.seen.len() < self.len() {
            self.seen.resize(self.len(), (0, 0));
        }
        self.walk = self.walk.wrapping_add(1);
        if self.walk == 0 {
            self.seen.iter_mut().for_each(|s| *s = (0, 0));
            self.walk = 1;
        }
        let mut h: (u64, u64) = (0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344);
        let mut at = 0u32;
        let mut stack = vec![b, a];
        while let Some(id) = stack.pop() {
            let seen = &mut self.seen[id as usize];
            if seen.0 == self.walk {
                h = mix(h, (0, u64::from(seen.1)));
                continue;
            }
            *seen = (self.walk, at);
            at += 1;
            if at as usize > SHAPE_CAP {
                return None;
            }
            let rat = |arena: &Arena, h, kind, r: RatId| {
                let r = arena.rats.get(r);
                [r.numer(), r.denom()].iter().fold(h, |h, &v| {
                    mix(mix(h, (kind, v as u64)), (kind, (v >> 64) as u64))
                })
            };
            let list_of = |arena: &Arena, l: ListId, stack: &mut Vec<ExprId>| {
                let ids = arena.list(l);
                stack.extend(ids.iter().rev());
                ids.len() as u64
            };
            h = match *self.node(id) {
                Node::Rat(r) => rat(self, h, 1, r),
                Node::Leaf(..) => mix(h, (2, 0)),
                Node::Add(x, y) => {
                    stack.extend([y, x]);
                    mix(h, (3, 0))
                }
                Node::Neg(x) => {
                    stack.push(x);
                    mix(h, (4, 0))
                }
                Node::Mul(x, y) => {
                    stack.extend([y, x]);
                    mix(h, (5, 0))
                }
                Node::ScaleMul(x, r) => {
                    stack.push(x);
                    rat(self, h, 6, r)
                }
                Node::ScaleDiv(x, n) => {
                    stack.push(x);
                    mix(h, (7, n))
                }
                Node::Fun(f, l) => {
                    let len = list_of(self, l, &mut stack);
                    mix(mix(h, (8, u64::from(f))), (8, len))
                }
                Node::Dot(r, c) | Node::Sum(r, c) => {
                    let kind = if matches!(self.node(id), Node::Dot(..)) {
                        9
                    } else {
                        10
                    };
                    let cols = list_of(self, c, &mut stack);
                    let rows = list_of(self, r, &mut stack);
                    mix(mix(h, (kind, rows)), (kind, cols))
                }
            };
        }
        Some(h)
    }

    /// Lazy lockstep difference: maintain `D = expand(a) − expand(b)` with
    /// unexpanded nodes as opaque atoms, always expanding the reducible
    /// atom with the largest [`Arena::cand_key`] first. That order is
    /// reverse-topological: every subterm shared by both sides surfaces as
    /// identical monomials with cancelling coefficients *before* it would
    /// be expanded, and is never unfolded at all. Only the region where
    /// the two terms genuinely differ is expanded — the caps bound the
    /// difference, not the (arbitrarily deep) shared context.
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
        // Congruence lifting re-enters for argument pairs: the nested run
        // finds the scratch gone and works in a fresh one.
        let mut scratch = std::mem::take(&mut self.scratch);
        self.stats.classified_pairs += 1;
        let result = self
            .expand_diff(&mut scratch, a, b)
            .unwrap_or((NumClass::Unknown, 0));
        scratch.ix.clear();
        self.scratch = scratch;
        result
    }

    /// The loop of [`Arena::classify_diff`]; `None` is unknown.
    fn expand_diff(
        &mut self,
        s: &mut DiffScratch,
        a: ExprId,
        b: ExprId,
    ) -> Option<(NumClass, u64)> {
        self.accum(&mut s.ix, Mono::of(&[a]), Rat::one())?;
        self.accum(&mut s.ix, Mono::of(&[b]), Rat::int(-1))?;
        let mut k: u64 = 0;
        let mut expansions = 0usize;
        loop {
            if s.ix.d.is_empty() {
                return Some((NumClass::Reassoc, k));
            }
            // Largest *live* reducible atom; prune fully-stale candidates.
            let next = loop {
                let Some(&(.., x)) = s.ix.cand.peek() else {
                    break None;
                };
                let d = &s.ix.d;
                let live = s.ix.occ.get_mut(&x).is_some_and(|v| {
                    v.retain(|m| d.contains_key(m));
                    !v.is_empty()
                });
                if live {
                    break Some(x);
                }
                s.ix.cand.pop();
                if let Some(list) = s.ix.occ.remove(&x) {
                    s.ix.retire(list);
                }
            };
            let Some(x) = next else {
                match self.merge_congruent_funs(&mut s.ix) {
                    MergeOutcome::Merged(dk) => {
                        k = k.saturating_add(dk);
                        continue;
                    }
                    MergeOutcome::Stuck => return Some((NumClass::ValueChanging, 0)),
                    MergeOutcome::Unknown => return None,
                }
            };
            // A `Sum` stands for part of a `Dot` already counted.
            if !matches!(self.node(x), Node::Sum(..)) {
                expansions += 1;
                if expansions > EXPAND_CAP {
                    return None;
                }
                self.stats.expansions += 1;
            }
            k = k.saturating_add(self.one_step(&s.ix, x, &mut s.step)?);
            let px: &Terms = &s.step.px;
            s.ix.cand.pop();
            let monos =
                s.ix.occ
                    .remove(&x)
                    .expect("picked candidate has live monomials");
            for m in &monos {
                // Duplicate index entries resolve here: first removal wins.
                let Some(c) = s.ix.d.remove(m) else { continue };
                s.ix.terms -= self.weight(m);
                let occ_count = m.atoms().iter().filter(|&&i| i == x).count();
                let mut rest = Mono::new();
                for &i in m.atoms().iter().filter(|&&i| i != x) {
                    rest.push(i);
                }
                // px^occ_count, term by term. `m` is indexed under `x`, so
                // occ_count >= 1 — and almost always 1, where the power is
                // px itself.
                if occ_count > 1 {
                    s.pw.clear();
                    s.pw.extend_from_slice(px);
                    for _ in 2..=occ_count {
                        poly_mul(&s.pw, px, &mut s.pw_next)?;
                        std::mem::swap(&mut s.pw, &mut s.pw_next);
                    }
                }
                let power: &Terms = if occ_count > 1 { &s.pw } else { px };
                for (mm, cc) in power {
                    self.accum(&mut s.ix, rest.times(mm), c.mul(cc)?)?;
                }
            }
            s.ix.retire(monos);
        }
    }

    /// Adds `c · m` into the difference, dropping cancelled monomials and
    /// indexing the reducible atoms of newly created ones. `None` on
    /// coefficient overflow or monomial-count blowup.
    fn accum(&self, ix: &mut DiffIndex, m: Mono, c: Rat) -> Option<()> {
        if c.is_zero() {
            return Some(());
        }
        let DiffIndex {
            d,
            terms,
            occ,
            cand,
            spare,
        } = ix;
        match d.entry(m) {
            Entry::Occupied(mut e) => {
                let s = e.get().add(&c)?;
                if s.is_zero() {
                    *terms -= self.weight(e.key());
                    e.remove();
                } else {
                    *e.get_mut() = s;
                }
            }
            Entry::Vacant(e) => {
                let mut last = None;
                for &atom in e.key().atoms() {
                    if Some(atom) == last {
                        continue; // monomials are sorted; skip repeats
                    }
                    last = Some(atom);
                    if self.reducible(atom) {
                        occ.entry(atom)
                            .or_insert_with(|| {
                                cand.push(self.cand_key(atom));
                                spare.pop().unwrap_or_default()
                            })
                            .push(e.key().clone());
                    }
                }
                *terms += self.weight(e.key());
                e.insert(c);
            }
        }
        if *terms > POLY_CAP {
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
    ///
    /// Runs once no reducible atom is left in the difference, and renames
    /// one irreducible atom to another, so the occurrence index stays
    /// empty throughout.
    fn merge_congruent_funs(&mut self, ix: &mut DiffIndex) -> MergeOutcome {
        let mut funs: Vec<ExprId> =
            ix.d.keys()
                .flat_map(|m| m.atoms().iter().copied())
                .filter(|&x| matches!(self.node(x), Node::Fun(..)))
                .collect();
        funs.sort_unstable();
        funs.dedup();
        let mut saw_unknown = false;
        for (i, &u) in funs.iter().enumerate() {
            for &v in &funs[i + 1..] {
                let (&Node::Fun(nu, args_u), &Node::Fun(nv, args_v)) = (self.node(u), self.node(v))
                else {
                    continue;
                };
                let arity = self.list(args_u).len();
                if nu != nv || arity != self.list(args_v).len() {
                    continue;
                }
                let mut dk: u64 = 0;
                let mut mergeable = true;
                for j in 0..arity {
                    let (p, q) = (self.list(args_u)[j], self.list(args_v)[j]);
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
                // Re-accumulate in monomial order, `v` renamed to `u`.
                let mut old: Vec<(Mono, Rat)> = ix.d.drain().collect();
                ix.terms = 0;
                old.sort_unstable_by(|x, y| x.0.cmp(&y.0));
                for (m, c) in old {
                    let mut mono = Mono::new();
                    for &x in m.atoms() {
                        mono.push(if x == v { u } else { x });
                    }
                    mono.sort();
                    if self.accum(ix, mono, c).is_none() {
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

/// `out = a · b`, terms accumulated pair by pair in the order of `a` then
/// `b`, cancelled monomials dropped. `None` on coefficient overflow or
/// monomial-count blowup.
fn poly_mul(a: &Terms, b: &Terms, out: &mut Vec<(Mono, Rat)>) -> Option<()> {
    out.clear();
    for (ma, ca) in a {
        for (mb, cb) in b {
            let (m, c) = (ma.times(mb), ca.mul(cb)?);
            if c.is_zero() {
                continue;
            }
            match out.binary_search_by(|(seen, _)| seen.cmp(&m)) {
                Ok(at) => {
                    let s = out[at].1.add(&c)?;
                    if s.is_zero() {
                        out.remove(at);
                    } else {
                        out[at].1 = s;
                    }
                }
                Err(at) => out.insert(at, (m, c)),
            }
            if out.len() > POLY_CAP {
                return None;
            }
        }
    }
    Some(())
}

/// Classifies a whole tensor pair: the per-element class join, with `k`
/// the *maximum* per-element site count (the runtime comparison bound is
/// per-element, so the worst element governs).
pub fn classify_tensors(arena: &mut Arena, a: &Tensor<ExprId>, b: &Tensor<ExprId>) -> Verdict {
    if a.shape != b.shape {
        return Verdict {
            class: NumClass::ValueChanging,
            k: 0,
        };
    }
    let mut class = NumClass::BitExact;
    let mut k = 0u64;
    for (&ea, &eb) in a.data.iter().zip(&b.data) {
        let (c, ke) = arena.classify_element(ea, eb);
        class = class.max(c);
        k = k.max(ke);
    }
    Verdict { class, k }
}
