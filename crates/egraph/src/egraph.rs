//! The e-graph data structure with deferred rebuilding and class analyses.

use std::collections::HashMap;
use std::fmt;

use crate::hashing::{FxHashMap, FxHashSet};

use crate::explain::{Justification, Proof, ProofGraph, ProofStep};
use crate::node::{ENode, RecExpr};
use crate::symbol::Symbol;
use crate::unionfind::{Id, UnionFind};

/// Per-e-class semilattice data, computed bottom-up and merged on union.
///
/// This mirrors `egg::Analysis`. The checker uses it to attach tensor shapes
/// and const-folded scalar values to classes, which lemma conditions consult.
pub trait Analysis: Sized + 'static {
    /// The data attached to each e-class.
    type Data: Clone + PartialEq + fmt::Debug;

    /// Computes the data for a freshly added node from its children's data.
    fn make(egraph: &EGraph<Self>, enode: &ENode) -> Self::Data;

    /// Merges `b` into `a` when two classes are unioned.
    ///
    /// Returns `(a_changed, b_changed)`: whether the merged value differs
    /// from the original `a` (resp. `b`). Changed classes have their parents
    /// re-analyzed during rebuild.
    fn merge(a: &mut Self::Data, b: Self::Data) -> (bool, bool);

    /// Optional hook run after a class's data is created or updated, with
    /// mutable access to the e-graph (e.g. to materialize a const-folded
    /// scalar node).
    fn modify(_egraph: &mut EGraph<Self>, _id: Id) {}
}

/// The trivial analysis: no data.
impl Analysis for () {
    type Data = ();
    fn make(_egraph: &EGraph<Self>, _enode: &ENode) {}
    fn merge(_a: &mut (), _b: ()) -> (bool, bool) {
        (false, false)
    }
}

/// An equivalence class of e-nodes.
#[derive(Debug, Clone)]
pub struct EClass<D> {
    /// Canonical id of this class.
    pub id: Id,
    /// The nodes in this class (children canonical as of the last rebuild).
    pub nodes: Vec<ENode>,
    /// The analysis data.
    pub data: D,
    /// Parent nodes: `(node, class-of-node)` pairs that reference this class.
    pub(crate) parents: Vec<(ENode, Id)>,
}

impl<D> EClass<D> {
    /// Iterates over the nodes in this class.
    pub fn iter(&self) -> impl Iterator<Item = &ENode> {
        self.nodes.iter()
    }

    /// Number of nodes in this class.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the class holds no nodes (never the case after `add`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A congruence-closed e-graph.
///
/// Follows the `egg` design: adds are hash-consed through `memo`; unions are
/// recorded in a union-find and invariants are restored in batch by
/// [`EGraph::rebuild`].
///
/// # Examples
///
/// ```
/// use entangle_egraph::{EGraph, ENode};
///
/// let mut eg = EGraph::<()>::default();
/// let x = eg.add(ENode::leaf("x"));
/// let y = eg.add(ENode::leaf("y"));
/// let fx = eg.add(ENode::op("f", vec![x]));
/// let fy = eg.add(ENode::op("f", vec![y]));
/// assert_ne!(eg.find(fx), eg.find(fy));
/// eg.union(x, y);
/// eg.rebuild();
/// // Congruence: x ≡ y ⇒ f(x) ≡ f(y).
/// assert_eq!(eg.find(fx), eg.find(fy));
/// ```
pub struct EGraph<A: Analysis> {
    unionfind: UnionFind,
    memo: FxHashMap<ENode, Id>,
    /// E-class arena, indexed by `Id::index()` in lockstep with the
    /// union-find: every id ever minted owns a slot. `Some` for canonical
    /// class roots; `None` for alias ids (proof endpoints that never carry
    /// a class) and for roots merged away by unions. A flat arena keeps the
    /// hot search/rebuild path on contiguous memory — class access is an
    /// index, not a hash — and makes [`EGraph::class_ids`] an in-order scan
    /// with no sort.
    classes: Vec<Option<EClass<A::Data>>>,
    /// Count of `Some` entries in `classes`, maintained by add/union so
    /// [`EGraph::num_classes`] stays O(1) (it is read per rule per
    /// saturation iteration for skip accounting).
    n_classes: usize,
    /// E-nodes across all classes, maintained where a class's node list
    /// changes (a new class adds one, a union moves nodes, a repair's dedup
    /// drops the duplicates) so [`EGraph::total_nodes`] is O(1): the runner
    /// reads it for the node limit and the report of every iteration.
    n_nodes: usize,
    /// Classes whose parents need congruence repair.
    pending: Vec<Id>,
    /// Classes whose data changed and whose parents need re-analysis.
    analysis_pending: Vec<Id>,
    /// Monotonic counter of successful (state-changing) unions.
    union_count: usize,
    /// Operator symbols ever added (presence index for search prefiltering;
    /// never shrinks, which only costs precision, not correctness).
    op_index: FxHashSet<Symbol>,
    /// Per-symbol class index: for every operator symbol, the ids of the
    /// classes created holding a node with that head symbol. Entries are
    /// appended at class creation and never removed; queries canonicalize
    /// through the union-find (see [`EGraph::classes_with_op`]), so stale
    /// ids only cost a `find` each, not correctness. This is the e-matching
    /// fast path: rule search visits only classes that can contain the
    /// pattern's head symbol.
    sym_classes: FxHashMap<Symbol, Vec<Id>>,
    /// Why unions happened (the proof graph behind [`EGraph::explain`] and
    /// [`EGraph::explain_equivalence`]).
    proof: ProofGraph,
    /// The exact node each id was created with (children as passed), making
    /// every id *term faithful*: [`EGraph::term_of`] reconstructs the
    /// literal term a caller built. Indexed by `Id`.
    orig: Vec<ENode>,
    /// Node form → a term-faithful id carrying exactly that form. Unlike
    /// `memo` (which only holds currently-canonical forms) this index never
    /// drops entries; it dedupes the alias ids that bridge uncanonical
    /// forms to their class.
    orig_memo: FxHashMap<ENode, Id>,
    /// Scratch for [`EGraph::repair`]: canonical parent form → faithful id,
    /// kept (empty) between calls so a repair reuses its allocation.
    repair_seen: FxHashMap<ENode, Id>,
    /// Scratch children buffer for [`EGraph::add_op`]'s memo probe.
    probe: Vec<Id>,
    /// User context available to analyses and conditions.
    pub analysis: A,
}

impl<A: Analysis + Default> Default for EGraph<A> {
    fn default() -> Self {
        Self::with_analysis(A::default())
    }
}

impl<A: Analysis> EGraph<A> {
    /// Creates an empty e-graph with the given analysis context.
    pub fn with_analysis(analysis: A) -> Self {
        EGraph {
            unionfind: UnionFind::default(),
            memo: FxHashMap::default(),
            classes: Vec::new(),
            n_classes: 0,
            n_nodes: 0,
            pending: Vec::new(),
            analysis_pending: Vec::new(),
            union_count: 0,
            op_index: FxHashSet::default(),
            sym_classes: FxHashMap::default(),
            proof: ProofGraph::default(),
            orig: Vec::new(),
            orig_memo: FxHashMap::default(),
            repair_seen: FxHashMap::default(),
            probe: Vec::new(),
            analysis,
        }
    }

    /// Total number of e-nodes across all classes.
    pub fn total_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of canonical e-classes.
    pub fn num_classes(&self) -> usize {
        self.n_classes
    }

    /// Entries in the hash-cons memo (canonical-form e-nodes). Tracked by
    /// the saturation telemetry as a proxy for deduplication pressure.
    pub fn memo_size(&self) -> usize {
        self.memo.len()
    }

    /// Count of state-changing unions performed so far; useful for
    /// saturation detection.
    pub fn union_count(&self) -> usize {
        self.union_count
    }

    /// `true` if any non-leaf node with this operator symbol was ever added
    /// — a cheap presence test letting rule search skip inapplicable rules.
    pub fn has_op(&self, sym: Symbol) -> bool {
        self.op_index.contains(&sym)
    }

    /// The canonical id of `id`.
    pub fn find(&self, id: Id) -> Id {
        self.unionfind.find_immutable(id)
    }

    /// Iterates over canonical classes, in ascending id order.
    pub fn classes(&self) -> impl Iterator<Item = &EClass<A::Data>> {
        self.classes.iter().flatten()
    }

    /// Canonical class ids (snapshot), sorted for deterministic iteration.
    ///
    /// The order matters: pattern search and extraction visit classes in
    /// this order, and tie-breaks (equal-cost extractions, proof-edge
    /// insertion order) inherit it. The arena scan is ascending by
    /// construction, so no sort is needed.
    pub fn class_ids(&self) -> Vec<Id> {
        self.classes
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| Id::from_index(i)))
            .collect()
    }

    /// Canonical ids of classes containing at least one node with head
    /// symbol `sym`, sorted and deduplicated — the e-matching fast path.
    ///
    /// Every node enters the e-graph through [`EGraph::add`], which indexes
    /// the freshly created class under the node's symbol; unions only merge
    /// classes, so canonicalizing the recorded ids through the union-find
    /// covers every class that currently holds such a node.
    ///
    /// The ids replace `out`'s contents; its allocation is kept, so the
    /// compiled matcher's per-iteration calls reuse one buffer.
    pub fn classes_with_op(&self, sym: Symbol, out: &mut Vec<Id>) {
        out.clear();
        if let Some(v) = self.sym_classes.get(&sym) {
            out.extend(
                v.iter()
                    .map(|&id| self.find(id))
                    .filter(|id| self.classes[id.index()].is_some()),
            );
        }
        out.sort();
        out.dedup();
    }

    /// Adds a node (hash-consed) and returns a *term-faithful* id: the
    /// returned id's recorded term ([`EGraph::term_of`]) is exactly the
    /// node passed, with each child expanded to its own recorded term.
    /// When the node's children are not canonical (or hash-consing lands
    /// on a class whose representative differs), a fresh alias id is
    /// minted and bridged to the class by a congruence proof edge, so
    /// explanations can start and end at literal caller-built terms.
    pub fn add(&mut self, enode: ENode) -> Id {
        if self.is_canonical(&enode) {
            // The common case during saturation (search-time ids after a
            // rebuild): probe with the node as given, no canonical copy.
            if let Some(&id) = self.memo.get(&enode) {
                debug_assert_eq!(
                    self.orig[id.index()],
                    enode,
                    "memo values are term-faithful"
                );
                return id;
            }
            return self.add_canonical(enode);
        }
        let canonical = enode.map_children(|c| self.find(c));
        let id = match self.memo.get(&canonical) {
            Some(&id) => {
                debug_assert_eq!(
                    self.orig[id.index()],
                    canonical,
                    "memo values are term-faithful"
                );
                id
            }
            None => self.add_canonical(canonical),
        };
        // Some child was not canonical, so `enode` differs from the form
        // `id` records: bridge it with an alias.
        self.alias(enode, id)
    }

    /// [`EGraph::add`] of `(sym children…)`, without allocating when the
    /// answer already exists — the node itself, or (for children an
    /// earlier union made stale) the alias bridging it to its class. That
    /// is the common case when a rewrite instantiates the left-hand side it
    /// just matched. The memos are probed through one reused buffer.
    pub fn add_op(&mut self, sym: Symbol, children: &[Id]) -> Id {
        let mut probe = std::mem::take(&mut self.probe);
        probe.clear();
        probe.extend(children.iter().map(|&c| self.find(c)));
        let canonical = probe[..] == *children;
        let mut node = ENode::Op(sym, probe);
        let mut hit = self.memo.get(&node).copied();
        if let (Some(id), false) = (hit, canonical) {
            // Stale children: `add` answers with the alias for the literal
            // node, when one is already bridged to `id`.
            if let ENode::Op(_, probe) = &mut node {
                probe.clear();
                probe.extend_from_slice(children);
            }
            hit = self
                .orig_memo
                .get(&node)
                .copied()
                .filter(|&a| self.find(a) == self.find(id));
        }
        if let ENode::Op(_, probe) = node {
            self.probe = probe;
        }
        hit.unwrap_or_else(|| self.add(ENode::Op(sym, children.to_vec())))
    }

    /// `true` when every child of `enode` is its class's canonical id.
    fn is_canonical(&self, enode: &ENode) -> bool {
        enode.children().iter().all(|&c| self.find(c) == c)
    }

    /// Creates a new class holding `canonical`, which the memo lacks.
    fn add_canonical(&mut self, canonical: ENode) -> Id {
        let id = self.unionfind.make_set();
        self.proof.make_set();
        self.classes.push(None); // arena slot, filled below
        self.orig.push(canonical.clone());
        self.orig_memo.entry(canonical.clone()).or_insert(id);
        if let ENode::Op(sym, ch) = &canonical {
            if !ch.is_empty() {
                self.op_index.insert(*sym);
            }
            self.sym_classes.entry(*sym).or_default().push(id);
        }
        let data = A::make(self, &canonical);
        let class = EClass {
            id,
            nodes: vec![canonical.clone()],
            data,
            parents: Vec::new(),
        };
        for &child in canonical.children() {
            self.classes[child.index()]
                .as_mut()
                .expect("child class must exist")
                .parents
                .push((canonical.clone(), id));
        }
        self.classes[id.index()] = Some(class);
        self.n_classes += 1;
        self.n_nodes += 1;
        self.memo.insert(canonical, id);
        A::modify(self, id);
        id
    }

    /// Mints (or reuses) an id whose recorded term is exactly `node`,
    /// equal to `target` by a congruence proof edge. The alias joins
    /// `target`'s union-find class but owns no [`EClass`]; it exists only
    /// as a proof endpoint.
    fn alias(&mut self, node: ENode, target: Id) -> Id {
        if let Some(&a) = self.orig_memo.get(&node) {
            if self.find(a) == self.find(target) {
                return a;
            }
        }
        let a = self.unionfind.make_set();
        self.proof.make_set();
        self.classes.push(None); // alias ids never own a class
        self.orig.push(node.clone());
        self.proof.union(target, a, Justification::Congruence);
        self.unionfind.union(target, a);
        self.orig_memo.insert(node, a);
        a
    }

    /// Adds every node of a [`RecExpr`], returning the root's class.
    pub fn add_expr(&mut self, expr: &RecExpr) -> Id {
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.nodes() {
            let mapped = node.map_children(|c| ids[c.index()]);
            ids.push(self.add(mapped));
        }
        *ids.last().expect("add_expr on empty RecExpr")
    }

    /// Looks up a node without inserting it.
    ///
    /// Children are canonicalized first. Returns the canonical class if the
    /// node is already represented.
    pub fn lookup(&self, enode: &ENode) -> Option<Id> {
        let hit = if self.is_canonical(enode) {
            self.memo.get(enode)
        } else {
            self.memo.get(&enode.map_children(|c| self.find(c)))
        };
        hit.map(|&id| self.find(id))
    }

    /// Looks up a whole expression without inserting; `None` if any node is
    /// absent. Used by *constrained lemmas* (§4.3.2): a generative rewrite
    /// only fires when its target already exists.
    pub fn lookup_expr(&self, expr: &RecExpr) -> Option<Id> {
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.nodes() {
            let mapped = node.map_children(|c| ids[c.index()]);
            ids.push(self.lookup(&mapped)?);
        }
        ids.last().copied()
    }

    /// Accesses a class by (possibly non-canonical) id.
    ///
    /// # Panics
    ///
    /// Panics if the id was never created by this e-graph.
    pub fn class(&self, id: Id) -> &EClass<A::Data> {
        let id = self.find(id);
        self.classes[id.index()].as_ref().expect("class must exist")
    }

    /// Mutable access to a class's data.
    pub fn data_mut(&mut self, id: Id) -> &mut A::Data {
        let id = self.find(id);
        &mut self.classes[id.index()]
            .as_mut()
            .expect("class must exist")
            .data
    }

    /// The parent nodes of a class: every e-node (in some class) that has
    /// this class as a child, as recorded (its children may predate later
    /// unions), borrowed. Used by constrained generative lemmas
    /// (§4.3.2) that must only fire when their target subterms already
    /// exist.
    pub fn parents(&self, id: Id) -> impl Iterator<Item = &ENode> {
        self.class(id).parents.iter().map(|(n, _)| n)
    }

    /// Unions two classes; returns `(root, changed)`.
    ///
    /// Invariants are *not* restored until [`EGraph::rebuild`] is called.
    pub fn union(&mut self, a: Id, b: Id) -> (Id, bool) {
        self.union_with(a, b, Justification::Given("union".to_owned()))
    }

    /// Like [`EGraph::union`], recording why the classes are equal; the
    /// justification is replayed by [`EGraph::explain`] and
    /// [`EGraph::explain_equivalence`]. The proof edge connects the ids
    /// *as passed* (term-faithful endpoints), not their class roots.
    pub fn union_with(&mut self, a: Id, b: Id, why: Justification) -> (Id, bool) {
        let (oa, ob) = (a, b);
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return (a, false);
        }
        self.proof.union(oa, ob, why);
        self.union_count += 1;
        // Union by parent-list size: keep the bigger class as root so fewer
        // parent links need to move.
        let (root, other) = {
            let parents_of = |id: Id| {
                self.classes[id.index()]
                    .as_ref()
                    .expect("class must exist")
                    .parents
                    .len()
            };
            if parents_of(a) >= parents_of(b) {
                (a, b)
            } else {
                (b, a)
            }
        };
        self.unionfind.union(root, other);
        let merged = self.classes[other.index()]
            .take()
            .expect("class must exist");
        self.n_classes -= 1;
        let class = self.classes[root.index()]
            .as_mut()
            .expect("class must exist");
        class.id = root;
        class.nodes.extend(merged.nodes);
        class.parents.extend(merged.parents);
        let (root_changed, _other_changed) = A::merge(&mut class.data, merged.data);
        self.pending.push(root);
        if root_changed {
            self.analysis_pending.push(root);
        }
        A::modify(self, root);
        (root, true)
    }

    /// Restores congruence closure and re-propagates analysis data.
    ///
    /// Must be called after a batch of unions before searching again; the
    /// [`crate::Runner`] does this automatically once per iteration.
    pub fn rebuild(&mut self) {
        loop {
            let mut made_progress = false;
            while let Some(id) = self.pending.pop() {
                made_progress = true;
                self.repair(id);
            }
            while let Some(id) = self.analysis_pending.pop() {
                made_progress = true;
                self.repair_analysis(id);
            }
            if !made_progress {
                break;
            }
        }
        // Flatten every union-find path once, so the (immutable) finds in
        // the upcoming search phase are single array reads.
        self.unionfind.compress_all();
        debug_assert!(self.check_memo_canonical());
        debug_assert_eq!(
            self.n_nodes,
            self.classes().map(EClass::len).sum::<usize>(),
            "running e-node count drifted from the classes"
        );
    }

    fn repair(&mut self, id: Id) {
        let id = self.find(id);
        let Some(class) = self.classes[id.index()].as_mut() else {
            return; // merged away by a union triggered from repair
        };
        let parents = std::mem::take(&mut class.parents);
        // First pass: remove stale memo entries.
        for (pnode, _) in &parents {
            self.memo.remove(pnode);
        }
        // Second pass: re-canonicalize, detect congruent duplicates. The
        // stored `pid` is the term-faithful id recorded for `pnode`
        // (`orig[pid] == pnode`), so every congruence union here connects
        // two same-operator nodes whose children were already equivalent —
        // exactly what a proof checker can validate. `seen` maps each
        // canonical form to a faithful id for that form, preserving the
        // memo invariant that memo values are term-faithful.
        let mut seen = std::mem::take(&mut self.repair_seen);
        for (pnode, pid) in parents {
            // A parent already in canonical form is its own canonical form.
            let fresh = self.is_canonical(&pnode);
            let canonical = if fresh {
                pnode
            } else {
                pnode.map_children(|c| self.find(c))
            };
            if let Some(&existing) = seen.get(&canonical) {
                if self.find(existing) != self.find(pid) {
                    self.union_with(existing, pid, Justification::Congruence);
                }
            } else if let Some(&memo_id) = self.memo.get(&canonical) {
                debug_assert_eq!(
                    self.orig[memo_id.index()],
                    canonical,
                    "memo values are term-faithful"
                );
                if self.find(memo_id) != self.find(pid) {
                    self.union_with(memo_id, pid, Justification::Congruence);
                }
                seen.insert(canonical, memo_id);
            } else if fresh {
                self.memo.insert(canonical.clone(), pid);
                seen.insert(canonical, pid);
            } else {
                // `pid`'s exact form went stale; mint a faithful id for
                // the canonical form, bridged by a congruence edge.
                let fid = self.alias(canonical.clone(), pid);
                self.memo.insert(canonical.clone(), fid);
                seen.insert(canonical, fid);
            }
        }
        let id = self.find(id);
        if let Some(class) = self.classes[id.index()].as_mut() {
            // Append the repaired parents the list (refilled by unions made
            // above) lacks. Sort them first: the parent-list order feeds
            // later repairs (and through them proof-edge insertion order),
            // so it must not depend on hasher state.
            let parents = &mut class.parents;
            let kept = parents.len();
            parents.extend(seen.drain());
            parents[kept..].sort();
            let mut end = kept;
            for at in kept..parents.len() {
                if !parents[..kept].iter().any(|(n, _)| *n == parents[at].0) {
                    parents.swap(end, at);
                    end += 1;
                }
            }
            parents.truncate(end);
            // Dedup the class's own nodes under the new canonicalization,
            // canonicalized in place.
            let before = class.nodes.len();
            for node in &mut class.nodes {
                if let ENode::Op(_, children) = node {
                    for c in children {
                        *c = self.unionfind.find_immutable(*c);
                    }
                }
            }
            class.nodes.sort();
            class.nodes.dedup();
            self.n_nodes -= before - class.nodes.len();
        }
        seen.clear();
        self.repair_seen = seen;
    }

    fn repair_analysis(&mut self, id: Id) {
        let id = self.find(id);
        let Some(class) = self.classes[id.index()].as_ref() else {
            return;
        };
        let parents: Vec<(ENode, Id)> = class.parents.clone();
        for (pnode, pid) in parents {
            let pid = self.find(pid);
            let new_data = A::make(self, &pnode.map_children(|c| self.find(c)));
            let class = self.classes[pid.index()]
                .as_mut()
                .expect("class must exist");
            let (changed, _) = A::merge(&mut class.data, new_data);
            if changed {
                self.analysis_pending.push(pid);
                A::modify(self, pid);
            }
        }
    }

    /// Debug invariant (hashcons completeness): the canonical form of every
    /// node in every class resolves through the memo back to that class.
    ///
    /// Note the memo may retain *stale* keys (non-canonical forms left over
    /// from earlier unions); those are unreachable — every lookup
    /// canonicalizes its query first — and therefore harmless. This mirrors
    /// egg's behaviour.
    fn check_memo_canonical(&self) -> bool {
        self.classes().all(|class| {
            class.nodes.iter().all(|n| {
                let canon = n.map_children(|c| self.find(c));
                self.memo.get(&canon).map(|&m| self.find(m)) == Some(class.id)
            })
        })
    }

    /// The literal term recorded for `id`: each id remembers the exact
    /// node it was created with, so this reconstructs what the caller
    /// built, independent of later unions. Shared subterms share slots.
    pub fn term_of(&self, id: Id) -> RecExpr {
        let mut out = RecExpr::default();
        let mut slots: HashMap<Id, Id> = HashMap::new();
        self.term_into(id, &mut out, &mut slots);
        out
    }

    fn term_into(&self, id: Id, out: &mut RecExpr, slots: &mut HashMap<Id, Id>) -> Id {
        if let Some(&slot) = slots.get(&id) {
            return slot;
        }
        let node = self.orig[id.index()].map_children(|c| self.term_into(c, out, slots));
        let slot = out.add(node);
        slots.insert(id, slot);
        slot
    }

    /// Explains why two ids are equivalent: the chain of union
    /// justifications (lemma names, congruence steps, caller-given facts)
    /// connecting them. Returns `None` when the ids were never proven
    /// equal. For full term-level proofs see
    /// [`EGraph::explain_equivalence`].
    ///
    /// # Examples
    ///
    /// ```
    /// use entangle_egraph::{EGraph, Justification, RecExpr, Rewrite, Runner};
    ///
    /// let rw: Rewrite<()> = Rewrite::parse("add-zero", "(add ?x 0)", "?x").unwrap();
    /// let mut eg = EGraph::<()>::default();
    /// let l = eg.add_expr(&"(add q 0)".parse::<RecExpr>().unwrap());
    /// let r = eg.add_expr(&"q".parse::<RecExpr>().unwrap());
    /// let mut runner = Runner::new(eg);
    /// runner.run(&[rw]);
    /// let reasons = runner.egraph.explain(l, r).unwrap();
    /// assert!(reasons
    ///     .iter()
    ///     .any(|j| matches!(j, Justification::Rule { name, .. } if name == "add-zero")));
    /// ```
    pub fn explain(&self, a: Id, b: Id) -> Option<Vec<Justification>> {
        if self.find(a) != self.find(b) {
            return None;
        }
        let path = self.proof.path(a, b, self.proof.num_edges())?;
        Some(
            path.iter()
                .map(|&(ei, _)| self.proof.edge(ei).2.clone())
                .collect(),
        )
    }

    /// Produces a step-by-step term-level [`Proof`] that `a ≡ b`: a chain
    /// of equations starting at [`EGraph::term_of`]`(a)` and ending at
    /// `term_of(b)`, each justified by a lemma application (with its
    /// substitution), a congruence step carrying per-child sub-proofs, or
    /// a caller-given fact. Returns `None` when the ids were never proven
    /// equal. The proof references no e-graph state, so an independent
    /// checker can validate it by term rewriting alone.
    pub fn explain_equivalence(&self, a: Id, b: Id) -> Option<Proof> {
        if self.find(a) != self.find(b) {
            return None;
        }
        Some(self.explain_path(a, b, self.proof.num_edges()))
    }

    fn explain_path(&self, a: Id, b: Id, limit: usize) -> Proof {
        let path = self
            .proof
            .path(a, b, limit)
            .expect("equivalent ids are edge-connected");
        let mut steps = Vec::with_capacity(path.len());
        for (ei, fwd) in path {
            let (x, y, why) = self.proof.edge(ei);
            let (from, to) = if fwd { (x, y) } else { (y, x) };
            let before = self.term_of(from);
            let after = self.term_of(to);
            let step = match why {
                Justification::Rule { name, subst } => ProofStep::Rule {
                    name: name.clone(),
                    // The recorded edge runs LHS-instantiation → RHS; a
                    // backwards traversal applies the lemma right-to-left.
                    forward: fwd,
                    subst: subst
                        .iter()
                        .map(|(v, id)| (v.as_str().to_owned(), self.term_of(id)))
                        .collect(),
                    before,
                    after,
                },
                Justification::Congruence => {
                    let nf = self.orig[from.index()].clone();
                    let nt = self.orig[to.index()].clone();
                    debug_assert_eq!(nf.children().len(), nt.children().len());
                    let children = nf
                        .children()
                        .iter()
                        .zip(nt.children())
                        .map(|(&ca, &cb)| self.explain_path(ca, cb, ei))
                        .collect();
                    ProofStep::Congruence {
                        before,
                        after,
                        children,
                    }
                }
                Justification::Given(fact) => ProofStep::Given {
                    fact: fact.clone(),
                    before,
                    after,
                },
            };
            steps.push(step);
        }
        Proof { steps }
    }

    /// Checks whether two expressions are currently known equivalent.
    pub fn equivs(&self, a: &RecExpr, b: &RecExpr) -> bool {
        match (self.lookup_expr(a), self.lookup_expr(b)) {
            (Some(x), Some(y)) => self.find(x) == self.find(y),
            _ => false,
        }
    }
}

impl<A: Analysis> fmt::Debug for EGraph<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EGraph {{ classes: {}, nodes: {} }}",
            self.num_classes(),
            self.total_nodes()
        )?;
        for class in self.classes() {
            write!(f, "  {}: ", class.id)?;
            for n in &class.nodes {
                write!(f, "{n} ")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl<A: Analysis> std::ops::Index<Id> for EGraph<A> {
    type Output = EClass<A::Data>;
    fn index(&self, id: Id) -> &Self::Output {
        self.class(id)
    }
}
