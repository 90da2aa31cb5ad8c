//! Certificate-chain composition: per-output numeric verdicts.
//!
//! A verified certificate proves each `G_s` tensor *equal in the e-graph
//! theory* to an expression over `G_d` tensors — but the theory includes
//! reassociating lemmas that are only equalities over the reals. This pass
//! walks the same proof chains the trusted kernel re-checks, in the form
//! the kernel resolved them into ([`Resolved`]: a term is a table entry, a
//! shape the kernel's inference), and gives every step kind its own rule,
//! as the kernel does:
//!
//! - a `Rule` step rewrites at the root of its `before` term, and the
//!   lemma holds whatever its `G_d` leaves hold. Its two terms are
//!   evaluated with every `G_d` tensor leaf an opaque atom tensor of the
//!   tensor's shape (synthetic `~ones[..]` leaves stay exact ones) and
//!   classified with the symbolic domain of [`crate::sym`], through the
//!   classifier a palette binding of [`crate::corpus`] takes. The leaves are
//!   renamed canonically first, so the verdict is memoised by rule,
//!   direction and leaf-abstracted terms — their structure, attributes and
//!   leaf shapes — and evaluated once per key;
//! - a `Congruence` step composes the verdicts of its argument sub-proofs,
//!   with no evaluation;
//! - `Given` steps are handled by fiat, mirroring the kernel's `given`: a
//!   `G_d` definition relates a tensor leaf to its defining operator
//!   application (bit-exact — both denote the very value the runtime
//!   computed), and a "mappings of" fact bridges two accepted mappings of
//!   one `G_s` tensor (a lookup of their verdicts);
//! - a mapping's verdict composes its chain with the verdicts of the input
//!   mappings its start term embeds, over the mapping DAG: a verdict
//!   carries its *cone*, the mappings whose own steps differ in rounding,
//!   each with the number of times its error enters the value. An
//!   operator linear in its inputs (an add, a concatenation) joins its
//!   input cones, each member as often as along either; any other (a
//!   product, a matmul of two computed values, attention) adds them, so a
//!   value read by two of its inputs counts twice. `k` sums each member's
//!   own count times its multiplicity (DESIGN.md, *Numeric-soundness
//!   analysis*, argues the bound).
//!
//! The result is advisory: it never fails refinement checking, it tells
//! the differential oracle *how* to compare (`bit-exact`, `within a
//! derived relative bound`, or `don't trust a tolerance at all`).

use std::borrow::Cow;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use entangle_cert::{Certificate, Fact, Resolved, Step};
use entangle_egraph::hashing::{FxHashMap, FxHashSet};
use entangle_egraph::{ENode, Id, RecExpr, Symbol};
use entangle_ir::{Graph, Op};
use entangle_lemmas::{parse_ones_leaf, Meta};
use entangle_lint::{codes, Anchor, Diagnostic};

use crate::eval::{const_dims, hash_term, node_hash, op_hash, Classifier, ElemHash, ARENA_CAP_MSG};
use crate::sym::{NumClass, Verdict};

/// Rounding-site counts above this are reported as too loose to be
/// meaningful ([`codes::NUM_LOOSE_BOUND`]): `(1+ε)^k − 1` at `k = 2³²` is
/// still ~1e-6, so anything beyond it signals an analysis artifact rather
/// than a usable bound.
pub const K_LOOSE: u64 = 1 << 32;

/// Verdict for one `R_o` output.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputVerdict {
    /// The `G_s` output tensor name.
    pub tensor: String,
    /// The composed verdict for its certified mapping.
    pub verdict: Verdict,
}

/// The per-certificate analysis result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CertAnalysis {
    /// Per `R_o` output, in certificate order.
    pub outputs: Vec<OutputVerdict>,
    /// Per derived mapping `(G_s tensor, verdict)`, in derivation order.
    pub mappings: Vec<(String, Verdict)>,
    /// NU diagnostics raised while walking the chains.
    pub diagnostics: Vec<Diagnostic>,
    /// Proof steps visited, congruence sub-proofs included.
    pub steps_analyzed: usize,
    /// `Rule` steps among them.
    pub rule_steps: usize,
    /// Distinct rule-step memo keys: the rule instances evaluated.
    pub rule_keys: usize,
    /// `Rule` steps answered from the memo instead.
    pub rule_hits: usize,
    /// Arena nodes the walk ended with, as stored.
    pub arena_nodes: usize,
    /// Operations those nodes stand for (what [`crate::sym::ARENA_CAP`] counts): a
    /// `Dot` node is the `2K − 1` multiply-adds of its fold.
    pub modelled_nodes: usize,
    /// Distinct subterms of the rule-step keys, each evaluated once.
    pub subterms: usize,
    /// Subterm occurrences answered from the subterm table instead.
    pub subterm_hits: usize,
    /// Microseconds in rule steps outside evaluation and classification:
    /// hashing their terms, building keys, looking them up.
    pub key_us: u64,
    /// Microseconds evaluating the terms of new keys: the hash pass, and
    /// the arena for the keys it does not settle.
    pub eval_us: u64,
    /// Microseconds classifying the evaluated term pairs.
    pub classify_us: u64,
    /// Microseconds of the walk outside rule steps: composing cones over
    /// input mappings, `Given` and `Congruence` steps, outputs.
    pub compose_us: u64,
    /// `Dot` nodes interned: one per distinct matmul element.
    pub dots: u64,
    /// Differing element pairs that ran the difference expansion.
    pub classified_pairs: u64,
    /// Nodes those expansions unfolded, in total.
    pub expansions: u64,
    /// The `Dot`s among them: the matmul elements a proof step looked
    /// inside.
    pub dots_unfolded: u64,
    /// `Sum` atoms those `Dot`s wrote: runs of products a shard of the
    /// contraction covered, kept folded so they cancel as one.
    pub sum_atoms: u64,
    /// Bytes of the arena's nodes, intern tables and side tables.
    pub arena_bytes: usize,
    /// `true` when [`crate::analyze_certificate_cached`] answered from its
    /// memo instead of walking the chains.
    pub replayed: bool,
}

impl CertAnalysis {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == entangle_lint::Severity::Error)
            .count()
    }

    /// `true` when no error-severity diagnostics were raised.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// The verdict for a named output, if present.
    pub fn output_verdict(&self, tensor: &str) -> Option<&Verdict> {
        self.outputs
            .iter()
            .find(|o| o.tensor == tensor)
            .map(|o| &o.verdict)
    }

    /// Why an output is `unknown`: the first [`codes::NUM_UNCLASSIFIED`]
    /// message, when the walk raised one.
    pub fn unclassified_reason(&self) -> Option<&str> {
        self.diagnostics
            .iter()
            .find(|d| d.code == codes::NUM_UNCLASSIFIED)
            .map(|d| d.message.as_str())
    }
}

/// What a verdict depends on: the class joined over every step it rests
/// on, and its cone — the certificate mappings (by index) whose own steps
/// contribute rounding sites, each with the number of times its error
/// enters the value (a multiset, sorted by index).
#[derive(Debug, Clone)]
struct Cone {
    class: NumClass,
    members: Vec<(u32, u64)>,
}

impl Cone {
    fn exact() -> Cone {
        Cone {
            class: NumClass::BitExact,
            members: Vec::new(),
        }
    }

    /// Classes join; each member's multiplicity becomes `f` of its two.
    fn merge(&mut self, o: &Cone, f: impl Fn(u64, u64) -> u64) {
        self.class = self.class.max(o.class);
        let (a, b) = (std::mem::take(&mut self.members), &o.members);
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let x = a.get(i).map_or(u32::MAX, |m| m.0);
            let y = b.get(j).map_or(u32::MAX, |m| m.0);
            let at = x.min(y);
            let p = if x == at {
                i += 1;
                a[i - 1].1
            } else {
                0
            };
            let q = if y == at {
                j += 1;
                b[j - 1].1
            } else {
                0
            };
            let n = f(p, q);
            if n > 0 {
                self.members.push((at, n));
            }
        }
    }

    /// A linear join (an add, a concatenation): each member enters as
    /// often as along either side.
    fn join(&mut self, o: &Cone) {
        self.merge(o, u64::max);
    }

    /// A product-like join: the relative errors of the factors add, so
    /// do the multiplicities.
    fn add(&mut self, o: &Cone) {
        self.merge(o, u64::saturating_add);
    }

    /// A "mappings of" bridge swaps the value `from` for `to` where it is
    /// read: `from` is joined in (the running cone already holds it when
    /// the start term read it), then what `to` has beyond it is added.
    fn swap(&mut self, from: &Cone, to: &Cone) {
        self.join(from);
        let mut beyond = to.clone();
        beyond.merge(from, u64::saturating_sub);
        self.add(&beyond);
    }

    /// The verdict: `k` sums each member's own site count times its
    /// multiplicity.
    fn verdict(&self, own_k: &[u64]) -> Verdict {
        let k = self.members.iter().fold(0u64, |k, &(m, n)| {
            k.saturating_add(own_k[m as usize].saturating_mul(n))
        });
        Verdict {
            class: self.class,
            k,
        }
    }
}

/// Whether `op` is linear in its tensor inputs — a value read by two of
/// them enters its output no more often than along one — so input cones
/// join instead of adding. Single-input operators never join two cones.
fn joins_linearly(op: &Op) -> bool {
    matches!(
        op,
        Op::Add
            | Op::Sub
            | Op::Maximum
            | Op::Concat { .. }
            | Op::AllReduce
            | Op::ReduceScatter { .. }
    )
}

/// The constant dims of a tensor's metadata.
fn dims_of(meta: &Meta) -> Result<Vec<usize>, String> {
    let shape = meta
        .shape
        .as_ref()
        .ok_or("a scalar where a tensor was expected")?;
    const_dims(shape).ok_or_else(|| format!("symbolic shape {shape}"))
}

/// A rule step's terms with bindings and leaves renamed
/// ([`ChainCtx::abstract_step`]).
pub(crate) struct Abstracted {
    /// The structural hashes of the two renamed terms.
    key: (ElemHash, ElemHash),
    /// The renamed terms themselves, when asked for.
    pub(crate) terms: Option<(RecExpr, RecExpr)>,
}

/// A rule step's memo key: the lemma, its direction, and the 128-bit
/// structural hashes of its two abstracted terms.
type RuleKey = (Symbol, bool, ElemHash, ElemHash);

/// Shared state for one certificate walk.
pub(crate) struct ChainCtx<'r> {
    /// The certificate as the kernel resolved it: terms are its entries.
    cert: &'r Resolved<'r>,
    /// Evaluates and classifies the rule instances of new keys.
    pub(crate) instances: Classifier,
    /// Accepted mappings per `G_s` tensor with their cones, mirroring the
    /// kernel's accepted-mapping table (`R_i` axioms have none).
    accepted: HashMap<&'r str, Vec<(Id, Cone)>>,
    /// Each mapping's own rounding-site count, by certificate index.
    own_k: Vec<u64>,
    /// Each atom by prefix, position and the entry it stands for.
    atoms: FxHashMap<(char, usize, Id), Symbol>,
    /// Rule-step verdicts by key.
    rule_memo: FxHashMap<RuleKey, Result<Verdict, String>>,
    /// Binding-abstracted keys whose verdict held no bound: their steps
    /// are keyed by leaves alone.
    specific: FxHashSet<RuleKey>,
    diagnostics: Vec<Diagnostic>,
    /// The arena-cap warning is out: past the cap every later rule step
    /// leaves the model for the same reason, reported once.
    cap_reported: bool,
    steps: usize,
    rule_steps: usize,
    rule_hits: usize,
    /// Time in rule steps, their evaluation and classification included.
    rule_time: Duration,
}

impl<'r> ChainCtx<'r> {
    /// A walk of `cert` that has visited nothing yet.
    pub(crate) fn new(cert: &'r Resolved<'r>) -> ChainCtx<'r> {
        ChainCtx {
            cert,
            instances: Classifier::default(),
            accepted: HashMap::new(),
            own_k: Vec::with_capacity(cert.mappings().len()),
            atoms: FxHashMap::default(),
            rule_memo: FxHashMap::default(),
            specific: FxHashSet::default(),
            diagnostics: Vec::new(),
            cap_reported: false,
            steps: 0,
            rule_steps: 0,
            rule_hits: 0,
            rule_time: Duration::ZERO,
        }
    }

    /// NU05: `what` left the model because of `why`.
    fn left_model(&mut self, anchor: Anchor, what: String, why: &str) {
        if why == ARENA_CAP_MSG && std::mem::replace(&mut self.cap_reported, true) {
            return;
        }
        self.diagnostics.push(Diagnostic::warning(
            codes::NUM_UNCLASSIFIED,
            anchor,
            format!("{what} left the model: {why}"),
        ));
    }

    /// The atom named `prefix` + position `at` for the entry `of` (a leaf
    /// or a binding) of the shape the kernel inferred for it, cached per
    /// triple.
    fn atom(&mut self, prefix: char, at: usize, of: Id) -> Result<Symbol, String> {
        if let Some(&sym) = self.atoms.get(&(prefix, at, of)) {
            return Ok(sym);
        }
        let dims = dims_of(self.cert.meta(of)?)?;
        let sym = self.instances.atom(prefix, at, dims);
        self.atoms.insert((prefix, at, of), sym);
        Ok(sym)
    }

    /// A rule step's key: the structural hashes of both terms with every
    /// tensor binding of `subst` (when `generic`) and every other `G_d`
    /// leaf renamed to an atom of its shape, named by position of first
    /// occurrence (`?` bindings, `$` leaves); with the renamed terms
    /// themselves when `build`.
    pub(crate) fn abstract_step(
        &mut self,
        subst: &[(Cow<'_, str>, Id)],
        [before, after]: [Id; 2],
        generic: bool,
        build: bool,
    ) -> Result<Abstracted, String> {
        let mut bindings: Vec<Id> = Vec::new();
        if generic {
            for &(_, term) in subst {
                if self.cert.meta(term)?.shape.is_some() {
                    bindings.push(term);
                }
            }
        }
        let mut names = (Vec::new(), Vec::new());
        let (hb, b) = self.abstract_term(before, &bindings, &mut names, build)?;
        let (ha, a) = self.abstract_term(after, &bindings, &mut names, build)?;
        Ok(Abstracted {
            key: (hb, ha),
            terms: b.zip(a),
        })
    }

    /// One term of [`ChainCtx::abstract_step`]: the entries reachable from
    /// `root` without entering a binding, with bindings and leaves renamed;
    /// `names` holds the bindings and leaves named so far. Positions count
    /// in first-visit post-order (children left to right) over the whole
    /// term, bindings' insides included: the order in which a term spelled
    /// with shared subterms lists its slots.
    fn abstract_term(
        &mut self,
        root: Id,
        bindings: &[Id],
        (named, leaves): &mut (Vec<Id>, Vec<Symbol>),
        build: bool,
    ) -> Result<(ElemHash, Option<RecExpr>), String> {
        let cert = self.cert;
        let mut order: Vec<Id> = Vec::new();
        let mut pos: FxHashMap<Id, usize> = FxHashMap::default();
        let mut stack = vec![(root, 0)];
        while let Some((id, next)) = stack.last_mut() {
            match cert.node(*id).children().get(*next) {
                Some(child) => {
                    *next += 1;
                    if !pos.contains_key(child) {
                        stack.push((*child, 0));
                    }
                }
                None => {
                    pos.insert(*id, order.len());
                    order.push(*id);
                    stack.pop();
                }
            }
        }
        let binding = |id: Id| bindings.iter().position(|&b| b == id);
        let mut live = vec![false; order.len()];
        live[order.len() - 1] = true;
        for i in (0..order.len()).rev() {
            if live[i] && binding(order[i]).is_none() {
                for c in cert.node(order[i]).children() {
                    live[pos[c]] = true;
                }
            }
        }
        let mut out = build.then(|| RecExpr::with_capacity(order.len()));
        let mut slot: Vec<(ElemHash, Id)> = Vec::with_capacity(order.len());
        for (i, &id) in order.iter().enumerate() {
            if !live[i] {
                slot.push(((0, 0), Id::from_index(0)));
                continue;
            }
            let node = cert.node(id);
            let atom = if let Some(j) = binding(id) {
                let b = bindings[j];
                let at = named.iter().position(|&n| n == b).unwrap_or_else(|| {
                    named.push(b);
                    named.len() - 1
                });
                Some(self.atom('?', at, b)?)
            } else {
                match node {
                    ENode::Op(sym, ch)
                        if ch.is_empty() && matches!(parse_ones_leaf(sym.as_str()), Ok(None)) =>
                    {
                        let at = leaves.iter().position(|l| l == sym).unwrap_or_else(|| {
                            leaves.push(*sym);
                            leaves.len() - 1
                        });
                        Some(self.atom('$', at, id)?)
                    }
                    _ => None,
                }
            };
            let h = match atom {
                Some(sym) => op_hash(sym, std::iter::empty()),
                None => node_hash(node, |c| slot[pos[&c]].0),
            };
            let built = match &mut out {
                Some(out) => out.add(match atom {
                    Some(sym) => ENode::Op(sym, Vec::new()),
                    None => node.map_children(|c| slot[pos[&c]].1),
                }),
                None => Id::from_index(0),
            };
            slot.push((h, built));
        }
        Ok((slot[slot.len() - 1].0, out))
    }

    /// The verdict of one rule instance, evaluated once per key. The key
    /// abstracts the lemma's bindings: the lemma holds for any values of
    /// its variables, so a bit-exact or reassociation verdict over opaque
    /// bindings holds for these. Any other verdict may come from what the
    /// abstraction hid (a binding of exact ones, a leaf shared with a
    /// binding), so the step is classified again with only its leaves
    /// abstracted, and keyed so.
    fn rule_verdict(
        &mut self,
        name: &str,
        forward: bool,
        subst: &[(Cow<'_, str>, Id)],
        terms: [Id; 2],
    ) -> Result<Verdict, String> {
        let start = Instant::now();
        self.rule_steps += 1;
        let v = self.rule_instance(Symbol::new(name), forward, subst, terms);
        self.rule_time += start.elapsed();
        v
    }

    /// [`ChainCtx::rule_verdict`], untimed.
    fn rule_instance(
        &mut self,
        rule: Symbol,
        forward: bool,
        subst: &[(Cow<'_, str>, Id)],
        terms: [Id; 2],
    ) -> Result<Verdict, String> {
        for generic in [true, false] {
            let (b, a) = self.abstract_step(subst, terms, generic, false)?.key;
            let key = (rule, forward, b, a);
            if let Some(v) = self.rule_memo.get(&key) {
                self.rule_hits += 1;
                return v.clone();
            }
            if generic && self.specific.contains(&key) {
                continue;
            }
            let built = self.abstract_step(subst, terms, generic, true)?.terms;
            let (b, a) = built.expect("built on request");
            let v = self.classify(&b, &a);
            if generic && v.as_ref().is_ok_and(|v| v.class > NumClass::Reassoc) {
                self.specific.insert(key);
                continue;
            }
            self.rule_memo.insert(key, v.clone());
            return v;
        }
        unreachable!("the leaf-abstracted key always returns")
    }

    /// Classifies an abstracted term pair: bit-exact when the element
    /// hashes of the two sides agree everywhere, else by the shared
    /// [`Classifier`]. The hash pass stays in front of it, here only: it
    /// pays on certificate keys, most of them data movement, and not on
    /// palette bindings, which never repeat.
    fn classify(&mut self, before: &RecExpr, after: &RecExpr) -> Result<Verdict, String> {
        let start = Instant::now();
        let instances = &self.instances;
        let dims = &|name: &str| instances.atom_dims(name);
        // `after` is hashed only when `before` has hashes to compare with.
        let exact = hash_term(before, dims).is_some_and(|b| hash_term(after, dims) == Some(b));
        self.instances.eval_time += start.elapsed();
        if exact {
            Ok(Verdict::exact())
        } else {
            self.instances.classify(before, after)
        }
    }

    /// The cone of the accepted mapping `expr` of `tensor`.
    fn lookup(&self, tensor: &str, expr: Id) -> Option<&Cone> {
        self.accepted
            .get(tensor)?
            .iter()
            .find(|&&(e, _)| e == expr)
            .map(|(_, c)| c)
    }

    /// Composes a chain of steps into `cone` and returns the rounding sites
    /// its own rule steps add.
    fn chain(&mut self, mapping: &str, steps: &[Step<'_>], cone: &mut Cone) -> u64 {
        steps.iter().fold(0u64, |k, step| {
            k.saturating_add(self.step(mapping, step, cone))
        })
    }

    /// Composes one proof step into `cone` and returns the rounding sites
    /// it adds, with NU01/NU05 reporting.
    fn step(&mut self, mapping: &str, step: &Step<'_>, cone: &mut Cone) -> u64 {
        self.steps += 1;
        match step {
            Step::Given {
                fact,
                before,
                after,
            } => {
                match fact {
                    // Both sides denote the value G_d actually computes for
                    // this operator's output: bit-exact by construction.
                    Fact::Definition(_) => {}
                    Fact::Mappings(t) => match (self.lookup(t, *before), self.lookup(t, *after)) {
                        (Some(ca), Some(cb)) => {
                            let (ca, cb) = (ca.clone(), cb.clone());
                            cone.swap(&ca, &cb);
                        }
                        _ => {
                            self.diagnostics.push(Diagnostic::warning(
                                codes::NUM_UNCLASSIFIED,
                                Anchor::Graph,
                                format!(
                                    "mapping {mapping}: given step references unanalyzed \
                                     mappings of {t}"
                                ),
                            ));
                            cone.class = cone.class.max(NumClass::Unknown);
                        }
                    },
                    Fact::Unrecognized(fact) => {
                        self.diagnostics.push(Diagnostic::warning(
                            codes::NUM_UNCLASSIFIED,
                            Anchor::Graph,
                            format!("mapping {mapping}: unrecognized given fact {fact:?}"),
                        ));
                        cone.class = cone.class.max(NumClass::Unknown);
                    }
                }
                0
            }
            Step::Rule {
                name,
                forward,
                subst,
                before,
                after,
            } => match self.rule_verdict(name, *forward, subst, [*before, *after]) {
                Ok(v) => {
                    if v.class == NumClass::ValueChanging {
                        let (before, after) = (self.cert.show(*before), self.cert.show(*after));
                        self.diagnostics.push(
                            Diagnostic::error(
                                codes::NUM_VALUE_CHANGING,
                                Anchor::Lemma(name.to_string()),
                                format!(
                                    "mapping {mapping}: step by lemma {name} changes the \
                                         computed value: {before} vs {after}"
                                ),
                            )
                            .with_suggestion(
                                "the certified chain is not numerically sound; do not \
                                     compare these outputs within any tolerance",
                            ),
                        );
                    }
                    cone.class = cone.class.max(v.class);
                    v.k
                }
                Err(why) => {
                    self.left_model(
                        Anchor::Lemma(name.to_string()),
                        format!("mapping {mapping}: step by lemma {name}"),
                        &why,
                    );
                    cone.class = cone.class.max(NumClass::Unknown);
                    0
                }
            },
            // Each argument's sub-proof rewrites one child of the operator.
            // An element of a concatenation is an element of exactly one
            // argument, so it carries that argument's sites only; any other
            // operator may read every argument into one element.
            Step::Congruence {
                before, children, ..
            } => {
                let concat = matches!(self.cert.node(*before), ENode::Op(sym, _)
                    if sym.as_str() == Op::Concat { dim: 0 }.name());
                let mut k = 0u64;
                for child in children {
                    let ck = self.chain(mapping, child, cone);
                    k = if concat {
                        k.max(ck)
                    } else {
                        k.saturating_add(ck)
                    };
                }
                k
            }
        }
    }
}

/// Analyzes a (kernel-accepted) certificate: walks every mapping's proof
/// chain, composes per-step verdicts with the verdicts of the input
/// mappings the chain starts from, and derives one verdict per `R_o`
/// output.
///
/// `gs` is the sequential graph (for operator input lookup), `gd` the
/// distributed graph (for leaf shapes). The certificate is resolved first,
/// as the kernel resolves it ([`entangle_cert::resolve`]); a caller that
/// has the kernel's own resolution calls [`analyze_resolved`] on it.
pub fn analyze_certificate(cert: &Certificate, gs: &Graph, gd: &Graph) -> CertAnalysis {
    analyze_resolved(&entangle_cert::resolve(cert, gd), gs)
}

/// [`analyze_certificate`] on a certificate the kernel has resolved: every
/// term is an entry of its table, every leaf and binding shape the kernel's
/// inference.
pub fn analyze_resolved(cert: &Resolved<'_>, gs: &Graph) -> CertAnalysis {
    let mut ctx = ChainCtx::new(cert);

    let start = Instant::now();
    // R_i mappings are the certificate's axioms: the related inputs are
    // fed bit-identically on both sides, so they are exact by fiat.
    for (tensor, ids) in cert.inputs() {
        let entry = ctx.accepted.entry(tensor).or_default();
        entry.extend(ids.iter().map(|&id| (id, Cone::exact())));
    }

    let mut mapping_verdicts = Vec::with_capacity(cert.mappings().len());
    for (index, mc) in cert.mappings().iter().enumerate() {
        // Input cones: the chain's start term applies the G_s operator to
        // these already-accepted expressions, so their errors feed
        // straight into this mapping's output — joined by a linear
        // operator, added by any other.
        let mut cone = Cone::exact();
        if let Some(node) = gs.node_by_name(&mc.operator) {
            let linear = joins_linearly(&node.op);
            for (i, &input_expr) in mc.inputs.iter().enumerate() {
                let input = node
                    .inputs
                    .get(i)
                    .map(|&t| gs.tensor(t).name.as_str())
                    .and_then(|name| ctx.lookup(name, input_expr))
                    .cloned();
                match input {
                    Some(c) if linear => cone.join(&c),
                    Some(c) => cone.add(&c),
                    None => {
                        ctx.diagnostics.push(Diagnostic::warning(
                            codes::NUM_UNCLASSIFIED,
                            Anchor::Graph,
                            format!(
                                "mapping {}: input {i} is not an analyzed mapping",
                                mc.tensor
                            ),
                        ));
                        cone.class = cone.class.max(NumClass::Unknown);
                    }
                }
            }
        } else {
            ctx.diagnostics.push(Diagnostic::warning(
                codes::NUM_UNCLASSIFIED,
                Anchor::Graph,
                format!(
                    "mapping {}: unknown G_s operator {}",
                    mc.tensor, mc.operator
                ),
            ));
            cone.class = cone.class.max(NumClass::Unknown);
        }

        let own = ctx.chain(&mc.tensor, &mc.proof, &mut cone);
        ctx.own_k.push(own);
        if own > 0 {
            cone.add(&Cone {
                class: NumClass::BitExact,
                members: vec![(index as u32, 1)],
            });
        }
        let verdict = cone.verdict(&ctx.own_k);

        if verdict.class == NumClass::Reassoc && verdict.k > K_LOOSE {
            ctx.diagnostics.push(Diagnostic::warning(
                codes::NUM_LOOSE_BOUND,
                Anchor::Graph,
                format!(
                    "mapping {}: derived rounding-site count {} exceeds the looseness \
                     threshold; the relative bound is not meaningful",
                    mc.tensor, verdict.k
                ),
            ));
        }

        ctx.accepted
            .entry(&mc.tensor)
            .or_default()
            .push((mc.expr, cone));
        mapping_verdicts.push((mc.tensor.to_string(), verdict));
    }

    let mut outputs = Vec::with_capacity(cert.outputs().len());
    for (tensor, expr) in cert.outputs() {
        let verdict = match ctx.lookup(tensor, *expr) {
            Some(c) => c.verdict(&ctx.own_k),
            None => {
                ctx.diagnostics.push(Diagnostic::warning(
                    codes::NUM_UNCLASSIFIED,
                    Anchor::Graph,
                    format!("output {tensor}: expression is not an analyzed mapping"),
                ));
                Verdict::unknown()
            }
        };
        outputs.push(OutputVerdict {
            tensor: tensor.to_string(),
            verdict,
        });
    }

    let walk = start.elapsed();
    let micros = |d: Duration| d.as_micros() as u64;
    let Classifier {
        arena,
        table,
        eval_time,
        classify_time,
        ..
    } = ctx.instances;
    let stats = arena.stats();
    CertAnalysis {
        outputs,
        mappings: mapping_verdicts,
        diagnostics: ctx.diagnostics,
        steps_analyzed: ctx.steps,
        rule_steps: ctx.rule_steps,
        rule_keys: ctx.rule_memo.len(),
        rule_hits: ctx.rule_hits,
        arena_nodes: arena.len(),
        modelled_nodes: arena.modelled(),
        subterms: table.subterms(),
        subterm_hits: table.hits(),
        key_us: micros(ctx.rule_time.saturating_sub(eval_time + classify_time)),
        eval_us: micros(eval_time),
        classify_us: micros(classify_time),
        compose_us: micros(walk.saturating_sub(ctx.rule_time)),
        dots: stats.dots,
        classified_pairs: stats.classified_pairs,
        expansions: stats.expansions,
        dots_unfolded: stats.dots_unfolded,
        sum_atoms: stats.sum_atoms,
        arena_bytes: arena.bytes(),
        replayed: false,
    }
}
