//! The trusted kernel: engine-independent certificate validation.
//!
//! Validation never consults the saturation e-graph that produced the
//! certificate. Every proof step is an equation between two *concrete
//! terms*; the kernel checks it by pattern matching and substitution over
//! those terms, re-inferring shapes and dtypes at every step.
//!
//! One verification owns one private context (`Kernel`), which lives
//! and dies with the call. It interns every term it is handed into a
//! hash-consed [`TermTable`] — once per [`RecExpr`], comparing nodes, never
//! hashes — after which "the same term" is id equality and shape inference
//! is a memo per id: a term that a proof spells seventy times is compared
//! and inferred once. The ids are the kernel's own; the ids of a
//! certificate file are a compression its reader expands and the kernel
//! never sees.
//!
//! Two step kinds go beyond pure term rewriting:
//!
//! - *Given* facts are only trusted when they restate a `G_d` operator
//!   definition (the kernel re-encodes the operator itself) or connect two
//!   already-accepted mappings of one `G_s` tensor.
//! - Conditioned and dynamic lemmas (whose right-hand sides are computed
//!   by closures) are *replayed* in the context's scratch e-graph, which
//!   receives exactly the terms such steps mention. The replay must fire
//!   the lemma's own condition/applier on the step's source term and
//!   reproduce the target term, and the graph must never have performed a
//!   union: every class is then a singleton, matching one class is
//!   matching one term, and the graph is a hash-consed term store, never a
//!   search engine. Symbolic side conditions are discharged by
//!   `entangle-symbolic` through the lemma's condition closure.

use std::collections::{HashMap, HashSet};

use entangle_egraph::{EGraph, ENode, Id, PatternAst, Proof, ProofStep, RecExpr, Rewrite, Var};
use entangle_ir::{DType, Dim, Graph, Op, Shape};
use entangle_lemmas::{infer_application, parse_ones_leaf, Meta, TensorAnalysis};
use entangle_symbolic::{SymCtx, SymExpr};

use crate::cert::{CertError, Certificate, MappingCert};
use crate::table::{TermTable, Terms};

/// Accepted mappings per `G_s` tensor name, as entries of the context's
/// term table, grown as mapping certificates are validated in order.
pub(crate) type Accepted<'a> = HashMap<&'a str, Vec<Id>>;

/// What one kernel run did, for whoever records telemetry (the kernel
/// itself touches no registry and no tracer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelReport {
    /// Distinct subterms the verification met (term-table entries).
    pub terms: usize,
    /// Term slots interned to find them — what a kernel without the table
    /// would compare and re-infer one by one.
    pub slots: usize,
    /// Conditioned/dynamic rule steps replayed in the scratch e-graph.
    pub replays: usize,
    /// E-nodes in the scratch e-graph when the verification ended.
    pub scratch_nodes: usize,
}

impl KernelReport {
    /// The counts as span attributes, under the names traces use.
    pub fn attrs(&self) -> [(&'static str, usize); 4] {
        [
            ("terms", self.terms),
            ("slots", self.slots),
            ("replays", self.replays),
            ("scratch_nodes", self.scratch_nodes),
        ]
    }
}

/// Re-checks a [`Certificate`] against the graph pair, the lemma corpus
/// and the symbolic context.
///
/// The input relation in `cert.inputs` is the certificate's axiom set: the
/// kernel validates that each entry is a well-formed expression over `G_d`
/// tensors with the mapped tensor's shape and dtype, then takes it as
/// given — exactly the paper's trust model for `R_i`. Everything else is
/// re-derived: each [`MappingCert`] must start from the kernel's own
/// encoding of its `G_s` operator over accepted input mappings, every
/// proof step must be justified, and the output relation must consist of
/// accepted mappings over `G_d` *output* tensors only.
///
/// # Errors
///
/// [`CertError::Malformed`] for structurally unusable certificates,
/// [`CertError::Rejected`] when a proof fails validation.
pub fn verify(
    cert: &Certificate,
    gs: &Graph,
    gd: &Graph,
    lemmas: &[Rewrite<TensorAnalysis>],
    ctx: &SymCtx,
) -> Result<(), CertError> {
    verify_reporting(cert, gs, gd, lemmas, ctx).0
}

/// [`verify`], also returning the run's [`KernelReport`] (filled as far as
/// the verification got when it refuses the certificate).
pub fn verify_reporting(
    cert: &Certificate,
    gs: &Graph,
    gd: &Graph,
    lemmas: &[Rewrite<TensorAnalysis>],
    ctx: &SymCtx,
) -> (Result<(), CertError>, KernelReport) {
    let mut kernel = Kernel::new(gs, gd, lemmas, ctx);
    let verdict = kernel.certificate(cert);
    (verdict, kernel.report())
}

/// Validates a single [`MappingCert`] against an explicitly supplied
/// accepted-mapping set (`G_s` input tensor name → accepted expressions).
///
/// This is the entry point the checker's template instantiation uses: an
/// instantiated mapping is kernel-checked *eagerly*, before it may enter
/// the relation, under exactly the rules [`verify`] applies per mapping —
/// the proof must start from the kernel's own operator encoding, every
/// step must be justified, and the result must re-infer to the `G_s`
/// tensor's shape and dtype.
///
/// # Errors
///
/// [`CertError::Malformed`] for an unknown operator,
/// [`CertError::Rejected`] when the chain fails validation.
pub fn verify_mapping(
    mc: &MappingCert,
    gs: &Graph,
    gd: &Graph,
    lemmas: &[Rewrite<TensorAnalysis>],
    ctx: &SymCtx,
    accepted: &HashMap<String, Vec<RecExpr>>,
) -> Result<(), CertError> {
    let mut kernel = Kernel::new(gs, gd, lemmas, ctx);
    let accepted: Accepted = accepted
        .iter()
        .map(|(name, exprs)| {
            let ids = exprs.iter().map(|e| kernel.intern(e)).collect();
            (name.as_str(), ids)
        })
        .collect();
    kernel.mapping(mc, &accepted).map(|_| ())
}

/// The state of one verification; see the module documentation.
pub(crate) struct Kernel<'a> {
    gs: &'a Graph,
    gd: &'a Graph,
    lemmas: HashMap<&'a str, &'a Rewrite<TensorAnalysis>>,
    /// Every term met so far. Equality of terms is equality of entries.
    table: TermTable,
    /// Inferred metadata (or why inference fails) per table entry, kept
    /// level with the table: an entry is inferred once, from its
    /// children's memoised results.
    metas: Vec<Result<Meta, String>>,
    /// The union-free e-graph replayed steps run in, and the class of each
    /// table entry added to it so far.
    scratch: EGraph<TensorAnalysis>,
    in_scratch: Vec<Option<Id>>,
    /// Counts for the [`KernelReport`].
    slots: usize,
    replays: usize,
}

impl<'a> Kernel<'a> {
    pub(crate) fn new(
        gs: &'a Graph,
        gd: &'a Graph,
        lemmas: &'a [Rewrite<TensorAnalysis>],
        ctx: &SymCtx,
    ) -> Kernel<'a> {
        Kernel {
            gs,
            gd,
            lemmas: lemmas.iter().map(|r| (r.name(), r)).collect(),
            table: TermTable::default(),
            metas: Vec::new(),
            scratch: EGraph::with_analysis(TensorAnalysis::with_ctx(ctx.clone())),
            in_scratch: Vec::new(),
            slots: 0,
            replays: 0,
        }
    }

    pub(crate) fn report(&self) -> KernelReport {
        KernelReport {
            terms: self.table.len(),
            slots: self.slots,
            replays: self.replays,
            scratch_nodes: self.scratch.total_nodes(),
        }
    }

    fn certificate(&mut self, cert: &Certificate) -> Result<(), CertError> {
        let gs = self.gs;
        // R_i: shape-validated axioms.
        let mut accepted: Accepted = HashMap::new();
        for (name, exprs) in &cert.inputs {
            let t = gs.tensor_by_name(name).ok_or_else(|| {
                CertError::Malformed(format!("unknown G_s tensor {name} in certificate inputs"))
            })?;
            for e in exprs {
                let id = self.intern(e);
                match self
                    .denotes(id)
                    .map_err(|why| CertError::rejected(name, why))?
                {
                    TermMeta::Tensor(shape, dtype) if *shape == t.shape && dtype == t.dtype => {}
                    TermMeta::Tensor(shape, dtype) => {
                        return Err(CertError::rejected(
                            name,
                            format!(
                                "input mapping {e} has shape {shape} dtype {dtype}, tensor has {} {}",
                                t.shape, t.dtype
                            ),
                        ));
                    }
                    TermMeta::Scalar => {
                        return Err(CertError::rejected(
                            name,
                            format!("input mapping {e} is a scalar"),
                        ));
                    }
                }
                accepted.entry(name.as_str()).or_default().push(id);
            }
        }

        // Mapping certificates, in derivation order.
        for mc in &cert.mappings {
            let expr = self.mapping(mc, &accepted)?;
            accepted.entry(mc.tensor.as_str()).or_default().push(expr);
        }

        // R_o: accepted mappings over G_d outputs, covering every G_s output.
        let gd_outputs: HashSet<&str> = self
            .gd
            .outputs()
            .iter()
            .map(|&t| self.gd.tensor(t).name.as_str())
            .collect();
        for (name, e) in &cert.outputs {
            let t = gs.tensor_by_name(name).ok_or_else(|| {
                CertError::Malformed(format!("unknown G_s tensor {name} in certificate outputs"))
            })?;
            if !gs.outputs().contains(&t.id) {
                return Err(CertError::rejected(name, "not a G_s output tensor"));
            }
            let id = self.intern(e);
            if !accepted
                .get(name.as_str())
                .is_some_and(|ms| ms.contains(&id))
            {
                return Err(CertError::rejected(
                    name,
                    format!("output mapping {e} was never accepted"),
                ));
            }
            for sym in e.leaf_symbols() {
                if !gd_outputs.contains(sym.as_str()) {
                    return Err(CertError::rejected(
                        name,
                        format!("output mapping {e} uses non-output G_d tensor {sym}"),
                    ));
                }
            }
        }
        for &t in gs.outputs() {
            let name = &gs.tensor(t).name;
            if !cert.outputs.iter().any(|(n, _)| n == name) {
                return Err(CertError::rejected(
                    name,
                    "G_s output has no mapping in the certificate's output relation",
                ));
            }
        }
        Ok(())
    }

    /// Validates one mapping certificate, returning the table entry of the
    /// expression it certifies.
    fn mapping(&mut self, mc: &MappingCert, accepted: &Accepted) -> Result<Id, CertError> {
        let gs = self.gs;
        let node = gs
            .node_by_name(&mc.operator)
            .ok_or_else(|| CertError::Malformed(format!("unknown G_s operator {}", mc.operator)))?;
        if gs.tensor(node.output).name != mc.tensor {
            return Err(CertError::rejected(
                &mc.tensor,
                format!("operator {} does not produce this tensor", mc.operator),
            ));
        }
        if node.inputs.len() != mc.inputs.len() {
            return Err(CertError::rejected(
                &mc.tensor,
                format!(
                    "operator {} takes {} inputs, certificate supplies {}",
                    mc.operator,
                    node.inputs.len(),
                    mc.inputs.len()
                ),
            ));
        }
        let mut inputs = Vec::with_capacity(mc.inputs.len());
        for (i, e) in mc.inputs.iter().enumerate() {
            let in_name = &gs.tensor(node.inputs[i]).name;
            let id = self.intern(e);
            if !accepted
                .get(in_name.as_str())
                .is_some_and(|ms| ms.contains(&id))
            {
                return Err(CertError::rejected(
                    &mc.tensor,
                    format!("input {i} ({in_name}) uses an unaccepted mapping {e}"),
                ));
            }
            inputs.push(id);
        }
        // The proof must start at the kernel's own encoding of the operator.
        let base = self
            .encode_op(&node.op, &inputs)
            .map_err(|why| CertError::rejected(&mc.tensor, why))?;
        let expr = self.intern(&mc.expr);
        self.chain(&mc.proof, base, expr, accepted)
            .map_err(|why| CertError::rejected(&mc.tensor, why))?;
        // The certified expression must re-infer to the G_s tensor's metadata.
        let ts = gs.tensor(node.output);
        match self
            .denotes(expr)
            .map_err(|why| CertError::rejected(&mc.tensor, why))?
        {
            TermMeta::Tensor(shape, dtype) if *shape == ts.shape && dtype == ts.dtype => Ok(expr),
            TermMeta::Tensor(shape, dtype) => Err(CertError::rejected(
                &mc.tensor,
                format!(
                    "certified expression has shape {shape} dtype {dtype}, tensor has {} {}",
                    ts.shape, ts.dtype
                ),
            )),
            TermMeta::Scalar => Err(CertError::rejected(
                &mc.tensor,
                "certified expression is a scalar",
            )),
        }
    }

    /// Validates that `proof` is a connected chain from `from` to `to`,
    /// with every step justified and shape/dtype preserved across each
    /// step.
    fn chain(
        &mut self,
        proof: &Proof,
        from: Id,
        to: Id,
        accepted: &Accepted,
    ) -> Result<(), String> {
        let Some(first) = proof.steps.first() else {
            return if from == to {
                Ok(())
            } else {
                Err("empty proof between distinct terms".to_owned())
            };
        };
        let mut cur = self.intern(first.before());
        if cur != from {
            return Err(format!(
                "proof starts at {} instead of the required term",
                first.before()
            ));
        }
        self.denotes(cur)?;
        for (k, step) in proof.steps.iter().enumerate() {
            // A step usually repeats the previous step's `after` slot for
            // slot; comparing the nodes says so without interning it again.
            if k > 0
                && step.before() != proof.steps[k - 1].after()
                && self.intern(step.before()) != cur
            {
                return Err(format!("step {k} does not chain from the previous step"));
            }
            let after = self.intern(step.after());
            let after_meta = self
                .denotes(after)
                .map_err(|why| format!("step {k}: {why}"))?;
            if after_meta != self.denotes(cur)? {
                return Err(format!("step {k} changes the term's shape or dtype"));
            }
            self.step(step, cur, after, accepted)
                .map_err(|why| format!("step {k}: {why}"))?;
            cur = after;
        }
        if cur != to {
            return Err("proof does not reach the required term".to_owned());
        }
        Ok(())
    }

    /// Justifies one step between the (interned) terms `before` and `after`.
    pub(crate) fn step(
        &mut self,
        step: &ProofStep,
        before: Id,
        after: Id,
        accepted: &Accepted,
    ) -> Result<(), String> {
        match step {
            ProofStep::Given { fact, .. } => self.given(fact, before, after, accepted),
            ProofStep::Congruence { children, .. } => {
                let (ENode::Op(sb, cb), ENode::Op(sa, ca)) =
                    (self.table.node(before), self.table.node(after))
                else {
                    return Err("congruence step between non-operator terms".to_owned());
                };
                if sb != sa || cb.len() != ca.len() || cb.len() != children.len() {
                    return Err("congruence step operator/arity mismatch".to_owned());
                }
                let (cb, ca) = (cb.clone(), ca.clone());
                for (i, child) in children.iter().enumerate() {
                    self.chain(child, cb[i], ca[i], accepted)
                        .map_err(|why| format!("argument {i}: {why}"))?;
                }
                Ok(())
            }
            ProofStep::Rule {
                name,
                forward,
                subst,
                ..
            } => {
                let rw = *self
                    .lemmas
                    .get(name.as_str())
                    .ok_or_else(|| format!("unknown lemma {name}"))?;
                let (lhs, rhs) = if *forward {
                    (before, after)
                } else {
                    (after, before)
                };
                let recorded: Vec<(&str, Id)> = subst
                    .iter()
                    .map(|(var, term)| (var.as_str(), self.intern(term)))
                    .collect();
                if rw.rhs().is_some() && !rw.has_condition() {
                    self.universal(rw, &recorded, lhs, rhs)
                } else {
                    self.replay(rw, &recorded, lhs, rhs)
                }
            }
        }
    }

    fn given(
        &mut self,
        fact: &str,
        before: Id,
        after: Id,
        accepted: &Accepted,
    ) -> Result<(), String> {
        if let Some(op_name) = fact.strip_prefix("G_d definition of ") {
            let gd = self.gd;
            let node = gd
                .node_by_name(op_name)
                .ok_or_else(|| format!("no G_d operator named {op_name}"))?;
            let leaf = self.add(ENode::leaf(&gd.tensor(node.output).name));
            let input_leaves: Vec<Id> = node
                .inputs
                .iter()
                .map(|&t| self.add(ENode::leaf(&gd.tensor(t).name)))
                .collect();
            let app = self.encode_op(&node.op, &input_leaves)?;
            if (before, after) == (leaf, app) || (before, after) == (app, leaf) {
                Ok(())
            } else {
                Err(format!("terms do not restate the definition of {op_name}"))
            }
        } else if let Some(tname) = fact.strip_prefix("mappings of G_s tensor ") {
            let ms = accepted
                .get(tname)
                .ok_or_else(|| format!("no accepted mappings for G_s tensor {tname}"))?;
            if ms.contains(&before) && ms.contains(&after) {
                Ok(())
            } else {
                Err(format!(
                    "terms are not both accepted mappings of G_s tensor {tname}"
                ))
            }
        } else {
            Err(format!("unrecognized given fact {fact:?}"))
        }
    }

    /// Pure validation of an unconditional pattern→pattern lemma: match the
    /// LHS pattern against the source term, require the bindings to agree
    /// with the recorded substitution, and require the RHS instantiation to
    /// be the target term. Capture is impossible by construction: pattern
    /// variables bind whole subterms and the term language has no binders.
    fn universal(
        &self,
        rw: &Rewrite<TensorAnalysis>,
        recorded: &[(&str, Id)],
        lhs: Id,
        rhs: Id,
    ) -> Result<(), String> {
        let mut sigma: Vec<(Var, Id)> = Vec::new();
        if !match_term(rw.searcher().ast(), &self.table, lhs, &mut sigma) {
            return Err(format!(
                "lemma {} does not match the step's source term",
                rw.name()
            ));
        }
        subst_agrees(&sigma, recorded, rw.name())?;
        let rhs_pat = rw.rhs().expect("universal lemma has a pattern rhs");
        if pattern_is_term(rhs_pat.ast(), &sigma, &self.table, rhs) {
            Ok(())
        } else {
            Err(format!(
                "lemma {} does not rewrite the source to the step's target term",
                rw.name()
            ))
        }
    }

    /// Replays a conditioned or dynamic lemma in the scratch e-graph. The
    /// lemma's own condition and applier run (discharging symbolic side
    /// conditions through the analysis context); the replay is accepted
    /// only when some match of the source term agreeing with the recorded
    /// substitution reproduces the target term, and the graph has performed
    /// zero unions since the verification began — structural identity is
    /// then id identity, every class holds one node, and searching the
    /// source's class sees exactly the step's own term however many other
    /// steps' terms the graph already stores.
    ///
    /// A lemma's *condition* may still see those other terms (the corpus'
    /// constrained lemmas ask whether their target already exists). That is
    /// a search heuristic, not a premise: the equation a lemma states holds
    /// wherever its pattern and shape conditions do, and the produced term
    /// must be the step's target either way.
    fn replay(
        &mut self,
        rw: &Rewrite<TensorAnalysis>,
        recorded: &[(&str, Id)],
        lhs: Id,
        rhs: Id,
    ) -> Result<(), String> {
        self.replays += 1;
        let lhs_id = self.scratch_class(lhs)?;
        let rhs_id = self.scratch_class(rhs)?;
        let recorded: Vec<(&str, Id)> = recorded
            .iter()
            .map(|&(var, term)| Ok((var, self.scratch_class(term)?)))
            .collect::<Result<_, String>>()?;
        let matches = rw
            .searcher()
            .search_eclass(&self.scratch, lhs_id)
            .ok_or_else(|| format!("lemma {} does not match the step's source term", rw.name()))?;
        let stored = self.scratch.total_nodes();
        let mut verdict = Err(format!(
            "no match of lemma {} agreeing with the recorded substitution reproduces the target term",
            rw.name()
        ));
        for subst in &matches.substs {
            let agrees = subst.iter().count() == recorded.len()
                && subst
                    .iter()
                    .all(|(v, id)| recorded.contains(&(v.as_str(), id)));
            if !agrees {
                continue;
            }
            let Some(produced) = rw.apply_match(&mut self.scratch, lhs_id, subst) else {
                continue; // condition rejected this match
            };
            if self.scratch.union_count() != 0 {
                return Err(format!(
                    "lemma {} performed unions during replay",
                    rw.name()
                ));
            }
            if produced.contains(&rhs_id) {
                verdict = Ok(());
                break;
            }
        }
        self.retire_scratch_if_unregistered_leaf(stored);
        verdict
    }

    /// Keeps leaf metadata in the scratch graph a function of the leaf's
    /// name and `G_d`: [`Kernel::scratch_class`] registers a leaf before it
    /// adds it, but an applier can mint one the kernel has not met (the
    /// shape-keyed `~ones[..]` representative), which the analysis then
    /// stores as unknown. When that leaf is the step's target it was
    /// registered first; when it is a by-product, a later step naming it
    /// must not inherit the gap — so the graph is retired and the next
    /// replay starts an empty one. Scans the nodes added since `stored`.
    fn retire_scratch_if_unregistered_leaf(&mut self, stored: usize) {
        // Union-free, so ids are dense and each owns its one-node class.
        let minted_unregistered = (stored..self.scratch.total_nodes()).any(|i| {
            match &self.scratch.class(Id::from_index(i)).nodes[0] {
                ENode::Op(sym, ch) if ch.is_empty() => {
                    !self.scratch.analysis.leaves.contains_key(sym)
                        && !matches!(leaf_meta(sym.as_str(), self.gd), Ok(None))
                }
                _ => false,
            }
        });
        if minted_unregistered {
            let analysis = TensorAnalysis::with_ctx(self.scratch.analysis.ctx.clone());
            self.scratch = EGraph::with_analysis(analysis);
            self.in_scratch.clear();
        }
    }

    /// The scratch-graph class of a table entry, adding what the graph has
    /// not seen (and registering each new leaf's metadata first).
    fn scratch_class(&mut self, id: Id) -> Result<Id, String> {
        if self.in_scratch.len() < self.table.len() {
            self.in_scratch.resize(self.table.len(), None);
        }
        if let Some(class) = self.in_scratch[id.index()] {
            return Ok(class);
        }
        let node = match self.table.node(id).clone() {
            ENode::Op(sym, children) if children.is_empty() => {
                if let Some((shape, dtype)) = leaf_meta(sym.as_str(), self.gd)? {
                    self.scratch
                        .analysis
                        .register_leaf(sym.as_str(), shape, dtype);
                }
                ENode::Op(sym, children)
            }
            ENode::Op(sym, children) => {
                let mapped = children
                    .into_iter()
                    .map(|c| self.scratch_class(c))
                    .collect::<Result<_, _>>()?;
                ENode::Op(sym, mapped)
            }
            scalar => scalar,
        };
        let class = self.scratch.add(node);
        self.in_scratch[id.index()] = Some(class);
        Ok(class)
    }

    /// Interns a term the certificate (or the caller) supplied.
    pub(crate) fn intern(&mut self, expr: &RecExpr) -> Id {
        self.slots += expr.len();
        let id = self.table.intern(expr);
        self.infer_new_entries();
        id
    }

    /// Interns one node the kernel builds itself, over interned children.
    fn add(&mut self, node: ENode) -> Id {
        let id = self.table.add(node);
        self.infer_new_entries();
        id
    }

    /// Brings `metas` level with the table. Entries only refer to earlier
    /// entries, so one forward pass infers each new entry from memoised
    /// children — no recursion, one inference per distinct subterm.
    fn infer_new_entries(&mut self) {
        for i in self.metas.len()..self.table.len() {
            let node = self.table.node(Id::from_index(i));
            let children: Result<Vec<Meta>, String> = node
                .children()
                .iter()
                .map(|c| self.metas[c.index()].clone())
                .collect();
            let meta = children.and_then(|ch| infer_node(node, &ch, self.gd));
            self.metas.push(meta);
        }
    }

    /// The memoised inference for the term at `id`.
    pub(crate) fn meta(&self, id: Id) -> &Result<Meta, String> {
        &self.metas[id.index()]
    }

    /// What the term at `id` denotes.
    fn denotes(&self, id: Id) -> Result<TermMeta<'_>, String> {
        match self.meta(id) {
            Ok(m) => term_meta(m),
            Err(why) => Err(why.clone()),
        }
    }

    /// Unions the scratch e-graph has performed (the kernel demands none).
    #[cfg(test)]
    pub(crate) fn scratch_unions(&self) -> usize {
        self.scratch.union_count()
    }

    /// Pure mirror of the checker's operator encoding (`encode_op`):
    /// collectives lower to binary `add`/`concat` chains and `slice`s of
    /// them, everything else applies the operator with its attribute
    /// scalars appended. Shard bounds for `reduce_scatter` are re-derived
    /// from the inferred (concrete) reduced shape.
    fn encode_op(&mut self, op: &Op, inputs: &[Id]) -> Result<Id, String> {
        match op {
            Op::AllReduce => self.fold_binary("add", inputs, None),
            Op::Concat { dim } | Op::AllGather { dim } => {
                self.fold_binary("concat", inputs, Some(*dim as i64))
            }
            Op::ReduceScatter { dim, rank, world } => {
                let summed = self.fold_binary("add", inputs, None)?;
                let TermMeta::Tensor(shape, _) = self.denotes(summed)? else {
                    return Err("reduce_scatter over a scalar".to_owned());
                };
                if *dim >= shape.rank() {
                    return Err("reduce_scatter dim out of range".to_owned());
                }
                let size = shape
                    .dim(*dim)
                    .0
                    .as_const()
                    .ok_or_else(|| "reduce_scatter over symbolic dims".to_owned())?;
                let chunk = size / *world as i64;
                let d = self.add(ENode::Int(*dim as i64));
                let lo = self.add(ENode::Int(*rank as i64 * chunk));
                let hi = self.add(ENode::Int((*rank as i64 + 1) * chunk));
                Ok(self.add(ENode::op("slice", vec![summed, d, lo, hi])))
            }
            other => {
                let mut children = inputs.to_vec();
                for attr in other.attr_scalars() {
                    children.push(match attr.as_const() {
                        Some(v) => self.add(ENode::Int(v)),
                        None => self.add(ENode::Sym(attr)),
                    });
                }
                Ok(self.add(ENode::op(other.name(), children)))
            }
        }
    }

    /// Left-folds a binary operator chain (each application taking `attr`
    /// as a third argument when given); a single input is its own fold.
    fn fold_binary(&mut self, name: &str, ids: &[Id], attr: Option<i64>) -> Result<Id, String> {
        let Some((&first, rest)) = ids.split_first() else {
            return Err("collective needs inputs".to_owned());
        };
        let mut acc = first;
        for &next in rest {
            let mut children = vec![acc, next];
            if let Some(attr) = attr {
                children.push(self.add(ENode::Int(attr)));
            }
            acc = self.add(ENode::op(name, children));
        }
        Ok(acc)
    }
}

/// Matches a pattern against a concrete subterm, binding variables to
/// subterms; nonlinear variables must bind the same term.
pub(crate) fn match_term<T: Terms>(
    pat: &PatternAst,
    terms: &T,
    at: Id,
    sigma: &mut Vec<(Var, Id)>,
) -> bool {
    match pat {
        PatternAst::Var(v) => {
            if let Some(&(_, prev)) = sigma.iter().find(|(pv, _)| pv == v) {
                terms.same_term(prev, at)
            } else {
                sigma.push((*v, at));
                true
            }
        }
        PatternAst::Int(i) => matches!(terms.node(at), ENode::Int(j) if j == i),
        PatternAst::Op(sym, args) => match terms.node(at) {
            ENode::Op(s, ch) => {
                s == sym
                    && ch.len() == args.len()
                    && args
                        .iter()
                        .zip(ch)
                        .all(|(p, &c)| match_term(p, terms, c, sigma))
            }
            _ => false,
        },
    }
}

/// Checks that a pattern instantiated under `sigma` is the table entry
/// `at`.
fn pattern_is_term(pat: &PatternAst, sigma: &[(Var, Id)], table: &TermTable, at: Id) -> bool {
    match pat {
        PatternAst::Var(v) => sigma.iter().any(|&(pv, bound)| pv == *v && bound == at),
        PatternAst::Int(i) => matches!(table.node(at), ENode::Int(j) if j == i),
        PatternAst::Op(sym, args) => match table.node(at) {
            ENode::Op(s, ch) => {
                s == sym
                    && ch.len() == args.len()
                    && args
                        .iter()
                        .zip(ch)
                        .all(|(p, &c)| pattern_is_term(p, sigma, table, c))
            }
            _ => false,
        },
    }
}

/// Requires the matcher-derived bindings and the certificate's recorded
/// substitution to agree exactly (same variables, same terms) — a
/// corrupted substitution is a rejected certificate.
fn subst_agrees(sigma: &[(Var, Id)], recorded: &[(&str, Id)], lemma: &str) -> Result<(), String> {
    if sigma.len() != recorded.len() {
        return Err(format!(
            "lemma {lemma}: recorded substitution binds {} variables, match binds {}",
            recorded.len(),
            sigma.len()
        ));
    }
    for (var, bound) in sigma {
        let Some((_, term)) = recorded.iter().find(|(n, _)| *n == var.as_str()) else {
            return Err(format!(
                "lemma {lemma}: recorded substitution misses variable ?{}",
                var.as_str()
            ));
        };
        if term != bound {
            return Err(format!(
                "lemma {lemma}: recorded substitution disagrees on ?{}",
                var.as_str()
            ));
        }
    }
    Ok(())
}

/// What a term denotes, for per-step re-inference.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TermMeta<'a> {
    /// A tensor with a concrete metadata.
    Tensor(&'a Shape, DType),
    /// A (concrete or symbolic) scalar.
    Scalar,
}

/// Summarises one inferred meta as a [`TermMeta`].
fn term_meta(m: &Meta) -> Result<TermMeta<'_>, String> {
    match (&m.shape, m.dtype) {
        (Some(s), Some(d)) => Ok(TermMeta::Tensor(s, d)),
        _ if m.scalar.is_some() => Ok(TermMeta::Scalar),
        _ => Err("uninferable term".to_owned()),
    }
}

/// The metadata a leaf's name determines: a synthetic canonicalization
/// leaf (`~ones[...]`) carries its shape in its name, anything else is a
/// `G_d` tensor or unknown (`None`).
fn leaf_meta(name: &str, gd: &Graph) -> Result<Option<(Shape, DType)>, String> {
    let ones = parse_ones_leaf(name).map_err(|_| format!("unparsable synthetic leaf {name}"))?;
    Ok(match ones {
        Some(dims) => Some((Shape(dims.into_iter().map(Dim::from).collect()), DType::F32)),
        None => gd.tensor_by_name(name).map(|t| (t.shape.clone(), t.dtype)),
    })
}

/// Infers shape/dtype metadata for one node from its children's.
fn infer_node(node: &ENode, children: &[Meta], gd: &Graph) -> Result<Meta, String> {
    match node {
        ENode::Int(i) => Ok(Meta::scalar(SymExpr::constant(*i))),
        ENode::Sym(e) => Ok(Meta::scalar(e.clone())),
        ENode::Op(sym, ch) if ch.is_empty() => {
            let (shape, dtype) =
                leaf_meta(sym.as_str(), gd)?.ok_or_else(|| format!("unknown G_d tensor {sym}"))?;
            Ok(Meta::tensor(shape, dtype))
        }
        ENode::Op(sym, _) => infer_application(*sym, children).map_err(|e| e.to_string()),
    }
}
