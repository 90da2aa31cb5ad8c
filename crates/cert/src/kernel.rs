//! The trusted kernel: engine-independent certificate validation.
//!
//! Validation never consults the saturation e-graph that produced the
//! certificate. Every proof step is an equation between two *concrete
//! terms*; the kernel checks it by pattern matching and substitution over
//! those terms, re-inferring shapes and dtypes at every step.
//!
//! One verification owns one private context (`Kernel`), which lives
//! and dies with the call. It interns every term it is handed into one
//! hash-consed [`Store`] — once per [`RecExpr`] storage (clones share one),
//! comparing nodes, never hashes — after which "the same term" is id
//! equality and shape inference is a memo per id: a term that a proof
//! spells seventy times is compared and inferred once. The ids are the
//! kernel's own; the ids of a certificate file are a compression its
//! reader expands and the kernel never sees.
//!
//! Every rule step is checked one way, whatever its lemma: the lemma's
//! pattern matches the source term, the bindings agree with the recorded
//! substitution, the lemma's condition (if any) holds, and its right-hand
//! side — the pattern instantiated, or what a dynamic applier computes —
//! is the target term. Conditions and dynamic appliers are the lemma's own
//! closures, run on the kernel's store through
//! [`entangle_egraph::TermStore`]; symbolic side conditions are discharged
//! by `entangle-symbolic` through them.
//!
//! *Given* facts are only trusted when they restate a `G_d` operator
//! definition (the kernel re-encodes the operator itself) or connect two
//! already-accepted mappings of one `G_s` tensor.

use std::collections::{HashMap, HashSet};

use entangle_egraph::{
    ENode, Id, PatternAst, Proof, ProofStep, RecExpr, Rewrite, Subst, TermStore,
};
use entangle_ir::{DType, Graph, Op, Shape};
use entangle_lemmas::{Meta, TensorAnalysis};
use entangle_symbolic::SymCtx;

use crate::cert::{CertError, Certificate, MappingCert};
use crate::table::{Store, TermTable, Terms};

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
    /// Rule steps whose lemma runs code: a condition or a dynamic applier.
    pub replays: usize,
}

impl KernelReport {
    /// The counts as span attributes, under the names traces use.
    pub fn attrs(&self) -> [(&'static str, usize); 3] {
        [
            ("terms", self.terms),
            ("slots", self.slots),
            ("replays", self.replays),
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
/// One mapping is checked under exactly the rules [`verify`] applies per
/// mapping — the proof must start from the kernel's own operator encoding,
/// every step must be justified, and the result must re-infer to the `G_s`
/// tensor's shape and dtype — without a whole certificate around it.
/// `tests/cert_mutation.rs` drives it to hold forged single mappings to
/// those rules.
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
    store: Store<'a>,
    /// The entry of every [`RecExpr`] storage interned so far, by
    /// [`RecExpr::storage_key`]. Each value keeps a clone of the expression,
    /// so no keyed storage is freed, and its key reused, while the kernel
    /// lives: one key is one storage is one list of nodes.
    interned: HashMap<usize, (RecExpr, Id)>,
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
            store: Store::new(gd, ctx),
            interned: HashMap::new(),
            slots: 0,
            replays: 0,
        }
    }

    pub(crate) fn report(&self) -> KernelReport {
        KernelReport {
            terms: self.store.table().len(),
            slots: self.slots,
            replays: self.replays,
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
                let table = self.store.table();
                let (ENode::Op(sb, cb), ENode::Op(sa, ca)) =
                    (table.node(before), table.node(after))
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
                self.rule(rw, &recorded, lhs, rhs)
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

    /// Justifies a rule step from `lhs` to `rhs`: the lemma's pattern
    /// must match `lhs`, the bindings must agree with the recorded
    /// substitution, the lemma's condition must hold, and its right-hand
    /// side must be `rhs` — a pattern instantiated under the bindings, or
    /// among the ids a dynamic applier produces. Capture is impossible by
    /// construction: pattern variables bind whole subterms and the term
    /// language has no binders.
    ///
    /// A condition or applier runs on the store scoped to the step's own
    /// terms ([`Store::scope_to`]): what else the certificate mentions
    /// cannot change the verdict. The corpus' constrained lemmas ask
    /// whether their target already exists; that is a search heuristic,
    /// not a premise: the equation a lemma states holds wherever its
    /// pattern and shape conditions do, and the produced term must be the
    /// step's target either way.
    fn rule(
        &mut self,
        rw: &Rewrite<TensorAnalysis>,
        recorded: &[(&str, Id)],
        lhs: Id,
        rhs: Id,
    ) -> Result<(), String> {
        let runs_code = rw.has_condition() || rw.rhs().is_none();
        if runs_code {
            self.replays += 1;
        }
        let mut subst = Subst::new();
        if !match_term(rw.searcher().ast(), self.store.table(), lhs, &mut subst) {
            return Err(format!(
                "lemma {} does not match the step's source term",
                rw.name()
            ));
        }
        subst_agrees(&subst, recorded, rw.name())?;
        if runs_code {
            // The bindings are subterms of `lhs`.
            self.store.scope_to(&[lhs, rhs]);
        }
        if !rw.condition_holds(&self.store, lhs, &subst) {
            return Err(format!(
                "the condition of lemma {} rejects the step's source term",
                rw.name()
            ));
        }
        let reaches = match rw.rhs() {
            Some(pat) => pattern_is_term(pat.ast(), &subst, self.store.table(), rhs),
            None => rw
                .apply_dynamic(&mut self.store, lhs, &subst)
                .contains(&rhs),
        };
        if reaches {
            Ok(())
        } else {
            Err(format!(
                "lemma {} does not rewrite the source to the step's target term",
                rw.name()
            ))
        }
    }

    /// Interns a term the certificate (or the caller) supplied: once per
    /// storage, so the positions a reader made clones of one term cost one
    /// walk. `slots` counts every position in full, as if each were walked.
    pub(crate) fn intern(&mut self, expr: &RecExpr) -> Id {
        self.slots += expr.len();
        if let Some(&(_, id)) = self.interned.get(&expr.storage_key()) {
            return id;
        }
        let id = self.store.intern(expr);
        self.interned.insert(expr.storage_key(), (expr.clone(), id));
        id
    }

    /// Interns one node the kernel builds itself, over interned children.
    fn add(&mut self, node: ENode) -> Id {
        self.store.add(node)
    }

    /// The memoised inference for the term at `id`.
    pub(crate) fn meta(&self, id: Id) -> &Result<Meta, String> {
        self.store.meta(id)
    }

    /// What the term at `id` denotes.
    fn denotes(&self, id: Id) -> Result<TermMeta<'_>, String> {
        match self.meta(id) {
            Ok(m) => term_meta(m),
            Err(why) => Err(why.clone()),
        }
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
fn match_term<T: Terms>(pat: &PatternAst, terms: &T, at: Id, sigma: &mut Subst) -> bool {
    match pat {
        PatternAst::Var(v) => match sigma.get(*v) {
            Some(prev) => terms.same_term(prev, at),
            None => {
                sigma.insert(*v, at);
                true
            }
        },
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
fn pattern_is_term(pat: &PatternAst, sigma: &Subst, table: &TermTable, at: Id) -> bool {
    match pat {
        PatternAst::Var(v) => sigma.get(*v) == Some(at),
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
fn subst_agrees(sigma: &Subst, recorded: &[(&str, Id)], lemma: &str) -> Result<(), String> {
    let bound = sigma.iter().count();
    if bound != recorded.len() {
        return Err(format!(
            "lemma {lemma}: recorded substitution binds {} variables, match binds {bound}",
            recorded.len(),
        ));
    }
    for (var, bound) in sigma.iter() {
        let Some(&(_, term)) = recorded.iter().find(|(n, _)| *n == var.as_str()) else {
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
