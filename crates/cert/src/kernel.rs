//! The trusted kernel: engine-independent certificate validation.
//!
//! Validation never consults the saturation e-graph that produced the
//! certificate. Every proof step is an equation between two *concrete
//! terms*; the kernel checks it by pattern matching and substitution over
//! those terms, re-inferring shapes and dtypes at every step.
//!
//! One verification owns one private context (`Kernel`), which lives
//! and dies with the call. Its terms live in one hash-consed [`Store`],
//! keyed by node — comparing nodes, never hashes — so "the same term" is
//! id equality and shape inference is a memo per id: a term that a proof
//! spells seventy times is compared and inferred once. The checker reads a
//! certificate in one form, [`Mapping`] and [`Step`], whose every term
//! position is an entry of that store. Two entry points produce it:
//! [`verify`] interns the [`RecExpr`] positions of an in-memory
//! [`Certificate`] in document order, once per storage, and [`verify_file`]
//! takes the table the JSON reader hash-consed as the store's own, with the
//! positions the reader resolved into it. A file's own indices only address
//! entries while it is read; equality rests on the node-keyed table alone.
//! An accepted in-memory certificate comes back in that form, a
//! [`Resolved`], for the numeric analysis to read.
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

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;

use entangle_egraph::{
    ENode, Id, PatternAst, Proof, ProofStep, RecExpr, Rewrite, Subst, Symbol, TermStore,
};
use entangle_ir::{DType, Graph, Op, Shape};
use entangle_lemmas::{Meta, TensorAnalysis};
use entangle_symbolic::SymCtx;

use crate::cert::{CertError, Certificate, MappingCert};
use crate::json::CertFile;
use crate::table::{PostOrder, Store, TermTable};

/// Accepted mappings per `G_s` tensor name, as entries of the context's
/// term table, grown as mapping certificates are validated in order.
pub(crate) type Accepted<'a> = HashMap<&'a str, Vec<Id>>;

/// A mapping certificate in the kernel's form: what [`MappingCert`] says,
/// every term position `T` — an entry of the kernel's table ([`Id`]), or a
/// file index while the reader resolves it.
#[derive(Debug)]
pub struct Mapping<'a, T = Id> {
    pub tensor: Cow<'a, str>,
    pub operator: Cow<'a, str>,
    pub inputs: Vec<T>,
    pub expr: T,
    pub proof: Vec<Step<'a, T>>,
}

/// A proof step in the kernel's form: a [`ProofStep`] over positions `T`,
/// a `Given` step's fact parsed; see [`Mapping`].
#[derive(Debug)]
pub enum Step<'a, T = Id> {
    Rule {
        name: Cow<'a, str>,
        forward: bool,
        subst: Vec<(Cow<'a, str>, T)>,
        before: T,
        after: T,
    },
    Congruence {
        before: T,
        after: T,
        children: Vec<Vec<Step<'a, T>>>,
    },
    Given {
        fact: Fact<'a>,
        before: T,
        after: T,
    },
}

/// What a `Given` step cites, read off its text once: the definition of a
/// `G_d` node, the accepted mappings of a `G_s` tensor, or any other text
/// (which the kernel refuses). [`fmt::Display`] writes the text back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fact<'a> {
    /// `G_d definition of NODE`.
    Definition(Cow<'a, str>),
    /// `mappings of G_s tensor T`.
    Mappings(Cow<'a, str>),
    /// Anything else, kept whole.
    Unrecognized(Cow<'a, str>),
}

const DEFINITION: &str = "G_d definition of ";
const MAPPINGS: &str = "mappings of G_s tensor ";

impl<'a> Fact<'a> {
    pub(crate) fn from_text(text: Cow<'a, str>) -> Fact<'a> {
        let strip = |prefix: &str| match &text {
            Cow::Borrowed(s) => s.strip_prefix(prefix).map(Cow::Borrowed),
            Cow::Owned(s) => s.strip_prefix(prefix).map(|n| Cow::Owned(n.to_owned())),
        };
        if let Some(node) = strip(DEFINITION) {
            Fact::Definition(node)
        } else if let Some(tensor) = strip(MAPPINGS) {
            Fact::Mappings(tensor)
        } else {
            Fact::Unrecognized(text)
        }
    }
}

impl fmt::Display for Fact<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fact::Definition(node) => write!(f, "{DEFINITION}{node}"),
            Fact::Mappings(tensor) => write!(f, "{MAPPINGS}{tensor}"),
            Fact::Unrecognized(text) => f.write_str(text),
        }
    }
}

impl Step<'_> {
    pub(crate) fn before(&self) -> Id {
        match self {
            Step::Rule { before, .. }
            | Step::Congruence { before, .. }
            | Step::Given { before, .. } => *before,
        }
    }

    pub(crate) fn after(&self) -> Id {
        match self {
            Step::Rule { after, .. }
            | Step::Congruence { after, .. }
            | Step::Given { after, .. } => *after,
        }
    }
}

/// Steps in `proof`, congruence sub-proofs included ([`Proof::size`]).
pub(crate) fn proof_size(proof: &[Step<'_>]) -> usize {
    proof
        .iter()
        .map(|step| match step {
            Step::Congruence { children, .. } => {
                1 + children.iter().map(|c| proof_size(c)).sum::<usize>()
            }
            _ => 1,
        })
        .sum()
}

/// What one kernel run did, for whoever records telemetry (the kernel
/// itself touches no registry and no tracer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelReport {
    /// Distinct subterms the verification met: those of every term
    /// position it checked, and the terms it built itself. Entries a file
    /// lists but no checked position reaches are not counted, so the count
    /// is the same whether the certificate came from memory or from a file.
    pub terms: usize,
    /// Rule steps whose lemma runs code: a condition or a dynamic applier.
    pub replays: usize,
}

impl KernelReport {
    /// The counts as span attributes, under the names traces use.
    pub fn attrs(&self) -> [(&'static str, usize); 2] {
        [("terms", self.terms), ("replays", self.replays)]
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
    verify_reporting(cert, gs, gd, lemmas, ctx).0.map(drop)
}

/// [`verify`], also returning the run's [`KernelReport`] (filled as far as
/// the verification got when it refuses the certificate) and, when it
/// accepts, the certificate in the form the kernel checked it in.
pub fn verify_reporting<'a>(
    cert: &'a Certificate,
    gs: &'a Graph,
    gd: &'a Graph,
    lemmas: &'a [Rewrite<TensorAnalysis>],
    ctx: &SymCtx,
) -> (Result<Resolved<'a>, CertError>, KernelReport) {
    let mut kernel = Kernel::new(gs, gd, lemmas, ctx, TermTable::default());
    let positions = kernel.store.resolve(cert);
    let verdict = kernel.check(&positions);
    let report = kernel.report();
    let store = kernel.store;
    (verdict.map(|()| Resolved::new(store, positions)), report)
}

/// The form [`verify_reporting`] returns, made without checking anything.
pub fn resolve<'a>(cert: &'a Certificate, gd: &'a Graph) -> Resolved<'a> {
    let mut store = Store::new(gd, &SymCtx::default(), TermTable::default());
    let positions = store.resolve(cert);
    Resolved::new(store, positions)
}

/// A certificate's relations and mapping certificates, every term position
/// an entry of one table: the form the kernel checks.
#[derive(Debug)]
pub(crate) struct Positions<'a> {
    pub(crate) inputs: Vec<(Cow<'a, str>, Vec<Id>)>,
    pub(crate) mappings: Vec<Mapping<'a>>,
    pub(crate) outputs: Vec<(Cow<'a, str>, Id)>,
}

/// A certificate in the kernel's form, with its table: every term position
/// an entry, each entry's shape and dtype inferred once. The numeric
/// analysis reads it; nothing outside this crate can change it.
pub struct Resolved<'a> {
    table: TermTable,
    metas: Vec<Result<Meta, String>>,
    positions: Positions<'a>,
}

impl<'a> Resolved<'a> {
    fn new(store: Store<'_>, positions: Positions<'a>) -> Resolved<'a> {
        let (table, metas) = store.into_entries();
        Resolved {
            table,
            metas,
            positions,
        }
    }

    /// `R_i`: per `G_s` tensor, the entries of its mappings.
    pub fn inputs(&self) -> &[(Cow<'a, str>, Vec<Id>)] {
        &self.positions.inputs
    }

    /// The mapping certificates, in derivation order.
    pub fn mappings(&self) -> &[Mapping<'a>] {
        &self.positions.mappings
    }

    /// `R_o`: per `G_s` output, the entry of its expression.
    pub fn outputs(&self) -> &[(Cow<'a, str>, Id)] {
        &self.positions.outputs
    }

    /// The node of entry `id`, its children entries.
    pub fn node(&self, id: Id) -> &ENode {
        self.table.node(id)
    }

    /// What entry `id` denotes, as the kernel inferred it.
    ///
    /// # Errors
    ///
    /// Why inference failed for the entry.
    pub fn meta(&self, id: Id) -> Result<&Meta, &str> {
        self.metas[id.index()].as_ref().map_err(String::as_str)
    }

    /// The term at `id`, copied out of the table to be printed.
    pub fn show(&self, id: Id) -> RecExpr {
        self.table.materialise(id, &mut PostOrder::default())
    }
}

/// Re-checks a certificate file as [`crate::read_json`] read it, under the
/// rules of [`verify`], on the reader's own term table: each entry's
/// metadata is inferred once, and no term is copied out of the table except
/// to print it in a rejection.
pub fn verify_file(
    mut file: CertFile<'_>,
    gs: &Graph,
    gd: &Graph,
    lemmas: &[Rewrite<TensorAnalysis>],
    ctx: &SymCtx,
) -> (Result<(), CertError>, KernelReport) {
    let table = std::mem::take(&mut file.table);
    let mut kernel = Kernel::new(gs, gd, lemmas, ctx, table);
    let verdict = kernel.check(&file.positions);
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
    let mut kernel = Kernel::new(gs, gd, lemmas, ctx, TermTable::default());
    let accepted: Accepted = accepted
        .iter()
        .map(|(name, exprs)| {
            let ids = kernel.store.intern_all(exprs);
            (name.as_str(), ids)
        })
        .collect();
    let mapping = kernel.store.resolve_mapping(mc);
    kernel.mapping(&mapping, &accepted).map(|_| ())
}

/// The state of one verification; see the module documentation.
pub(crate) struct Kernel<'a> {
    gs: &'a Graph,
    gd: &'a Graph,
    lemmas: HashMap<&'a str, &'a Rewrite<TensorAnalysis>>,
    /// Every term met so far. Equality of terms is equality of entries.
    pub(crate) store: Store<'a>,
    /// Count for the [`KernelReport`].
    replays: usize,
}

impl<'a> Kernel<'a> {
    /// A context whose store starts as `table`.
    pub(crate) fn new(
        gs: &'a Graph,
        gd: &'a Graph,
        lemmas: &'a [Rewrite<TensorAnalysis>],
        ctx: &SymCtx,
        table: TermTable,
    ) -> Kernel<'a> {
        Kernel {
            gs,
            gd,
            lemmas: lemmas.iter().map(|r| (r.name(), r)).collect(),
            store: Store::new(gd, ctx, table),
            replays: 0,
        }
    }

    /// Entries of the store's table, met or not.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.store.table().len()
    }

    pub(crate) fn report(&self) -> KernelReport {
        KernelReport {
            terms: self.store.met(),
            replays: self.replays,
        }
    }

    /// Checks a certificate whose positions are entries of the store's
    /// table already.
    fn check(&mut self, cert: &Positions<'_>) -> Result<(), CertError> {
        let mut accepted = Accepted::new();
        for (name, ids) in &cert.inputs {
            self.input(name, ids, &mut accepted)?;
        }
        for mapping in &cert.mappings {
            let expr = self.mapping(mapping, &accepted)?;
            accepted.entry(&mapping.tensor).or_default().push(expr);
        }
        self.outputs(&cert.outputs, &accepted)
    }

    /// Takes `R_i`'s mappings of the `G_s` tensor `name` as axioms, once
    /// each has the tensor's shape and dtype.
    fn input<'c>(
        &mut self,
        name: &'c str,
        ids: &[Id],
        accepted: &mut Accepted<'c>,
    ) -> Result<(), CertError> {
        let t = self.gs.tensor_by_name(name).ok_or_else(|| {
            CertError::Malformed(format!("unknown G_s tensor {name} in certificate inputs"))
        })?;
        for &id in ids {
            self.store.meet(id);
            match self
                .denotes(id)
                .map_err(|why| CertError::rejected(name, why))?
            {
                TermMeta::Tensor(shape, dtype) if *shape == t.shape && dtype == t.dtype => {}
                TermMeta::Tensor(shape, dtype) => {
                    return Err(CertError::rejected(
                        name,
                        format!(
                            "input mapping {} has shape {shape} dtype {dtype}, tensor has {} {}",
                            self.show(id),
                            t.shape,
                            t.dtype
                        ),
                    ));
                }
                TermMeta::Scalar => {
                    return Err(CertError::rejected(
                        name,
                        format!("input mapping {} is a scalar", self.show(id)),
                    ));
                }
            }
            accepted.entry(name).or_default().push(id);
        }
        Ok(())
    }

    /// `R_o`: accepted mappings over `G_d` outputs, covering every `G_s`
    /// output.
    fn outputs(
        &mut self,
        outputs: &[(Cow<'_, str>, Id)],
        accepted: &Accepted,
    ) -> Result<(), CertError> {
        let gs = self.gs;
        let gd_outputs: HashSet<&str> = self
            .gd
            .outputs()
            .iter()
            .map(|&t| self.gd.tensor(t).name.as_str())
            .collect();
        for (name, id) in outputs {
            let (name, id) = (&**name, *id);
            self.store.meet(id);
            let t = gs.tensor_by_name(name).ok_or_else(|| {
                CertError::Malformed(format!("unknown G_s tensor {name} in certificate outputs"))
            })?;
            if !gs.outputs().contains(&t.id) {
                return Err(CertError::rejected(name, "not a G_s output tensor"));
            }
            if !accepted.get(name).is_some_and(|ms| ms.contains(&id)) {
                return Err(CertError::rejected(
                    name,
                    format!("output mapping {} was never accepted", self.show(id)),
                ));
            }
            for sym in self.leaves(id) {
                if !gd_outputs.contains(sym.as_str()) {
                    return Err(CertError::rejected(
                        name,
                        format!(
                            "output mapping {} uses non-output G_d tensor {sym}",
                            self.show(id)
                        ),
                    ));
                }
            }
        }
        for &t in gs.outputs() {
            let name = &gs.tensor(t).name;
            if !outputs.iter().any(|(n, _)| n == name) {
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
    fn mapping(&mut self, mc: &Mapping<'_>, accepted: &Accepted) -> Result<Id, CertError> {
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
        for (i, &id) in mc.inputs.iter().enumerate() {
            self.store.meet(id);
            let in_name = &gs.tensor(node.inputs[i]).name;
            if !accepted
                .get(in_name.as_str())
                .is_some_and(|ms| ms.contains(&id))
            {
                return Err(CertError::rejected(
                    &mc.tensor,
                    format!(
                        "input {i} ({in_name}) uses an unaccepted mapping {}",
                        self.show(id)
                    ),
                ));
            }
        }
        // The proof must start at the kernel's own encoding of the operator.
        let base = self
            .encode_op(&node.op, &mc.inputs)
            .map_err(|why| CertError::rejected(&mc.tensor, why))?;
        self.store.meet(mc.expr);
        self.chain(&mc.proof, base, mc.expr, accepted)
            .map_err(|why| CertError::rejected(&mc.tensor, why))?;
        // The certified expression must re-infer to the G_s tensor's metadata.
        let ts = gs.tensor(node.output);
        match self
            .denotes(mc.expr)
            .map_err(|why| CertError::rejected(&mc.tensor, why))?
        {
            TermMeta::Tensor(shape, dtype) if *shape == ts.shape && dtype == ts.dtype => {
                Ok(mc.expr)
            }
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
        proof: &[Step<'_>],
        from: Id,
        to: Id,
        accepted: &Accepted,
    ) -> Result<(), String> {
        let Some(first) = proof.first() else {
            return if from == to {
                Ok(())
            } else {
                Err("empty proof between distinct terms".to_owned())
            };
        };
        let mut cur = first.before();
        if cur != from {
            return Err(format!(
                "proof starts at {} instead of the required term",
                self.show(cur)
            ));
        }
        self.denotes(cur)?;
        for (k, step) in proof.iter().enumerate() {
            if step.before() != cur {
                return Err(format!("step {k} does not chain from the previous step"));
            }
            let after = step.after();
            self.store.meet(after);
            let after_meta = self
                .denotes(after)
                .map_err(|why| format!("step {k}: {why}"))?;
            if after_meta != self.denotes(cur)? {
                return Err(format!("step {k} changes the term's shape or dtype"));
            }
            self.step(step, accepted)
                .map_err(|why| format!("step {k}: {why}"))?;
            cur = after;
        }
        if cur != to {
            return Err("proof does not reach the required term".to_owned());
        }
        Ok(())
    }

    /// Justifies one step between its terms.
    pub(crate) fn step(&mut self, step: &Step<'_>, accepted: &Accepted) -> Result<(), String> {
        let (before, after) = (step.before(), step.after());
        match step {
            Step::Given { fact, .. } => self.given(fact, before, after, accepted),
            Step::Congruence { children, .. } => {
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
            Step::Rule {
                name,
                forward,
                subst,
                ..
            } => {
                let rw = *self
                    .lemmas
                    .get(&**name)
                    .ok_or_else(|| format!("unknown lemma {name}"))?;
                let (lhs, rhs) = if *forward {
                    (before, after)
                } else {
                    (after, before)
                };
                for &(_, id) in subst {
                    self.store.meet(id);
                }
                self.rule(rw, subst, lhs, rhs)
            }
        }
    }

    fn given(
        &mut self,
        fact: &Fact<'_>,
        before: Id,
        after: Id,
        accepted: &Accepted,
    ) -> Result<(), String> {
        match fact {
            Fact::Definition(op_name) => {
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
            }
            Fact::Mappings(tname) => {
                let ms = accepted
                    .get(&**tname)
                    .ok_or_else(|| format!("no accepted mappings for G_s tensor {tname}"))?;
                if ms.contains(&before) && ms.contains(&after) {
                    Ok(())
                } else {
                    Err(format!(
                        "terms are not both accepted mappings of G_s tensor {tname}"
                    ))
                }
            }
            Fact::Unrecognized(fact) => Err(format!("unrecognized given fact {fact:?}")),
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
        recorded: &[(Cow<'_, str>, Id)],
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

    /// The term at `id`, copied out of the table to be printed.
    fn show(&self, id: Id) -> RecExpr {
        self.store
            .table()
            .materialise(id, &mut PostOrder::default())
    }

    /// The leaf names of the term at `id`, each once, in the order of its
    /// printed form.
    fn leaves(&self, id: Id) -> Vec<Symbol> {
        let table = self.store.table();
        let mut walk = PostOrder::default();
        walk.visit(table, id);
        walk.order
            .iter()
            .filter_map(|&entry| match table.node(entry) {
                ENode::Op(sym, children) if children.is_empty() => Some(*sym),
                _ => None,
            })
            .collect()
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

/// Resolution: a certificate's [`RecExpr`] positions as entries.
impl Store<'_> {
    /// The kernel's form of an in-memory certificate, its positions
    /// interned in document order.
    fn resolve<'c>(&mut self, cert: &'c Certificate) -> Positions<'c> {
        Positions {
            inputs: cert
                .inputs
                .iter()
                .map(|(name, exprs)| (Cow::Borrowed(name.as_str()), self.intern_all(exprs)))
                .collect(),
            mappings: cert
                .mappings
                .iter()
                .map(|mc| self.resolve_mapping(mc))
                .collect(),
            outputs: cert
                .outputs
                .iter()
                .map(|(name, e)| (Cow::Borrowed(name.as_str()), self.intern(e)))
                .collect(),
        }
    }

    pub(crate) fn intern_all(&mut self, exprs: &[RecExpr]) -> Vec<Id> {
        exprs.iter().map(|e| self.intern(e)).collect()
    }

    /// The kernel's form of an in-memory mapping, its positions interned.
    fn resolve_mapping<'c>(&mut self, mc: &'c MappingCert) -> Mapping<'c> {
        Mapping {
            tensor: Cow::Borrowed(&mc.tensor),
            operator: Cow::Borrowed(&mc.operator),
            inputs: self.intern_all(&mc.inputs),
            expr: self.intern(&mc.expr),
            proof: self.resolve_proof(&mc.proof),
        }
    }

    fn resolve_proof<'c>(&mut self, proof: &'c Proof) -> Vec<Step<'c>> {
        let mut steps: Vec<Step<'c>> = Vec::with_capacity(proof.steps.len());
        for (k, step) in proof.steps.iter().enumerate() {
            // A step usually repeats the previous step's `after` slot for
            // slot; comparing the nodes says so without interning it again.
            let before = match steps.last() {
                Some(prev) if step.before() == proof.steps[k - 1].after() => prev.after(),
                _ => self.intern(step.before()),
            };
            let resolved = self.resolve_step(step, before);
            steps.push(resolved);
        }
        steps
    }

    /// The kernel's form of one step whose `before` is the entry `before`.
    pub(crate) fn resolve_step<'c>(&mut self, step: &'c ProofStep, before: Id) -> Step<'c> {
        let after = self.intern(step.after());
        match step {
            ProofStep::Rule {
                name,
                forward,
                subst,
                ..
            } => Step::Rule {
                name: Cow::Borrowed(name),
                forward: *forward,
                subst: subst
                    .iter()
                    .map(|(var, term)| (Cow::Borrowed(var.as_str()), self.intern(term)))
                    .collect(),
                before,
                after,
            },
            ProofStep::Congruence { children, .. } => Step::Congruence {
                before,
                after,
                children: children.iter().map(|c| self.resolve_proof(c)).collect(),
            },
            ProofStep::Given { fact, .. } => Step::Given {
                fact: Fact::from_text(Cow::Borrowed(fact)),
                before,
                after,
            },
        }
    }
}

/// Matches a pattern against a table entry, binding variables to
/// entries; nonlinear variables must bind the same entry.
fn match_term(pat: &PatternAst, table: &TermTable, at: Id, sigma: &mut Subst) -> bool {
    match pat {
        PatternAst::Var(v) => match sigma.get(*v) {
            Some(prev) => prev == at,
            None => {
                sigma.insert(*v, at);
                true
            }
        },
        PatternAst::Int(i) => matches!(table.node(at), ENode::Int(j) if j == i),
        PatternAst::Op(sym, args) => match table.node(at) {
            ENode::Op(s, ch) => {
                s == sym
                    && ch.len() == args.len()
                    && args
                        .iter()
                        .zip(ch)
                        .all(|(p, &c)| match_term(p, table, c, sigma))
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
fn subst_agrees(sigma: &Subst, recorded: &[(Cow<'_, str>, Id)], lemma: &str) -> Result<(), String> {
    let bound = sigma.iter().count();
    if bound != recorded.len() {
        return Err(format!(
            "lemma {lemma}: recorded substitution binds {} variables, match binds {bound}",
            recorded.len(),
        ));
    }
    for (var, bound) in sigma.iter() {
        let Some(&(_, term)) = recorded.iter().find(|(n, _)| n == var.as_str()) else {
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
