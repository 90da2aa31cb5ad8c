//! Certificate-chain composition: per-output numeric verdicts.
//!
//! A verified certificate proves each `G_s` tensor *equal in the e-graph
//! theory* to an expression over `G_d` tensors — but the theory includes
//! reassociating lemmas that are only equalities over the reals. This pass
//! walks the same proof chains the trusted kernel re-checks and classifies
//! every step with the symbolic domain of [`crate::sym`]:
//!
//! - each [`ProofStep`] carries complete before/after terms over `G_d`
//!   leaves, so adjacent terms are evaluated symbolically and compared —
//!   no recursion into lemma semantics is needed;
//! - `Given` steps are handled by fiat, mirroring the kernel's
//!   `check_given`: a `G_d` definition relates a tensor leaf to its
//!   defining operator application (bit-exact — both denote the very value
//!   the runtime computed), and a "mappings of" fact bridges two accepted
//!   mappings of one `G_s` tensor (its verdict composes theirs);
//! - a mapping's verdict composes its chain verdict with the verdicts of
//!   the input mappings its start term embeds.
//!
//! The result is advisory: it never fails refinement checking, it tells
//! the differential oracle *how* to compare (`bit-exact`, `within a
//! derived relative bound`, or `don't trust a tolerance at all`).

use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use entangle_cert::{exprs_eq, Certificate};
use entangle_egraph::{ProofStep, RecExpr};
use entangle_ir::Graph;
use entangle_lint::{codes, Anchor, Diagnostic};

use crate::eval::{graph_tensors_sym, TermTable, ARENA_CAP_MSG};
use crate::sym::{classify_tensors, Arena, NumClass, SymTensor, Verdict, ARENA_CAP};

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
    /// Total proof steps classified.
    pub steps_analyzed: usize,
    /// Arena nodes the walk ended with, as stored.
    pub arena_nodes: usize,
    /// Operations those nodes stand for (what [`ARENA_CAP`] counts): a
    /// `Dot` node is the `2K − 1` multiply-adds of its fold.
    pub modelled_nodes: usize,
    /// Distinct subterms of the proof-step terms, each evaluated once.
    pub subterms: usize,
    /// Subterm occurrences answered from the subterm table instead.
    pub subterm_hits: usize,
    /// Microseconds evaluating every `G_d` tensor before the walk.
    pub gd_pre_us: u64,
    /// Microseconds evaluating proof-step terms.
    pub eval_us: u64,
    /// Microseconds classifying the evaluated term pairs.
    pub classify_us: u64,
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

/// Shared state for one certificate walk.
struct ChainCtx<'a> {
    arena: Arena,
    /// Every `G_d` tensor name, pre-evaluated to the symbolic value its
    /// producer computes (graph inputs are leaves). Terms over `G_d`
    /// leaves and the tensor names that abbreviate them hash-cons to the
    /// same nodes, so `G_d`-definition substitutions classify bit-exact.
    gd_values: HashMap<String, Result<Rc<SymTensor>, String>>,
    /// Accepted mappings per `G_s` tensor with their verdicts, mirroring
    /// the kernel's accepted-mapping table.
    accepted: HashMap<String, Vec<(&'a RecExpr, Verdict)>>,
    /// Every subterm of every step term, evaluated once.
    table: TermTable,
    diagnostics: Vec<Diagnostic>,
    /// The arena-cap warning is out: past the cap every later operator
    /// step leaves the model for the same reason, reported once.
    cap_reported: bool,
    steps: usize,
    eval_time: Duration,
    classify_time: Duration,
}

impl<'a> ChainCtx<'a> {
    fn eval(&mut self, term: &RecExpr) -> Result<Rc<SymTensor>, String> {
        let gd_values = &self.gd_values;
        self.table.eval(&mut self.arena, term, &mut |_, name| {
            gd_values
                .get(name)
                .cloned()
                .unwrap_or_else(|| Err(format!("unknown G_d tensor {name:?}")))
        })
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

    /// Classifies one before/after term pair by symbolic evaluation.
    fn classify_step(&mut self, before: &RecExpr, after: &RecExpr) -> Result<Verdict, String> {
        let start = Instant::now();
        let terms = self.eval(before).and_then(|a| Ok((a, self.eval(after)?)));
        let evaluated = Instant::now();
        self.eval_time += evaluated - start;
        let (a, b) = terms?;
        let verdict = classify_tensors(&mut self.arena, &a, &b);
        self.classify_time += evaluated.elapsed();
        Ok(verdict)
    }

    fn lookup(&self, tensor: &str, expr: &RecExpr) -> Option<Verdict> {
        self.accepted
            .get(tensor)?
            .iter()
            .find(|(e, _)| exprs_eq(e, expr))
            .map(|&(_, v)| v)
    }

    /// Verdict of one proof step, with NU01/NU05 reporting.
    fn step_verdict(&mut self, mapping: &str, step: &ProofStep) -> Verdict {
        self.steps += 1;
        match step {
            ProofStep::Given {
                fact,
                before,
                after,
            } => {
                if fact.starts_with("G_d definition of ") {
                    // Both sides denote the value G_d actually computes for
                    // this operator's output: bit-exact by construction.
                    Verdict::exact()
                } else if let Some(t) = fact.strip_prefix("mappings of G_s tensor ") {
                    match (self.lookup(t, before), self.lookup(t, after)) {
                        (Some(va), Some(vb)) => va.compose(&vb),
                        _ => {
                            self.diagnostics.push(Diagnostic::warning(
                                codes::NUM_UNCLASSIFIED,
                                Anchor::Graph,
                                format!(
                                    "mapping {mapping}: given step references unanalyzed \
                                     mappings of {t}"
                                ),
                            ));
                            Verdict::unknown()
                        }
                    }
                } else {
                    self.diagnostics.push(Diagnostic::warning(
                        codes::NUM_UNCLASSIFIED,
                        Anchor::Graph,
                        format!("mapping {mapping}: unrecognized given fact {fact:?}"),
                    ));
                    Verdict::unknown()
                }
            }
            ProofStep::Rule {
                name,
                before,
                after,
                ..
            } => match self.classify_step(before, after) {
                Ok(v) => {
                    if v.class == NumClass::ValueChanging {
                        self.diagnostics.push(
                            Diagnostic::error(
                                codes::NUM_VALUE_CHANGING,
                                Anchor::Lemma(name.clone()),
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
                    v
                }
                Err(why) => {
                    self.left_model(
                        Anchor::Lemma(name.clone()),
                        format!("mapping {mapping}: step by lemma {name}"),
                        &why,
                    );
                    Verdict::unknown()
                }
            },
            // Congruence steps also carry complete before/after terms, so
            // they are classified directly — no need to recurse into the
            // child sub-proofs.
            ProofStep::Congruence { before, after, .. } => {
                match self.classify_step(before, after) {
                    Ok(v) => {
                        if v.class == NumClass::ValueChanging {
                            self.diagnostics.push(Diagnostic::error(
                                codes::NUM_VALUE_CHANGING,
                                Anchor::Graph,
                                format!(
                                    "mapping {mapping}: congruence step changes the computed \
                                     value: {before} vs {after}"
                                ),
                            ));
                        }
                        v
                    }
                    Err(why) => {
                        self.left_model(
                            Anchor::Graph,
                            format!("mapping {mapping}: congruence step"),
                            &why,
                        );
                        Verdict::unknown()
                    }
                }
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
/// distributed graph (for leaf shapes).
pub fn analyze_certificate(cert: &Certificate, gs: &Graph, gd: &Graph) -> CertAnalysis {
    let mut arena = Arena::new();
    let start = Instant::now();
    let gd_values = graph_tensors_sym(&mut arena, gd);
    let gd_pre = start.elapsed();
    let mut ctx = ChainCtx {
        arena,
        gd_values,
        accepted: HashMap::new(),
        table: TermTable::default(),
        diagnostics: Vec::new(),
        cap_reported: false,
        steps: 0,
        eval_time: Duration::ZERO,
        classify_time: Duration::ZERO,
    };
    if ctx.arena.modelled() > ARENA_CAP {
        let what = format!("G_d pre-evaluation ({} nodes)", ctx.arena.modelled());
        ctx.left_model(Anchor::Graph, what, ARENA_CAP_MSG);
    }

    // R_i mappings are the certificate's axioms: the related inputs are
    // fed bit-identically on both sides, so they are exact by fiat.
    for (tensor, mappings) in &cert.inputs {
        let entry = ctx.accepted.entry(tensor.clone()).or_default();
        for m in mappings {
            entry.push((m, Verdict::exact()));
        }
    }

    let mut mapping_verdicts = Vec::with_capacity(cert.mappings.len());
    for mc in &cert.mappings {
        // Input verdicts: the chain's start term applies the G_s operator
        // to these already-accepted expressions, so their errors feed
        // straight into this mapping's output.
        let mut verdict = Verdict::exact();
        if let Some(node) = gs.node_by_name(&mc.operator) {
            for (i, input_expr) in mc.inputs.iter().enumerate() {
                let v = node
                    .inputs
                    .get(i)
                    .map(|&t| gs.tensor(t).name.clone())
                    .and_then(|name| ctx.lookup(&name, input_expr));
                match v {
                    Some(v) => verdict = verdict.compose(&v),
                    None => {
                        ctx.diagnostics.push(Diagnostic::warning(
                            codes::NUM_UNCLASSIFIED,
                            Anchor::Graph,
                            format!(
                                "mapping {}: input {i} is not an analyzed mapping",
                                mc.tensor
                            ),
                        ));
                        verdict = verdict.compose(&Verdict::unknown());
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
            verdict = verdict.compose(&Verdict::unknown());
        }

        for step in &mc.proof.steps {
            let sv = ctx.step_verdict(&mc.tensor, step);
            verdict = verdict.compose(&sv);
        }

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
            .entry(mc.tensor.clone())
            .or_default()
            .push((&mc.expr, verdict));
        mapping_verdicts.push((mc.tensor.clone(), verdict));
    }

    let mut outputs = Vec::with_capacity(cert.outputs.len());
    for (tensor, expr) in &cert.outputs {
        let verdict = match ctx.lookup(tensor, expr) {
            Some(v) => v,
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
            tensor: tensor.clone(),
            verdict,
        });
    }

    let stats = ctx.arena.stats();
    CertAnalysis {
        outputs,
        mappings: mapping_verdicts,
        diagnostics: ctx.diagnostics,
        steps_analyzed: ctx.steps,
        arena_nodes: ctx.arena.len(),
        modelled_nodes: ctx.arena.modelled(),
        subterms: ctx.table.subterms(),
        subterm_hits: ctx.table.hits(),
        gd_pre_us: gd_pre.as_micros() as u64,
        eval_us: ctx.eval_time.as_micros() as u64,
        classify_us: ctx.classify_time.as_micros() as u64,
        dots: stats.dots,
        classified_pairs: stats.classified_pairs,
        expansions: stats.expansions,
        dots_unfolded: stats.dots_unfolded,
        sum_atoms: stats.sum_atoms,
        arena_bytes: ctx.arena.bytes(),
        replayed: false,
    }
}
