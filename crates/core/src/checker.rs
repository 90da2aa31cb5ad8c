//! The refinement-checking algorithm (Listings 1–3).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use entangle_cert::{CertError, Certificate, MappingCert};
use entangle_egraph::{
    BackoffSchedule, CompiledMatcher, EGraph, ENode, Extractor, Id, Proof, RecExpr, Rewrite,
    RunReport, SaturationReport, StopReason, Symbol,
};
use entangle_ir::{Graph, Node, NodeId, TensorId};
use entangle_lemmas::{registry, rewrites_of, TensorAnalysis};
use entangle_par::{with_pool, Renamer, ShardedCache};
use entangle_symbolic::SymCtx;
use entangle_trace::{SpanGuard, Tracer};

use crate::encode::{clean_cost, CleanOps};
use crate::memo::{build_problem, solve_problem, GdConsumers, Solved, TemplateKey};
use crate::relation::Relation;

/// A round's iteration guard is this many iterations plus one per level of
/// the operator's tallest input mapping: distributing an operator over a
/// `concat` of `k` levels takes about one iteration per level, and a round
/// that has its answer stops before the guard.
pub(crate) const ITER_SLACK: usize = 12;
/// E-node limit per operator e-graph.
pub(crate) const NODE_LIMIT: usize = 30_000;
/// Wall-clock limit per saturation round.
pub(crate) const TIME_LIMIT: Duration = Duration::from_secs(10);

/// Tuning knobs for [`check_refinement`]. Every option is independent:
/// none changes which engine runs, only what that one engine is given.
/// The static lint pre-pass always runs. A saturation round stops at its
/// answer: once the operator's clean variants, with their costs, are
/// non-empty and unchanged across an iteration that grew the e-graph, or at
/// saturation. Its guards are 12 iterations plus the height of the
/// operator's tallest input mapping, 30 000 e-nodes and 10 s.
pub struct CheckOptions {
    /// §4.3.2 pruning: how many simplest mappings to keep per tensor.
    pub max_mappings: usize,
    /// The clean-operator set.
    pub clean: CleanOps,
    /// Symbolic-scalar context (user constraints on symbolic dims).
    pub sym_ctx: SymCtx,
    /// The rewrites to saturate with; `None` uses the full lemma registry.
    pub rewrites: Option<Vec<Rewrite<TensorAnalysis>>>,
    /// Run the `entangle-shard` abstract sharding-propagation pass between
    /// lint and saturation (on by default). Provable layout violations fail
    /// fast with [`RefinementError::ShardViolation`], anchored at the first
    /// inconsistent `G_d` operator. The pass is a diagnostic only: it
    /// contributes nothing to the relation, so a clean `G_d` checks
    /// identically with it on or off. Turning it off leaves localization
    /// to saturation alone (the pure Listing 1–3 pipeline).
    pub shard: bool,
    /// Proof-carrying refinement (on by default): extract a rewrite
    /// [`Certificate`] from the saturation e-graph and re-check it with the
    /// `entangle-cert` trusted kernel before reporting success. A rejected
    /// certificate fails the check with [`RefinementError::CertRejected`] —
    /// the engine found a "proof" the independent kernel could not validate.
    /// Turn off to measure the uncertified engine (the figure bins'
    /// `saturation_opts`).
    pub certify: bool,
    /// Structured-tracing sink (`entangle-trace`). The default null tracer
    /// is a true no-op; a real sink receives one span per pipeline stage,
    /// one per `G_s` operator mapping search, and per-iteration saturation
    /// events — the `--trace` / `entangle trace` data. Tracing never
    /// changes verdicts, exit codes, or the search itself.
    pub trace: Tracer,
    /// Worker threads for the dependency-aware operator scheduler (the
    /// `--jobs` flag). Defaults to the detected core count; `0` is treated
    /// as `1`, and `1` solves every operator on the calling thread.
    /// Verdicts, reports, certificates, and trace structure are identical
    /// for any `jobs` (see DESIGN.md's determinism contract).
    pub jobs: usize,
    /// Template instantiation (on by default; needs `certify`): the
    /// `entangle-iso` static analysis partitions `G_s` into repeated
    /// structure classes before any saturation, and each class keeps its
    /// representative's solution under a template key in which concrete
    /// integer slice bounds are `$b` placeholders. A member with the same
    /// key but *different* bounds (the N experts of an MoE) re-checks an
    /// *instantiated* certificate in the `entangle-cert` trusted kernel
    /// (member bounds substituted into the representative's proof); kernel
    /// rejection falls back to a concrete solve, so verdicts never depend on
    /// instantiation. A member with *equal* bounds poses the
    /// representative's concrete problem and replays it from the concrete
    /// memo. Turn off to measure the concrete memo alone
    /// (`tests/templates.rs` pins verdict identity on/off).
    pub templates: bool,
    /// Rule-class-driven backoff scheduling (on by default): the static
    /// corpus analysis (`entangle-rules`) classifies every rewrite and
    /// throttles non-simplifying members of generative interaction cycles —
    /// a rule whose per-iteration match count exceeds the budget sits out a
    /// cooldown, with both doubling on repeat offenses. Saturation still
    /// only reports `Saturated` after a full iteration with every rule
    /// active, so verdicts, relations, and certificates are identical with
    /// the scheduler on or off (the determinism suite pins this); what
    /// changes is wasted e-matching on blowup pairs like
    /// `scalar_mul-distribute` ⇄ `scalar_mul-compose`. The schedule is
    /// derived once per check from the active rewrite set. Turn off to
    /// measure the unthrottled engine (`tests/rules_dynamic.rs` pins
    /// verdict identity on/off).
    pub rule_backoff: bool,
    /// Static numeric-soundness analysis (on by default, requires
    /// [`CheckOptions::certify`]): after the trusted kernel accepts the
    /// certificate, `entangle-num` classifies every proof step as
    /// bit-exact, reassociation-only (with a statically derived
    /// rounding-site count), or value-changing, and composes the classes
    /// along each chain into one verdict and derived comparison tolerance
    /// per `R_o` output ([`CheckOutcome::numeric`], also embedded in the
    /// certificate interchange). Strictly advisory: it never changes the
    /// verdict, relations, certificate proofs, or exit path of the check —
    /// it tells the differential oracle how strictly to compare.
    pub numeric: bool,
    /// Metrics registry (`entangle-metrics`). The default null registry is
    /// a true no-op, same contract as [`CheckOptions::trace`]; an enabled
    /// registry collects the whole pipeline's counters and gauges, and the
    /// caller reads them with `metrics.snapshot()` whether the check
    /// succeeded or failed. Durations are not among them: they live in the
    /// [`CheckOptions::trace`] spans. Every instrument is recorded by this
    /// crate from a report an engine returned unconditionally, so enabling
    /// them never changes verdicts, relations, or certificates.
    pub metrics: entangle_metrics::Registry,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_mappings: 4,
            clean: CleanOps::default(),
            sym_ctx: SymCtx::new(),
            rewrites: None,
            shard: true,
            certify: true,
            trace: Tracer::null(),
            jobs: entangle_par::available_jobs(),
            templates: true,
            rule_backoff: true,
            numeric: true,
            metrics: entangle_metrics::Registry::null(),
        }
    }
}

/// How the scheduler and saturation memo behaved during one check.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParStats {
    /// Worker threads the scheduler used ([`CheckOptions::jobs`], at least 1).
    pub jobs: usize,
    /// Cores detected on this machine.
    pub cores: usize,
    /// Memo lookups that found a previously solved canonical problem.
    pub cache_hits: u64,
    /// Memo lookups that had to solve from scratch.
    pub cache_misses: u64,
    /// Repeated structure classes the static analysis found in `G_s` (0
    /// when [`CheckOptions::templates`] or [`CheckOptions::certify`] is off).
    pub template_classes: usize,
    /// `G_s` operators covered by some repeated class.
    pub template_covered: usize,
    /// Member lookups that found the class representative's entry under an
    /// equal template key. Those with equal slice bounds go on to the
    /// concrete memo and count there too.
    pub template_hits: u64,
    /// Member lookups that found no entry (the representative failed) or
    /// one under another key (the member's problem differs structurally).
    pub template_misses: u64,
    /// Template hits with differing bounds whose instantiated certificate
    /// the kernel accepted.
    pub template_instantiated: u64,
    /// Template hits with differing bounds whose instantiation the kernel
    /// rejected, so the member fell back to the concrete memo.
    pub template_fallbacks: u64,
}

impl ParStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Whole-check saturation telemetry: one [`StopReason`] per saturation run
/// and the merged per-iteration / per-rule [`SaturationReport`]. Collected
/// unconditionally (no tracer required) — this is what `entangle trace`
/// renders as the per-rule table and e-graph growth curve.
///
/// Two tallies, because a memo or template replay hands an operator the
/// report of a run that already happened: [`SaturationSummary::telemetry`]
/// counts every operator's runs — per operator, as the paper's Figure 6
/// does — while [`SaturationSummary::fresh`] counts each run once, which is
/// what the check actually executed and the only tally whose times add up
/// to time spent.
#[derive(Debug, Clone, Default)]
pub struct SaturationSummary {
    /// One entry per saturation run (operators × frontier rounds), in
    /// processing order, replays included.
    pub stops: Vec<StopReason>,
    /// Merged telemetry across all runs, replays included.
    pub telemetry: SaturationReport,
    /// Merged telemetry of the runs that executed: each solved problem's
    /// reports folded at its first merge only.
    pub fresh: SaturationReport,
    fresh_runs: usize,
}

impl SaturationSummary {
    fn record(&mut self, report: &RunReport, replayed: bool) {
        self.stops.push(report.stop_reason);
        self.telemetry.merge(&report.saturation);
        if !replayed {
            self.fresh_runs += 1;
            self.fresh.merge(&report.saturation);
        }
    }

    /// Number of saturation runs, replays included.
    pub fn runs(&self) -> usize {
        self.stops.len()
    }

    /// Total iterations across all runs, replays included.
    pub fn iterations(&self) -> usize {
        self.telemetry.iterations.len()
    }

    /// Saturation runs that executed (the rest of [`Self::runs`] replayed
    /// one of these).
    pub fn fresh_runs(&self) -> usize {
        self.fresh_runs
    }

    /// Iterations of the runs that executed.
    pub fn fresh_iterations(&self) -> usize {
        self.fresh.iterations.len()
    }

    /// Largest e-graph observed at any iteration boundary.
    pub fn peak_nodes(&self) -> usize {
        self.telemetry
            .iterations
            .iter()
            .map(|i| i.nodes)
            .max()
            .unwrap_or(0)
    }

    /// E-nodes after each iteration, across runs in order — the growth
    /// curve.
    pub fn growth(&self) -> Vec<usize> {
        self.telemetry.iterations.iter().map(|i| i.nodes).collect()
    }

    /// Stop-reason histogram in a fixed order (saturated, goal,
    /// iter-limit, node-limit, time-limit).
    pub fn stop_counts(&self) -> Vec<(&'static str, usize)> {
        [
            StopReason::Saturated,
            StopReason::Goal,
            StopReason::IterLimit,
            StopReason::NodeLimit,
            StopReason::TimeLimit,
        ]
        .into_iter()
        .map(|r| (r.as_str(), self.stops.iter().filter(|&&s| s == r).count()))
        .collect()
    }
}

/// Per-lemma application counts, aggregated over the whole check — the raw
/// data of the paper's Figure 6 heatmap. A view of
/// [`SaturationSummary::telemetry`]: its rules with at least one
/// application.
#[derive(Debug, Clone, Default)]
pub struct LemmaStats {
    counts: HashMap<String, u64>,
}

impl LemmaStats {
    fn of(telemetry: &SaturationReport) -> LemmaStats {
        LemmaStats {
            counts: telemetry
                .rules
                .iter()
                .filter(|(_, r)| r.applications > 0)
                .map(|(name, r)| (name.clone(), r.applications))
                .collect(),
        }
    }

    /// Applications of one lemma.
    pub fn count(&self, lemma: &str) -> u64 {
        self.counts.get(lemma).copied().unwrap_or(0)
    }

    /// Total applications across all lemmas.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Iterates `(lemma, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Timing/size report for one processed `G_s` operator.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// The operator's node name.
    pub name: String,
    /// Wall-clock time to compute its output relation.
    pub elapsed: Duration,
    /// E-graph size after processing.
    pub egraph_nodes: usize,
    /// Number of clean mappings found for its output.
    pub mappings: usize,
    /// Frontier rounds (saturation runs) spent on this operator.
    pub rounds: usize,
    /// Why this operator's saturation stopped: the limit the last
    /// cut-short round hit, else the last round's reason (`Goal` or
    /// `Saturated`).
    pub stop: Option<StopReason>,
}

/// The result of a successful refinement check: the certificate of §3.3.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Clean mappings for every `G_s` output — the relation `R_o`.
    pub output_relation: Relation,
    /// Clean mappings for every `G_s` tensor (inputs, intermediates,
    /// outputs).
    pub full_relation: Relation,
    /// Aggregated lemma-application counts.
    pub lemma_stats: LemmaStats,
    /// Per-operator reports, in processing order.
    pub op_reports: Vec<OpReport>,
    /// Whole-check saturation telemetry (stop reasons, per-rule timings,
    /// growth curve). Collected whether or not a tracer is attached.
    pub saturation: SaturationSummary,
    /// The kernel-accepted rewrite certificate (`None` when
    /// [`CheckOptions::certify`] is off). By construction this has already
    /// passed `entangle_cert::verify`; it can be serialized with
    /// `entangle_cert::to_json` and re-checked out-of-process.
    pub certificate: Option<Certificate>,
    /// Static numeric-soundness analysis of the accepted certificate
    /// (`None` when [`CheckOptions::numeric`] or [`CheckOptions::certify`]
    /// is off): per-output numeric class and derived comparison tolerance,
    /// plus any `NU##` diagnostics. Advisory — present only on *successful*
    /// checks and never part of the verdict.
    pub numeric: Option<entangle_num::CertAnalysis>,
    /// Scheduler and saturation-memo statistics (the CLI's `parallel :`
    /// line and the benchmark's `par.*` rows). The only [`CheckOutcome`]
    /// field allowed to vary with [`CheckOptions::jobs`]: hit/miss counts
    /// depend on which of two racing workers reaches a key first.
    pub par: ParStats,
}

/// Refinement failure: `G_d` does not (provably) refine `G_s`.
///
/// Carries the identity of the first unmappable operator and the mappings of
/// its inputs — the paper's actionable bug-localization output (§6.2).
#[derive(Debug, Clone)]
pub enum RefinementError {
    /// The static lint pre-pass found error-severity diagnostics in one of
    /// the graphs; no saturation was attempted.
    Lint {
        /// Which graph failed: `"G_s"` or `"G_d"`.
        graph: String,
        /// The error-severity diagnostics, already rendered against the
        /// offending graph (anchors resolved to node/tensor names).
        diagnostics: Vec<entangle_lint::Diagnostic>,
        /// The rendered form of `diagnostics`.
        rendered: Vec<String>,
    },
    /// The abstract sharding-propagation pass (`entangle-shard`) proved a
    /// layout violation in `G_d`; no saturation was attempted. The
    /// diagnostics are anchored at the first inconsistent operator —
    /// usually a sharper localization than the saturation failure the same
    /// bug would eventually cause. Disable with
    /// [`CheckOptions::shard`].
    ShardViolation {
        /// The error-severity `SH##` diagnostics, in topological order.
        diagnostics: Vec<entangle_lint::Diagnostic>,
        /// The rendered form of `diagnostics` (anchors resolved against
        /// `G_d`).
        rendered: Vec<String>,
    },
    /// The input relation does not map every `G_s` input.
    MissingInputMapping {
        /// Name of the unmapped `G_s` input tensor.
        tensor: String,
    },
    /// A `G_s` *output* tensor has clean mappings, but none over `G_d`'s
    /// outputs alone (Listing 1 line 9 restricts `R_o` to `T ⊆ O(G_d)`):
    /// the deployed implementation never materializes the values needed to
    /// reconstruct this output — e.g. a missing all-reduce leaves only
    /// partial sums on the ranks.
    OutputUnmapped {
        /// Name of the `G_s` output tensor.
        tensor: String,
        /// The operator producing it (or `<input>` for passthrough).
        operator: String,
        /// The clean mappings that exist but use `G_d` intermediates.
        intermediate_mappings: Vec<String>,
    },
    /// The saturation engine claimed a refinement, but the extracted
    /// certificate was refused by the `entangle-cert` trusted kernel. Under
    /// the paper's assumptions this means an engine bug (or a corrupted
    /// certificate when re-checking one from disk), never a mere
    /// incompleteness: the engine said yes and could not prove it.
    CertRejected {
        /// The kernel's verdict.
        error: CertError,
    },
    /// No clean mapping exists for an operator's output (Listing 1 line 6).
    OperatorUnmapped {
        /// The failing operator's node name.
        operator: String,
        /// The operator kind (e.g. `matmul`).
        op: String,
        /// The failing node's id in `G_s`.
        node: NodeId,
        /// The mappings of the operator's inputs, for debugging: pairs of
        /// `(G_s tensor name, clean expressions over G_d)`.
        input_mappings: Vec<(String, Vec<String>)>,
        /// Why the mapping search stopped. `Saturated` means the lemma
        /// corpus was exhausted — a genuine refinement bug under the
        /// paper's assumptions; a limit reason means the search *gave up*
        /// at the checker's fixed limit and a mapping may still exist.
        /// `None` when no saturation ran (e.g. an input had no mapping at
        /// all). Never `Goal`: the goal holds only once a mapping exists.
        stop: Option<StopReason>,
    },
}

impl fmt::Display for RefinementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefinementError::Lint {
                graph, rendered, ..
            } => {
                writeln!(
                    f,
                    "{graph} failed static lint; fix these before refinement checking:"
                )?;
                for (i, line) in rendered.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "  {line}")?;
                }
                Ok(())
            }
            RefinementError::ShardViolation { rendered, .. } => {
                writeln!(
                    f,
                    "sharding propagation proved layout violations in G_d; the \
                     distributed implementation cannot refine the model:"
                )?;
                for (i, line) in rendered.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "  {line}")?;
                }
                Ok(())
            }
            RefinementError::MissingInputMapping { tensor } => {
                write!(f, "input relation has no mapping for G_s input {tensor:?}")
            }
            RefinementError::CertRejected { error } => {
                write!(
                    f,
                    "the trusted kernel refused the refinement certificate: {error}"
                )
            }
            RefinementError::OutputUnmapped {
                tensor,
                operator,
                intermediate_mappings,
            } => {
                writeln!(
                    f,
                    "G_s output {tensor:?} (produced by {operator:?}) cannot be \
                     reconstructed from G_d's outputs alone"
                )?;
                if intermediate_mappings.is_empty() {
                    writeln!(f, "no clean mappings exist at all for this output")?;
                } else {
                    writeln!(
                        f,
                        "clean mappings exist only over G_d intermediates (values the \
                         deployment never emits):"
                    )?;
                    for m in intermediate_mappings {
                        writeln!(f, "  {tensor} -> {m}")?;
                    }
                }
                write!(
                    f,
                    "a combining step (e.g. an all-reduce or all-gather) is likely \
                     missing before G_d's outputs"
                )
            }
            RefinementError::OperatorUnmapped {
                operator,
                op,
                node,
                input_mappings,
                stop,
            } => {
                writeln!(
                    f,
                    "could not map outputs for operator {operator:?} ({op}, {node}); \
                     the distributed implementation does not refine the model here."
                )?;
                writeln!(f, "input mappings at this operator:")?;
                for (tensor, exprs) in input_mappings {
                    if exprs.is_empty() {
                        writeln!(f, "  {tensor} -> (no clean mapping)")?;
                    }
                    for e in exprs {
                        writeln!(f, "  {tensor} -> {e}")?;
                    }
                }
                match stop {
                    Some(StopReason::Saturated) => writeln!(
                        f,
                        "saturation ran the lemma corpus dry (stop reason: saturated), \
                         so no clean mapping exists under the current lemmas"
                    )?,
                    Some(reason) if reason.is_limit() => writeln!(
                        f,
                        "note: the mapping search gave up on a resource limit (stop \
                         reason: {reason}), so a mapping may still exist beyond \
                         the checker's fixed search limits"
                    )?,
                    _ => {}
                }
                write!(
                    f,
                    "inspect this operator, its inputs' mappings, and the G_d operators \
                     feeding them to localize the bug"
                )
            }
        }
    }
}

impl std::error::Error for RefinementError {}

impl RefinementError {
    /// The stable lower-kebab name of the variant: the root trace span's
    /// `outcome` attribute and the run ledger's `failed:<kind>` verdict.
    pub fn kind(&self) -> &'static str {
        match self {
            RefinementError::Lint { .. } => "lint",
            RefinementError::ShardViolation { .. } => "shard-violation",
            RefinementError::MissingInputMapping { .. } => "missing-input-mapping",
            RefinementError::OutputUnmapped { .. } => "output-unmapped",
            RefinementError::CertRejected { .. } => "cert-rejected",
            RefinementError::OperatorUnmapped { .. } => "operator-unmapped",
        }
    }
}

/// Runs the `entangle-lint` static pre-pass over `G_s` and `G_d`.
///
/// Returns `Err(RefinementError::Lint)` for the first graph with
/// error-severity diagnostics (warnings are ignored here — the CLI surfaces
/// them separately). This is the cheap front gate of [`check_refinement`]:
/// it runs before any rewrites are built or any e-graph is touched.
///
/// # Errors
///
/// Returns [`RefinementError::Lint`] naming the offending graph with its
/// rendered diagnostics.
pub fn check_lint(gs: &Graph, gd: &Graph) -> Result<(), RefinementError> {
    for (label, graph) in [("G_s", gs), ("G_d", gd)] {
        let report = entangle_lint::lint_graph(graph);
        if !report.is_clean() {
            let diagnostics: Vec<_> = report.errors().cloned().collect();
            let rendered = diagnostics.iter().map(|d| d.render(Some(graph))).collect();
            return Err(RefinementError::Lint {
                graph: label.to_owned(),
                diagnostics,
                rendered,
            });
        }
    }
    Ok(())
}

/// Checks that `gd` refines `gs` under the input relation `ri`, returning
/// the clean output relation `R_o` (Listing 1).
///
/// # Errors
///
/// Returns [`RefinementError`] when an input lacks a mapping or when some
/// operator's outputs cannot be cleanly reconstructed from `G_d` — which,
/// under the paper's assumptions (§3.3), indicates a distribution bug.
pub fn check_refinement(
    gs: &Graph,
    gd: &Graph,
    ri: &Relation,
    opts: &CheckOptions,
) -> Result<CheckOutcome, RefinementError> {
    let mut root = opts.trace.span("check_refinement");
    root.attr("gs", gs.name());
    root.attr("gd", gd.name());
    let result = check_refinement_inner(gs, gd, ri, opts);
    match &result {
        Ok(outcome) => {
            root.attr("outcome", "verified");
            root.attr("operators", outcome.op_reports.len());
            root.attr("saturation_runs", outcome.saturation.runs());
        }
        Err(e) => root.attr("outcome", e.kind()),
    }
    result
}

/// Runs one pipeline stage under its `stage:{name}` span, the one place
/// the stage's duration is recorded. A stage that fails closes its span
/// like one that succeeds.
fn stage<T>(opts: &CheckOptions, name: &str, body: impl FnOnce(&mut SpanGuard) -> T) -> T {
    body(&mut opts.trace.span(&format!("stage:{name}")))
}

/// Runs a trusted-kernel call and counts its verdict into
/// `cert.verify.{accepted,rejected}`.
fn counted_kernel(
    metrics: &entangle_metrics::Registry,
    call: impl FnOnce() -> Result<(), CertError>,
) -> Result<(), CertError> {
    let result = call();
    let verdict = match &result {
        Ok(()) => "cert.verify.accepted",
        Err(_) => "cert.verify.rejected",
    };
    metrics.counter(verdict).inc();
    result
}

/// Records one *fresh* saturation run (a memo replay describes a run
/// already counted): growth and peak-size gauges, run/iteration/union
/// counters, the backoff ban counter and the e-matching instruments — all
/// read from the report the runner returns whether or not anyone is
/// measuring.
fn record_run(m: &entangle_metrics::Registry, report: &RunReport) {
    if !m.is_enabled() {
        return;
    }
    m.counter("egraph.runs").inc();
    m.counter("egraph.iterations").add(report.iterations as u64);
    let peak_nodes = m.gauge("egraph.peak_nodes");
    let peak_classes = m.gauge("egraph.peak_classes");
    let mut unions = 0u64;
    for it in &report.saturation.iterations {
        peak_nodes.set_max(it.nodes as u64);
        peak_classes.set_max(it.classes as u64);
        unions += it.unions;
    }
    // A run cut short before its first iteration boundary still has a
    // real final size.
    peak_nodes.set_max(report.egraph_nodes as u64);
    peak_classes.set_max(report.egraph_classes as u64);
    m.counter("egraph.unions").add(unions);
    if report.bans > 0 {
        m.counter("rules.backoff.bans").add(report.bans);
    }
    m.gauge("ematch.trie.nodes")
        .set_max(report.trie_nodes as u64);
    m.counter("ematch.candidates.visited")
        .add(report.ematch_candidates);
    m.counter("ematch.matches.yielded")
        .add(report.ematch_yields);
}

fn check_refinement_inner(
    gs: &Graph,
    gd: &Graph,
    ri: &Relation,
    opts: &CheckOptions,
) -> Result<CheckOutcome, RefinementError> {
    let metrics = &opts.metrics;
    stage(opts, "lint", |sp| {
        let r = check_lint(gs, gd);
        sp.attr(
            "outcome",
            match &r {
                Ok(()) => "ok".to_owned(),
                Err(RefinementError::Lint { graph, .. }) => format!("errors:{graph}"),
                Err(_) => unreachable!("check_lint only fails with Lint"),
            },
        );
        r
    })?;
    for &input in gs.inputs() {
        if !ri.contains(input) {
            return Err(RefinementError::MissingInputMapping {
                tensor: gs.tensor(input).name.clone(),
            });
        }
    }
    // Abstract sharding propagation (entangle-shard): localize provable
    // layout violations before any e-graph exists.
    if opts.shard {
        stage(opts, "shard", |sp| {
            let r = shard_pass(gs, gd, ri);
            match &r {
                Ok(hints) => {
                    sp.attr("outcome", "ok");
                    sp.attr("hinted_tensors", *hints);
                }
                Err(_) => sp.attr("outcome", "violation"),
            }
            r
        })?;
    }

    // Everything the map stage needs that depends on the rule corpus or
    // on `G_s` alone, derived once per check and shared with every
    // per-operator solve.
    let (rewrites, backoff, matcher, templates) = stage(opts, "setup", |sp| {
        let rewrites = opts
            .rewrites
            .clone()
            .unwrap_or_else(|| rewrites_of(&registry()));
        // Rule-class-driven backoff: the throttle schedule of the active
        // rewrite set (classification + interaction-cycle analysis, no
        // e-graph).
        let (backoff, unifications) = if opts.rule_backoff {
            entangle_rules::backoff_schedule_counted(&rewrites)
        } else {
            (None, 0)
        };
        let throttled = backoff.as_ref().map_or(0, BackoffSchedule::len);
        metrics
            .gauge("rules.backoff.throttled")
            .set(throttled as u64);
        // The discrimination tree every saturation run searches with.
        let matcher = CompiledMatcher::compile(&rewrites);
        // Static template analysis: the `entangle-iso` partition names each
        // repeated-structure class's representative, whose certificate
        // members with other slice bounds instantiate instead of
        // re-saturating. Instantiation is kernel-gated, so without
        // certification the partition has nothing to do.
        let templates = (opts.templates && opts.certify).then(|| {
            let partition = entangle_iso::analyze(gs);
            metrics
                .gauge("iso.template.classes")
                .set(partition.class_count() as u64);
            metrics
                .gauge("iso.template.covered")
                .set(partition.covered() as u64);
            TemplateInfo::new(&partition, gs.nodes().len())
        });
        sp.attr("rules", rewrites.len());
        sp.attr("throttled", throttled);
        sp.attr("trie_nodes", matcher.trie_nodes());
        sp.attr("unifications", unifications);
        (rewrites, backoff, matcher, templates)
    });

    let mut certificate = opts.certify.then(|| Certificate {
        gs: gs.name().to_owned(),
        gd: gd.name().to_owned(),
        inputs: ri
            .iter()
            .map(|(t, exprs)| (gs.tensor(t).name.clone(), exprs.to_vec()))
            .collect(),
        mappings: Vec::new(),
        outputs: Vec::new(),
        numeric: Vec::new(),
    });

    let mut relation = ri.clone();
    let mut saturation = SaturationSummary::default();
    let mut op_reports = Vec::with_capacity(gs.num_nodes());

    let gd_output_names: HashSet<&str> = gd
        .outputs()
        .iter()
        .map(|&t| gd.tensor(t).name.as_str())
        .collect();

    let jobs = opts.jobs.max(1);
    // The saturation memo fronts the one engine for every input. Its key
    // renders the canonical problem only — symbolic shapes and slice bounds
    // included — and not the engine configuration: the memo, `opts` (limits,
    // clean set, `sym_ctx`) and the rewrite set all live exactly as long as
    // this check, so equal keys pose equal problems to the same engine.
    let cache: ShardedCache<Solved> = ShardedCache::new(16);
    let mapped = stage(opts, "map", |_| {
        let ctx = MapCtx {
            gs,
            gd,
            opts,
            rewrites: &rewrites,
            matcher: &matcher,
            nodes: gs.nodes().iter().collect(),
            cache: &cache,
            backoff: backoff.as_ref(),
            templates: templates.as_ref(),
            consumers: GdConsumers::new(gd),
        };
        let mut st = MapState {
            relation: &mut relation,
            saturation: &mut saturation,
            op_reports: &mut op_reports,
            certificate: &mut certificate,
            merged: HashSet::new(),
        };
        map_stage_scheduled(&ctx, &mut st, jobs)
    });
    // Read on the failure path too: a failed check has no `CheckOutcome`,
    // so the registry is all that says how far the memos got.
    let cache_stats = cache.stats();
    metrics.counter("par.cache.hits").add(cache_stats.hits);
    metrics.counter("par.cache.misses").add(cache_stats.misses);
    let count = |field: fn(&TemplateInfo) -> &AtomicU64| {
        templates.as_ref().map_or(0, |t| field(t).load(Relaxed))
    };
    let (template_hits, template_misses) = (count(|t| &t.hits), count(|t| &t.misses));
    if templates.is_some() {
        metrics.counter("par.template.hits").add(template_hits);
        metrics.counter("par.template.misses").add(template_misses);
    }
    mapped?;

    // Listing 1 line 9: R_o keeps only mappings whose leaves are G_d
    // *outputs* — the tensors a deployed implementation actually emits.
    let output_relation = stage(opts, "outputs", |sp| {
        let mut output_relation = Relation::new();
        for &out in gs.outputs() {
            let Some(maps) = relation.mappings(out) else {
                // An output that is a graph input must be covered by R_i
                // (already checked); an operator output is covered by the
                // map stage.
                unreachable!("relation must cover every produced tensor");
            };
            let over_outputs: Vec<_> = maps
                .iter()
                .filter(|m| {
                    m.leaf_symbols()
                        .iter()
                        .all(|s| gd_output_names.contains(s.as_str()))
                })
                .cloned()
                .collect();
            if over_outputs.is_empty() {
                sp.attr("outcome", "output-unmapped");
                return Err(RefinementError::OutputUnmapped {
                    tensor: gs.tensor(out).name.clone(),
                    operator: gs
                        .producer(out)
                        .map(|n| n.name.clone())
                        .unwrap_or_else(|| "<input>".to_owned()),
                    intermediate_mappings: maps.iter().map(|m| m.to_string()).collect(),
                });
            }
            for m in over_outputs {
                output_relation.insert(out, m);
            }
        }
        sp.attr("outcome", "ok");
        Ok(output_relation)
    })?;

    // Proof-carrying refinement: hand the assembled certificate to the
    // independent trusted kernel. Only a kernel-accepted derivation counts
    // as a verified refinement.
    if let Some(c) = &mut certificate {
        c.outputs = output_relation
            .iter()
            .flat_map(|(t, exprs)| {
                let name = gs.tensor(t).name.clone();
                exprs.iter().map(move |e| (name.clone(), e.clone()))
            })
            .collect();
        stage(opts, "certify", |sp| {
            sp.attr("mappings", c.mappings.len());
            sp.attr("steps", c.total_steps());
            let mut kernel = entangle_cert::KernelReport::default();
            let r = counted_kernel(metrics, || {
                let (verdict, report) =
                    entangle_cert::verify_reporting(c, gs, gd, &rewrites, &opts.sym_ctx);
                kernel = report;
                verdict
            });
            for (key, count) in kernel.attrs() {
                sp.attr(key, count);
            }
            sp.attr("outcome", if r.is_ok() { "accepted" } else { "rejected" });
            r
        })
        .map_err(|error| RefinementError::CertRejected { error })?;
    }

    // Static numeric-soundness analysis of the accepted derivation. Runs
    // strictly after the kernel's verdict and can only annotate: per-output
    // verdicts land in the outcome and (as plain tags) in the certificate's
    // advisory `numeric` section.
    let mut numeric = None;
    if opts.numeric {
        if let Some(c) = &mut certificate {
            let analysis = stage(opts, "numeric", |sp| {
                let analysis = entangle_num::analyze_certificate(c, gs, gd);
                sp.attr("outputs", analysis.outputs.len());
                sp.attr("steps", analysis.steps_analyzed);
                sp.attr("arena_nodes", analysis.arena_nodes);
                sp.attr("modelled_nodes", analysis.modelled_nodes);
                sp.attr("subterms", analysis.subterms);
                sp.attr("subterm_hits", analysis.subterm_hits);
                sp.attr("gd_pre_us", analysis.gd_pre_us);
                sp.attr("eval_us", analysis.eval_us);
                sp.attr("classify_us", analysis.classify_us);
                sp.attr("dots", analysis.dots);
                sp.attr("classified_pairs", analysis.classified_pairs);
                sp.attr("expansions", analysis.expansions);
                sp.attr("dots_unfolded", analysis.dots_unfolded);
                sp.attr("arena_bytes", analysis.arena_bytes);
                sp.attr(
                    "outcome",
                    if analysis.is_clean() {
                        "clean"
                    } else {
                        "flagged"
                    },
                );
                analysis
            });
            c.numeric = analysis
                .outputs
                .iter()
                .map(|o| entangle_cert::NumericVerdict {
                    tensor: o.tensor.clone(),
                    class: o.verdict.class.tag().to_owned(),
                    k: o.verdict.k,
                })
                .collect();
            numeric = Some(analysis);
        }
    }

    let (instantiated, fallbacks) = (count(|t| &t.instantiated), count(|t| &t.fallbacks));
    let cores = entangle_par::available_jobs();
    metrics.gauge("par.jobs").set(jobs as u64);
    metrics.gauge("par.cores").set(cores as u64);
    metrics
        .counter("check.operators")
        .add(op_reports.len() as u64);
    if templates.is_some() {
        metrics
            .counter("par.template.instantiated")
            .add(instantiated);
        metrics.counter("par.template.fallbacks").add(fallbacks);
    }
    Ok(CheckOutcome {
        output_relation,
        full_relation: relation,
        lemma_stats: LemmaStats::of(&saturation.telemetry),
        op_reports,
        saturation,
        certificate,
        numeric,
        par: ParStats {
            jobs,
            cores,
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            template_classes: templates.as_ref().map_or(0, |t| t.slots.len()),
            template_covered: templates.as_ref().map_or(0, |t| t.covered),
            template_hits,
            template_misses,
            template_instantiated: instantiated,
            template_fallbacks: fallbacks,
        },
    })
}

/// The engine-configuration half of [`problem_fingerprint`]: everything
/// other than the graphs and `R_i` that can change what [`solve_problem`]
/// computes — the goal-directed stop and its iteration, node and time
/// guards, pruning width, certification, the clean-operator set, and a
/// fingerprint of the lemma corpus (name, searcher, right-hand side — `~dyn`
/// for programmatic appliers — and conditionality per rewrite).
fn engine_fingerprint(opts: &CheckOptions, rewrites: &[Rewrite<TensorAnalysis>]) -> String {
    use std::fmt::Write;
    let mut fp = String::with_capacity(64 * rewrites.len());
    let _ = write!(
        fp,
        "|cfg:stop=goal,iters={}+height,nodes={},time_us={},max={},certify={},backoff={},compiled={},clean={:?};lemmas:",
        ITER_SLACK,
        NODE_LIMIT,
        TIME_LIMIT.as_micros(),
        opts.max_mappings,
        opts.certify,
        opts.rule_backoff,
        // The matcher *generation* keys the baseline: a revised compilation
        // strategy must not be compared against an older one's numbers.
        format_args!("g{}", entangle_egraph::MATCHER_GENERATION),
        opts.clean,
    );
    for rw in rewrites {
        let _ = write!(fp, "{}:{}:", rw.name(), rw.searcher());
        match rw.rhs() {
            Some(p) => {
                let _ = write!(fp, "{p}");
            }
            None => fp.push_str("~dyn"),
        }
        fp.push(':');
        fp.push(if rw.has_condition() { 'c' } else { 'u' });
        fp.push(';');
    }
    fp
}

/// A stable fingerprint of one check *problem*: the engine configuration
/// and lemma corpus ([`engine_fingerprint`]) plus the structure of both
/// graphs and the input relation. This is the run ledger's baseline key —
/// `entangle report` only compares a run's numbers against history with
/// the same fingerprint, so a changed graph, corpus, or knob reads as a
/// baseline reset instead of a regression.
///
/// Hex of a 64-bit FNV-1a over a canonical rendering; independent of
/// `jobs`, tracing, and metrics (none of which may change the verdict).
pub fn problem_fingerprint(gs: &Graph, gd: &Graph, ri: &Relation, opts: &CheckOptions) -> String {
    let rewrites = opts
        .rewrites
        .clone()
        .unwrap_or_else(|| rewrites_of(&registry()));
    let mut text = engine_fingerprint(opts, &rewrites);
    for g in [gs, gd] {
        text.push_str("|graph:");
        text.push_str(g.name());
        for t in g.tensors() {
            use std::fmt::Write;
            let _ = write!(text, ";t:{}:{}:{:?}", t.name, t.shape, t.dtype);
        }
        for n in g.nodes() {
            use std::fmt::Write;
            let _ = write!(text, ";n:{}:{:?}:", n.name, n.op);
            for &i in &n.inputs {
                let _ = write!(text, "{},", i.0);
            }
            let _ = write!(text, "->{}", n.output.0);
        }
    }
    text.push_str("|ri:");
    for (t, exprs) in ri.iter() {
        use std::fmt::Write;
        let _ = write!(text, ";{}=", t.0);
        for e in exprs {
            let _ = write!(text, "{e},");
        }
    }
    // FNV-1a, 64-bit: tiny, dependency-free, stable across platforms and
    // releases (unlike DefaultHasher).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Runs the sharding-propagation pass: errors become
/// [`RefinementError::ShardViolation`]; a clean pass reports how many
/// layouts it proved (the `stage:shard` span's `hinted_tensors`).
fn shard_pass(gs: &Graph, gd: &Graph, ri: &Relation) -> Result<usize, RefinementError> {
    let maps: Vec<(String, RecExpr)> = ri
        .iter()
        .flat_map(|(t, exprs)| {
            let name = gs.tensor(t).name.clone();
            exprs.iter().map(move |e| (name.clone(), e.clone()))
        })
        .collect();
    let analysis = entangle_shard::analyze_pair(gs, gd, &maps, &[]);
    if !analysis.is_clean() {
        let diagnostics: Vec<_> = analysis.report.errors().cloned().collect();
        let rendered = diagnostics.iter().map(|d| d.render(Some(gd))).collect();
        return Err(RefinementError::ShardViolation {
            diagnostics,
            rendered,
        });
    }
    Ok(analysis.hints.len())
}

// ---------------------------------------------------------------------------
// The dependency-aware operator scheduler (entangle-par).
//
// G_s operators only depend on each other through the relation: an operator
// is dispatchable once every producer of one of its inputs has *completed*
// (its mappings are staged in the relation — identical to its post-merge
// state). Operators are solved out of order — by pool workers, or by the
// coordinator when one is ready alone — and merged strictly in G_s index
// order, so reports, relation contents, certificates, and trace structure
// match the `jobs = 1` in-order run for any worker count. Failure handling
// relies on the same invariant: the first error the merge cursor reaches is
// the same first error that run hits, because every operator before it
// merged successfully with identical inputs.
// ---------------------------------------------------------------------------

/// One solved template class: the representative's template key, per-site
/// bound values and definition-slot names (render order, matching
/// `OpProblem::template_key`) and its solved canonical problem,
/// certificates included.
struct TemplateEntry {
    key: String,
    bounds: Vec<i64>,
    defs: Vec<(String, String)>,
    solved: Arc<Solved>,
}

/// The static template partition plus one instantiation slot per class,
/// shared with worker threads. Only a class *representative* (its smallest
/// G_s node index) fills its slot; members read it, so lookups are
/// deterministic for any worker count once the scheduler orders members
/// after their representative.
struct TemplateInfo {
    /// Per G_s node index: `(class id, representative node index)` for
    /// nodes in a repeated-structure class.
    class_rep: Vec<Option<(usize, usize)>>,
    /// Operators covered by some class.
    covered: usize,
    /// Per class id: the representative's entry, once it has solved.
    slots: Vec<OnceLock<TemplateEntry>>,
    /// Member lookups that found their representative's entry under an
    /// equal template key.
    hits: AtomicU64,
    /// Member lookups that found no entry, or one under another key.
    misses: AtomicU64,
    /// Members whose mappings were instantiated from the representative's
    /// certificate (kernel-accepted).
    instantiated: AtomicU64,
    /// Members whose instantiation the kernel rejected.
    fallbacks: AtomicU64,
}

impl TemplateInfo {
    fn new(analysis: &entangle_iso::IsoAnalysis, num_nodes: usize) -> TemplateInfo {
        let mut class_rep = vec![None; num_nodes];
        for (idx, slot) in class_rep.iter_mut().enumerate() {
            if let Some(class) = analysis.class_of(idx) {
                *slot = Some((class.id, class.representative()));
            }
        }
        TemplateInfo {
            class_rep,
            covered: analysis.covered(),
            slots: (0..analysis.class_count())
                .map(|_| OnceLock::new())
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            instantiated: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }
}

/// Immutable per-check context shared with worker threads.
struct MapCtx<'a> {
    gs: &'a Graph,
    gd: &'a Graph,
    opts: &'a CheckOptions,
    rewrites: &'a [Rewrite<TensorAnalysis>],
    /// `rewrites` compiled, once, for every saturation run of the check.
    matcher: &'a CompiledMatcher,
    nodes: Vec<&'a Node>,
    cache: &'a ShardedCache<Solved>,
    backoff: Option<&'a BackoffSchedule>,
    templates: Option<&'a TemplateInfo>,
    /// Consumer index over `G_d`, built once and shared by every
    /// `build_problem` frontier closure.
    consumers: GdConsumers,
}

/// The coordinator's mutable check state (owned by the calling thread).
struct MapState<'a> {
    relation: &'a mut Relation,
    saturation: &'a mut SaturationSummary,
    op_reports: &'a mut Vec<OpReport>,
    certificate: &'a mut Option<Certificate>,
    /// The solved problems merged so far, by identity. The concrete memo and
    /// the template slots hand out the one `Arc` stored under a key, so an
    /// operator whose solution is already in here replays a run an earlier
    /// operator reported — the same operators for any worker count, because
    /// merging is in order.
    merged: HashSet<*const Solved>,
}

/// Everything a worker hands back for one operator: plain data, recorded
/// (trace, telemetry, certificate, relation) by the coordinator alone at
/// the operator's in-order merge turn.
struct OpResult {
    /// The operator's clean mappings in real (non-canonical) names, ordered
    /// by `(cost, real text)`; empty when the search found none.
    mappings: Vec<(RecExpr, Option<Proof>)>,
    /// The solved canonical problem behind `mappings` — freshly computed or
    /// replayed from a memo, indistinguishably. `None` when an input had no
    /// mapping, so no problem could be posed.
    solved: Option<Arc<Solved>>,
    elapsed: Duration,
}

/// Member-side template lookup: the representative's entry when its slot
/// holds one under the member's template key (a hit), else `None` (a miss).
fn template_entry<'t>(
    templates: &'t TemplateInfo,
    class: usize,
    tk: &TemplateKey,
) -> Option<&'t TemplateEntry> {
    let entry = templates.slots[class].get().filter(|e| e.key == tk.key);
    let counter = if entry.is_some() {
        &templates.hits
    } else {
        &templates.misses
    };
    counter.fetch_add(1, Relaxed);
    entry
}

/// The per-site value substitution implied by the differing bound sites,
/// or `None` when the sites conflict (one representative value would need
/// two images) or nothing differs.
fn diff_value_map(rep: &[i64], member: &[i64]) -> Option<HashMap<i64, i64>> {
    let mut map = HashMap::new();
    for (&r, &m) in rep.iter().zip(member) {
        if r == m {
            continue;
        }
        match map.entry(r) {
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != m {
                    return None;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(m);
            }
        }
    }
    (!map.is_empty()).then_some(map)
}

/// Builds the mappings of a member whose slice bounds differ from its
/// representative's by instantiating the representative's certificate:
/// translate each variant into the member's canonical namespace through the
/// definition-slot pairing (tensor names and `Given` fact labels), apply a
/// candidate bound substitution to its expression and proof chain (rule
/// substitutions are re-derived — see `entangle-cert`), rename out of the
/// canonical namespace with this member's own renamer, and re-check the
/// mapping in the trusted kernel against the member's accepted input
/// mappings. The candidates are the value substitution read off the
/// differing sites (when consistent), then the identity (bound sites may
/// belong to *other* members' structures that the variant never mentions).
/// Each variant keeps the first candidate the kernel accepts; a variant no
/// candidate can justify abandons the whole instantiation, so soundness
/// never rests on the substitution heuristic.
fn instantiate_template(
    ctx: &MapCtx,
    node: &Node,
    per_input: &[Vec<RecExpr>],
    back: &Renamer,
    entry: &TemplateEntry,
    tk: &TemplateKey,
) -> Option<Vec<(RecExpr, Option<Proof>)>> {
    let mut translate = Renamer::new();
    for ((rep_label, rep_out), (mem_label, mem_out)) in entry.defs.iter().zip(&tk.defs) {
        if rep_out != mem_out {
            translate.leaf(Symbol::new(rep_out), Symbol::new(mem_out));
        }
        if rep_label != mem_label {
            translate.fact(
                format!("G_d definition of {rep_label}"),
                format!("G_d definition of {mem_label}"),
            );
        }
    }
    let mut candidates: Vec<HashMap<i64, i64>> = Vec::new();
    candidates.extend(diff_value_map(&entry.bounds, &tk.bounds));
    candidates.push(HashMap::new());
    let accepted: HashMap<String, Vec<RecExpr>> = node
        .inputs
        .iter()
        .zip(per_input)
        .map(|(&t, exprs)| (ctx.gs.tensor(t).name.clone(), exprs.clone()))
        .collect();
    // The inputs' first mappings are what the certificate records (the
    // saturation base term applies the operator to exactly these).
    let first_inputs: Vec<RecExpr> = per_input
        .iter()
        .filter_map(|m| m.first().cloned())
        .collect();
    let tensor = ctx.gs.tensor(node.output).name.clone();
    let mut mapped: Vec<(f64, RecExpr, Option<Proof>)> =
        Vec::with_capacity(entry.solved.variants.len());
    'variants: for (cost, expr, proof) in &entry.solved.variants {
        let t_expr = translate.rename_expr(expr);
        let t_proof = translate.rename_proof(proof.as_ref()?);
        for value_map in &candidates {
            let (c_expr, c_proof) = if value_map.is_empty() {
                (t_expr.clone(), t_proof.clone())
            } else {
                let e = entangle_cert::retarget_slice_bounds(&t_expr, value_map);
                match entangle_cert::retarget_proof(&t_proof, value_map, ctx.rewrites) {
                    Ok(p) => (e, p),
                    Err(_) => continue,
                }
            };
            let real_expr = back.rename_expr(&c_expr);
            let real_proof = back.rename_proof(&c_proof);
            let mc = MappingCert {
                tensor: tensor.clone(),
                operator: node.name.clone(),
                inputs: first_inputs.clone(),
                expr: real_expr.clone(),
                proof: real_proof.clone(),
            };
            if counted_kernel(&ctx.opts.metrics, || {
                entangle_cert::verify_mapping(
                    &mc,
                    ctx.gs,
                    ctx.gd,
                    ctx.rewrites,
                    &ctx.opts.sym_ctx,
                    &accepted,
                )
            })
            .is_ok()
            {
                mapped.push((*cost, real_expr, Some(real_proof)));
                continue 'variants;
            }
        }
        return None;
    }
    // Same (cost, real text) ordering as a plain replay in `run_op`.
    mapped.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.to_string().cmp(&b.1.to_string()))
    });
    Some(mapped.into_iter().map(|(_, e, p)| (e, p)).collect())
}

/// Solves one operator on the current thread: canonicalize it
/// ([`build_problem`]), try template instantiation, consult the saturation
/// memo, and on a miss run [`solve_problem`]. `per_input` is the snapshot of
/// its inputs' final mappings (operator order).
fn run_op(ctx: &MapCtx, idx: usize, per_input: &[Vec<RecExpr>]) -> OpResult {
    let start = Instant::now();
    let node = ctx.nodes[idx];
    if per_input.iter().any(|m| m.is_empty()) {
        return OpResult {
            mappings: Vec::new(),
            solved: None,
            elapsed: start.elapsed(),
        };
    }
    let (problem, back) = build_problem(ctx.gs, ctx.gd, node, per_input, &ctx.consumers);
    let key = problem.key();
    // Template lift: a node in a repeated class additionally gets a
    // per-template key with slice bounds abstracted to placeholders and
    // frontier-definition names structure-normalized.
    let tpl = ctx.templates.and_then(|t| {
        let (class, rep) = t.class_rep[idx]?;
        let tk = problem.template_key(class)?;
        Some((t, class, rep, tk))
    });
    // A member reads its class slot *before* the concrete memo: the
    // representative fills the slot before any member dispatches, so the
    // chosen path is a static property of the node — never a function of
    // concrete-cache timing — and member results stay bit-equal for any
    // worker count. With equal bounds the member poses the representative's
    // concrete problem, which the concrete memo already holds; with
    // differing bounds it instantiates the representative's certificate, and
    // falls back to the concrete memo if the kernel rejects it. The concrete
    // memo only ever holds `solve_problem` outputs (instantiated mappings
    // are never inserted there), keeping its values a pure function of the
    // key.
    let from_template = match &tpl {
        Some((t, class, rep, tk)) if *rep != idx => template_entry(t, *class, tk)
            .filter(|entry| entry.bounds != tk.bounds)
            .and_then(|entry| {
                let mappings = instantiate_template(ctx, node, per_input, &back, entry, tk);
                let counter = if mappings.is_some() {
                    &t.instantiated
                } else {
                    &t.fallbacks
                };
                counter.fetch_add(1, Relaxed);
                Some((entry.solved.clone(), mappings?))
            }),
        _ => None,
    };
    // `solved` is the telemetry source either way; `instantiated` holds the
    // mappings of a cross-bound template hit, in real names and final order.
    let (solved, instantiated) = match from_template {
        Some((solved, mappings)) => (solved, Some(mappings)),
        None => {
            let solved = ctx.cache.get(&key).unwrap_or_else(|| {
                let fresh =
                    solve_problem(&problem, ctx.opts, ctx.rewrites, ctx.matcher, ctx.backoff);
                for report in &fresh.run_reports {
                    record_run(&ctx.opts.metrics, report);
                }
                ctx.cache.insert(key, fresh)
            });
            (solved, None)
        }
    };
    // The representative fills its class slot — whether its own solve was
    // fresh or a concrete-memo hit — so member behaviour depends only on the
    // schedule order, not on cache timing. A failed representative leaves
    // it empty: members with different bounds might still succeed and must
    // search for themselves.
    if let Some((t, class, rep, tk)) = tpl {
        if rep == idx && !solved.variants.is_empty() {
            let _ = t.slots[class].set(TemplateEntry {
                key: tk.key,
                bounds: tk.bounds,
                defs: tk.defs,
                solved: solved.clone(),
            });
        }
    }
    let mappings = instantiated.unwrap_or_else(|| {
        // Rename back to real G_d tensors, then order by (cost, real text)
        // — canonical text order is not real text order.
        let mut mapped: Vec<(f64, RecExpr, Option<Proof>)> = solved
            .variants
            .iter()
            .map(|(c, e, p)| {
                (
                    *c,
                    back.rename_expr(e),
                    p.as_ref().map(|p| back.rename_proof(p)),
                )
            })
            .collect();
        mapped.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.to_string().cmp(&b.1.to_string()))
        });
        mapped.into_iter().map(|(_, e, p)| (e, p)).collect()
    });
    OpResult {
        mappings,
        solved: Some(solved),
        elapsed: start.elapsed(),
    }
}

/// Emits one merged operator's `op:` span on the check's tracer, with the
/// encode/saturate/extract spans of its solved problem nested inside. The
/// span describes work a worker already did, so it reports that worker's
/// wall clock; `outcome` sets the coordinator-side attributes. `worker` is
/// [`COORDINATOR`] or a pool thread's number; `replayed` marks a solution
/// an earlier operator already reported.
fn emit_op_trace(
    tracer: &Tracer,
    node: &Node,
    res: &OpResult,
    worker: usize,
    replayed: bool,
    outcome: impl FnOnce(&mut SpanGuard),
) {
    if !tracer.is_enabled() {
        return;
    }
    let mut span = tracer.span(&format!("op:{}", node.name));
    span.set_elapsed_us(res.elapsed.as_micros() as u64);
    span.attr("op", node.op.name());
    if let Some(solved) = &res.solved {
        emit_solved_trace(tracer, solved, replayed);
    }
    outcome(&mut span);
    span.attr("worker", worker);
}

/// Emits the encode/saturate/extract spans for a memoized solution —
/// identical structure whether the solution was just computed or replayed
/// from the cache, so trace files are hit/miss-invariant. A replayed
/// `saturate` span says so (`replayed`): its duration is the original
/// run's, already counted where that run was reported.
fn emit_solved_trace(tracer: &Tracer, solved: &Solved, replayed: bool) {
    {
        let mut sp = tracer.span("encode");
        sp.attr("nodes", solved.encode_nodes);
    }
    for (i, report) in solved.run_reports.iter().enumerate() {
        let mut sat_span = tracer.span("saturate");
        let run_start_us = tracer.now_us();
        // The span describes the memoized run, so it reports that run's
        // wall clock (identical for a fresh solve and a cache replay).
        sat_span.set_elapsed_us(report.elapsed.as_micros() as u64);
        sat_span.attr("round", i + 1);
        sat_span.attr("stop", report.stop_reason);
        sat_span.attr("iterations", report.iterations);
        sat_span.attr("nodes", report.egraph_nodes);
        sat_span.attr("classes", report.egraph_classes);
        if replayed {
            sat_span.attr("replayed", true);
        }
        for it in &report.saturation.iterations {
            tracer.event_at(
                "iteration",
                run_start_us + it.start_us,
                Some(it.search_us + it.apply_us + it.rebuild_us),
                &[
                    ("nodes", it.nodes.to_string()),
                    ("classes", it.classes.to_string()),
                    ("memo", it.memo.to_string()),
                    ("unions", it.unions.to_string()),
                    ("search_us", it.search_us.to_string()),
                    ("apply_us", it.apply_us.to_string()),
                    ("rebuild_us", it.rebuild_us.to_string()),
                ],
            );
        }
    }
    let mut extract_span = tracer.span("extract");
    extract_span.attr("variants", solved.variants.len());
    if solved.variants.is_empty() {
        extract_span.attr("outcome", "unmapped");
    }
}

/// Stages a completed operator's products into the relation so its
/// consumers can snapshot them. Idempotent (the relation dedups), and
/// byte-equal to what the in-order merge inserts.
fn stage_result(ctx: &MapCtx, relation: &mut Relation, idx: usize, res: &OpResult) {
    let out = ctx.nodes[idx].output;
    for (expr, _) in &res.mappings {
        relation.insert(out, expr.clone());
    }
}

/// Merges one solved operator at its in-order turn — the one place a
/// worker's result is recorded: its run reports fold into the check's
/// saturation telemetry (once each; into the fresh tally only if no earlier
/// operator merged the same solution), then certificate assembly, relation
/// insertion, the operator's trace spans and the operator report — or the
/// localized failure, which is the same for any worker count because every
/// earlier operator already merged with identical inputs.
fn merge_run(
    ctx: &MapCtx,
    st: &mut MapState,
    idx: usize,
    res: OpResult,
    worker: usize,
) -> Result<(), RefinementError> {
    let node = ctx.nodes[idx];
    let tracer = &ctx.opts.trace;
    let replayed = res
        .solved
        .as_ref()
        .is_some_and(|s| !st.merged.insert(Arc::as_ptr(s)));
    for report in res.solved.iter().flat_map(|s| &s.run_reports) {
        st.saturation.record(report, replayed);
    }
    let solved = match &res.solved {
        Some(solved) if !res.mappings.is_empty() => solved,
        unmapped => {
            emit_op_trace(tracer, node, &res, worker, replayed, |sp| {
                sp.attr("outcome", "operator-unmapped");
            });
            return Err(RefinementError::OperatorUnmapped {
                operator: node.name.clone(),
                op: node.op.name().to_owned(),
                node: node.id,
                input_mappings: node
                    .inputs
                    .iter()
                    .map(|&t| {
                        (
                            ctx.gs.tensor(t).name.clone(),
                            st.relation
                                .mappings(t)
                                .map(|ms| ms.iter().map(|m| m.to_string()).collect())
                                .unwrap_or_default(),
                        )
                    })
                    .collect(),
                stop: unmapped.as_ref().and_then(|s| s.stop),
            });
        }
    };
    // The inputs' first mappings, read from the already-merged relation
    // (the certificate's recorded operator inputs).
    let first_inputs: Vec<RecExpr> = node
        .inputs
        .iter()
        .filter_map(|&t| {
            st.relation
                .mappings(t)
                .and_then(<[RecExpr]>::first)
                .cloned()
        })
        .collect();
    for (expr, proof) in &res.mappings {
        if let Some(c) = st.certificate.as_mut() {
            let proof = proof.clone().ok_or_else(|| RefinementError::CertRejected {
                error: CertError::Rejected {
                    tensor: ctx.gs.tensor(node.output).name.clone(),
                    reason: format!("the engine could not extract a rewrite chain for {expr}"),
                },
            })?;
            c.mappings.push(MappingCert {
                tensor: ctx.gs.tensor(node.output).name.clone(),
                operator: node.name.clone(),
                inputs: first_inputs.clone(),
                expr: expr.clone(),
                proof,
            });
        }
        st.relation.insert(node.output, expr.clone());
    }
    let n_mappings = st
        .relation
        .mappings(node.output)
        .map_or(0, <[RecExpr]>::len);
    emit_op_trace(tracer, node, &res, worker, replayed, |sp| {
        sp.attr("mappings", n_mappings);
        sp.attr("egraph_nodes", solved.egraph_nodes);
        sp.attr("rounds", solved.rounds);
        if let Some(stop) = solved.stop {
            sp.attr("stop", stop);
        }
    });
    st.op_reports.push(OpReport {
        name: node.name.clone(),
        elapsed: res.elapsed,
        egraph_nodes: solved.egraph_nodes,
        mappings: n_mappings,
        rounds: solved.rounds,
        stop: solved.stop,
    });
    Ok(())
}

/// Snapshot of an operator's input mappings at dispatch time. Producers
/// have completed (and staged), so this equals the in-order loop's view.
fn snapshot_inputs(relation: &Relation, node: &Node) -> Vec<Vec<RecExpr>> {
    node.inputs
        .iter()
        .map(|&t| {
            relation
                .mappings(t)
                .map(<[RecExpr]>::to_vec)
                .unwrap_or_default()
        })
        .collect()
}

/// The `worker` an operator reports when the coordinating thread solved it
/// (every operator at `jobs = 1`); pool thread `k` reports `k + 1`.
const COORDINATOR: usize = 0;

/// The scheduled map stage: dispatch operators as their producers complete,
/// merge strictly in G_s index order.
///
/// An operator that is the only one ready while nothing is in flight has
/// nothing to overlap with — whatever else remains waits on it — so the
/// coordinator solves it itself instead of handing it to a worker and
/// sleeping. A chain-shaped `G_s` therefore never leaves the calling thread
/// (and the pool, which spawns at its first submission, never starts one),
/// while every operator of a wide wave is submitted. At `jobs = 1` every
/// operator is solved that way, in index order: the smallest ready index is
/// always the merge cursor.
fn map_stage_scheduled(
    ctx: &MapCtx,
    st: &mut MapState,
    jobs: usize,
) -> Result<(), RefinementError> {
    let n = ctx.nodes.len();

    // Producer dependencies, restricted to earlier operators: a producer
    // appearing *later* leaves this input unmapped in an in-order loop
    // too, so the operator dispatches immediately and fails the same way.
    let out_to_idx: HashMap<TensorId, usize> = ctx
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| (node.output, i))
        .collect();
    let deps: Vec<Vec<usize>> = ctx
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let mut d: Vec<usize> = node
                .inputs
                .iter()
                .filter_map(|t| out_to_idx.get(t).copied())
                .filter(|&j| j < i)
                .collect();
            // A template member must not dispatch before its class
            // representative has had the chance to publish — lookups then
            // depend only on the (deterministic) schedule order, never on
            // worker timing. The representative is the smallest member
            // index, so the edge always points backwards.
            if let Some((_, rep)) = ctx.templates.and_then(|t| t.class_rep[i]) {
                if rep < i {
                    d.push(rep);
                }
            }
            d.sort_unstable();
            d.dedup();
            d
        })
        .collect();
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            consumers[d].push(i);
        }
    }
    let mut dep_count: Vec<usize> = deps.iter().map(Vec::len).collect();
    let mut ready: std::collections::BTreeSet<usize> =
        (0..n).filter(|&i| dep_count[i] == 0).collect();
    let mut pending: HashMap<usize, (OpResult, usize)> = HashMap::new();
    let mut merge_ptr = 0usize;
    // Operators at or beyond the smallest failed index can never merge;
    // stop dispatching them so the check drains promptly.
    let mut min_failed: Option<usize> = None;

    let work = |idx: usize, per_input: Vec<Vec<RecExpr>>| run_op(ctx, idx, &per_input);

    with_pool(jobs, work, |pool| -> Result<(), RefinementError> {
        loop {
            // Merge every consecutively completed operator.
            while let Some((res, worker)) = pending.remove(&merge_ptr) {
                merge_run(ctx, st, merge_ptr, res, worker)?;
                merge_ptr += 1;
            }
            if merge_ptr == n {
                return Ok(());
            }
            // Dispatch everything ready — or solve it here, if it is alone.
            let mut solved_here = None;
            while let Some(idx) = ready.pop_first() {
                if min_failed.is_some_and(|f| idx >= f) {
                    continue;
                }
                let per_input = snapshot_inputs(st.relation, ctx.nodes[idx]);
                if jobs == 1 || (ready.is_empty() && pool.in_flight() == 0) {
                    solved_here = Some((idx, COORDINATOR, run_op(ctx, idx, &per_input)));
                    break;
                }
                pool.submit(idx, per_input);
            }
            let (idx, worker, res) = solved_here.unwrap_or_else(|| {
                assert!(
                    pool.in_flight() > 0,
                    "scheduler stalled: operator {merge_ptr} of {n} neither completed nor in flight"
                );
                let (idx, thread, res) = pool.recv();
                (idx, thread + 1, res)
            });
            if res.mappings.is_empty() {
                min_failed = Some(min_failed.map_or(idx, |f| f.min(idx)));
            } else {
                stage_result(ctx, st.relation, idx, &res);
                for &c in &consumers[idx] {
                    dep_count[c] -= 1;
                    if dep_count[c] == 0 {
                        ready.insert(c);
                    }
                }
            }
            pending.insert(idx, (res, worker));
        }
    })
}

/// Extracts up to `max` distinct clean expressions from a class, simplest
/// first (the §4.3.2 "simplest representative" pruning, but keeping a few
/// alternates — the paper returns e.g. both `sum(C1, C2)` and
/// `concat(D1, D2)` for Figure 2's `C`). Each variant keeps its extraction
/// cost: the saturation memo stores costs so a replay can re-sort the
/// renamed variants by `(cost, real text)`.
///
/// `leaf_bias` adds a per-leaf cost on top of [`clean_cost`]:
/// [`solve_problem`] passes a tiny first-occurrence-index bias so
/// extraction ties between equal-cost leaves (e.g. a scale-half/scale-double
/// chain collapsing several tensors into one class) break toward the most
/// *upstream* leaf by construction instead of by tensor-name string order —
/// which canonical renaming would otherwise scramble, starving downstream
/// frontiers of producer tensors.
pub(crate) fn extract_clean_variants(
    eg: &EGraph<TensorAnalysis>,
    class: Id,
    clean: &CleanOps,
    prefer: &HashSet<&str>,
    max: usize,
    leaf_bias: &dyn Fn(&str) -> f64,
) -> Vec<(f64, RecExpr)> {
    let base_cost = clean_cost(clean, prefer);
    let cost = |node: &ENode, children: &[f64]| {
        let bias = match node {
            ENode::Op(sym, ch) if ch.is_empty() => leaf_bias(sym.as_str()),
            _ => 0.0,
        };
        base_cost(node, children) + bias
    };
    let extractor = Extractor::new(eg, &cost);
    let mut variants: Vec<(f64, RecExpr)> = Vec::new();
    for node in &eg[class].nodes {
        let candidate = match node {
            ENode::Op(sym, ch)
                if ch.is_empty()
                    && !sym
                        .as_str()
                        .starts_with(entangle_lemmas::SYNTHETIC_LEAF_PREFIX) =>
            {
                let mut e = RecExpr::new();
                e.add(node.clone());
                Some((1.0 + leaf_bias(sym.as_str()), e))
            }
            ENode::Op(sym, ch) if clean.is_clean(sym.as_str()) => {
                let mut children_exprs = Vec::with_capacity(ch.len());
                let mut total = 1.0;
                let mut ok = true;
                for &c in ch {
                    match extractor.find_best(c) {
                        Some((ccost, cexpr)) => {
                            total += ccost;
                            children_exprs.push(cexpr);
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                ok.then(|| (total, compose(node, &children_exprs)))
            }
            _ => None,
        };
        if let Some((cost, expr)) = candidate {
            if !variants.iter().any(|(_, v)| v == &expr) {
                variants.push((cost, expr));
            }
        }
    }
    variants.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.to_string().cmp(&b.1.to_string()))
    });
    variants.truncate(max);
    variants
}

/// Builds a `RecExpr` applying `node` to already-extracted child
/// expressions.
fn compose(node: &ENode, children: &[RecExpr]) -> RecExpr {
    let mut out = RecExpr::new();
    let mut child_roots = Vec::with_capacity(children.len());
    for child in children {
        let offset = out.len();
        for n in child.nodes() {
            let mapped = n.map_children(|c| Id::from_index(c.index() + offset));
            out.add(mapped);
        }
        child_roots.push(Id::from_index(out.len() - 1));
    }
    let mut idx = 0;
    let root = node.map_children(|_| {
        let id = child_roots[idx];
        idx += 1;
        id
    });
    out.add(root);
    out
}
