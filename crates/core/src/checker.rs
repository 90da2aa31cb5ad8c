//! The refinement-checking algorithm (Listings 1–3).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use entangle_cert::{CertError, Certificate, MappingCert};
use entangle_egraph::{
    CompiledMatcher, EGraph, ENode, Extractor, Id, Proof, RecExpr, Rewrite, RunReport,
    SaturationReport, StopReason,
};
use entangle_ir::{Graph, Node, NodeId};
use entangle_lemmas::{registry, rewrites_of, TensorAnalysis};
use entangle_symbolic::SymCtx;
use entangle_trace::{SpanGuard, Tracer};

use crate::encode::{clean_cost, CleanOps};
use crate::memo::{build_problem, solve_problem, GdConsumers, Solved};
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
    /// Turn off to measure the uncertified engine
    /// (`entangle_bench::saturation_opts`).
    pub certify: bool,
    /// Structured-tracing sink (`entangle-trace`). The default null tracer
    /// is a true no-op; a real sink receives one span per pipeline stage,
    /// one per `G_s` operator mapping search, and per-iteration saturation
    /// events — the `--trace` / `entangle trace` data. Tracing never
    /// changes verdicts, exit codes, or the search itself.
    pub trace: Tracer,
    /// Ignored: the map stage is one in-order loop on the calling thread.
    /// Kept only so callers that still set it compile.
    pub jobs: usize,
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
            jobs: 1,
            numeric: true,
        }
    }
}

/// How the saturation memo behaved during one check.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParStats {
    /// Memo lookups that found a previously solved canonical problem.
    pub cache_hits: u64,
    /// Memo lookups that had to solve from scratch.
    pub cache_misses: u64,
    /// Always 0: every repeated operator replays through the concrete
    /// memo and counts in [`ParStats::cache_hits`]. Kept only so callers
    /// that still read it compile.
    pub template_hits: u64,
    /// Always 0, like [`ParStats::template_hits`].
    pub template_instantiated: u64,
    /// Always 0, like [`ParStats::template_hits`].
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
/// Two tallies, because a memo replay hands an operator the
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
    counts: FreshCounts,
}

/// The scalars of the runs that executed which [`SaturationSummary::fresh`]
/// does not merge: what the check's metrics snapshot reports of them.
#[derive(Debug, Clone, Copy, Default)]
struct FreshCounts {
    runs: u64,
    iterations: u64,
    unions: u64,
    bans: u64,
    ematch_candidates: u64,
    ematch_yields: u64,
    trie_nodes: u64,
    /// Largest e-graph at any iteration boundary or run end.
    peak_nodes: u64,
    peak_classes: u64,
}

impl SaturationSummary {
    fn record(&mut self, report: &RunReport, replayed: bool) {
        self.stops.push(report.stop_reason);
        self.telemetry.merge(&report.saturation);
        if replayed {
            return;
        }
        self.fresh.merge(&report.saturation);
        let c = &mut self.counts;
        c.runs += 1;
        c.iterations += report.iterations as u64;
        c.bans += report.bans;
        c.ematch_candidates += report.ematch_candidates;
        c.ematch_yields += report.ematch_yields;
        c.trie_nodes = c.trie_nodes.max(report.trie_nodes as u64);
        for it in &report.saturation.iterations {
            c.unions += it.unions;
            c.peak_nodes = c.peak_nodes.max(it.nodes as u64);
            c.peak_classes = c.peak_classes.max(it.classes as u64);
        }
        // A run cut short before its first iteration boundary still has a
        // real final size.
        c.peak_nodes = c.peak_nodes.max(report.egraph_nodes as u64);
        c.peak_classes = c.peak_classes.max(report.egraph_classes as u64);
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
        self.counts.runs as usize
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

    /// Applications of one lemma over the whole check, replays included —
    /// a cell of the paper's Figure 6 heatmap.
    pub fn lemma_count(&self, lemma: &str) -> u64 {
        self.telemetry
            .rules
            .get(lemma)
            .map_or(0, |r| r.applications)
    }

    /// Applications of every lemma over the whole check, replays included.
    pub fn lemma_total(&self) -> u64 {
        self.telemetry.rules.values().map(|r| r.applications).sum()
    }

    /// `(lemma, applications)` for every lemma applied at least once, in
    /// no particular order.
    pub fn lemma_counts(&self) -> impl Iterator<Item = (&str, u64)> {
        self.telemetry
            .rules
            .iter()
            .filter(|(_, r)| r.applications > 0)
            .map(|(name, r)| (name.as_str(), r.applications))
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
    /// Saturation-memo statistics (the CLI's `memo     :` line and the
    /// benchmark's `par.*` rows).
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
    check_refinement_counted(gs, gd, ri, opts).0
}

/// [`check_refinement`], plus the check's metrics snapshot on every exit:
/// a failed check has no [`CheckOutcome`], and the snapshot is the only
/// record of how far it got (the run ledger's `metrics` member).
pub fn check_refinement_counted(
    gs: &Graph,
    gd: &Graph,
    ri: &Relation,
    opts: &CheckOptions,
) -> (
    Result<CheckOutcome, RefinementError>,
    entangle_metrics::Snapshot,
) {
    let mut root = opts.trace.span("check_refinement");
    root.attr("gs", gs.name());
    root.attr("gd", gd.name());
    let mut tally = Tally::default();
    let result = check_refinement_inner(gs, gd, ri, opts, &mut tally);
    match &result {
        Ok(outcome) => {
            root.attr("outcome", "verified");
            root.attr("operators", outcome.op_reports.len());
            root.attr("saturation_runs", outcome.saturation.runs());
        }
        Err(e) => root.attr("outcome", e.kind()),
    }
    (result, tally.snapshot())
}

/// What a check's metrics snapshot reads, filled in stage by stage: each
/// field stays `None` until its stage runs, so a failed check reports the
/// stages it reached and nothing else.
#[derive(Default)]
struct Tally {
    /// The map stage ran, to success or failure.
    map: Option<(FreshCounts, ParStats)>,
    /// `stage:certify` ran: did the kernel accept?
    accepted: Option<bool>,
    /// The check verified: its operator count.
    operators: Option<usize>,
}

impl Tally {
    /// Builds the snapshot: the one place every instrument is named.
    fn snapshot(&self) -> entangle_metrics::Snapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        if let Some((fresh, par)) = &self.map {
            if fresh.runs > 0 {
                counters.extend([
                    ("egraph.runs", fresh.runs),
                    ("egraph.iterations", fresh.iterations),
                    ("egraph.unions", fresh.unions),
                    ("ematch.candidates.visited", fresh.ematch_candidates),
                    ("ematch.matches.yielded", fresh.ematch_yields),
                ]);
                gauges.extend([
                    ("egraph.peak_nodes", fresh.peak_nodes),
                    ("egraph.peak_classes", fresh.peak_classes),
                    ("ematch.trie.nodes", fresh.trie_nodes),
                ]);
            }
            if fresh.bans > 0 {
                counters.push(("rules.backoff.bans", fresh.bans));
            }
            counters.push(("par.cache.hits", par.cache_hits));
            counters.push(("par.cache.misses", par.cache_misses));
        }
        match self.accepted {
            Some(true) => counters.push(("cert.verify.accepted", 1)),
            Some(false) => counters.push(("cert.verify.rejected", 1)),
            None => {}
        }
        if let Some(n) = self.operators {
            counters.push(("check.operators", n as u64));
        }
        let named = |v: Vec<(&str, u64)>| v.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        entangle_metrics::Snapshot {
            counters: named(counters),
            gauges: named(gauges),
        }
    }
}

/// Runs one pipeline stage under its `stage:{name}` span, the one place
/// the stage's duration is recorded. A stage that fails closes its span
/// like one that succeeds.
fn stage<T>(opts: &CheckOptions, name: &str, body: impl FnOnce(&mut SpanGuard) -> T) -> T {
    body(&mut opts.trace.span(&format!("stage:{name}")))
}

fn check_refinement_inner(
    gs: &Graph,
    gd: &Graph,
    ri: &Relation,
    opts: &CheckOptions,
    tally: &mut Tally,
) -> Result<CheckOutcome, RefinementError> {
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

    // Everything the map stage needs that depends on the rule corpus alone,
    // derived once per check and shared with every per-operator solve.
    let (rewrites, matcher) = stage(opts, "setup", |sp| {
        let rewrites = opts
            .rewrites
            .clone()
            .unwrap_or_else(|| rewrites_of(&registry()));
        // The discrimination tree every saturation run searches with.
        let matcher = CompiledMatcher::compile(&rewrites);
        sp.attr("rules", rewrites.len());
        sp.attr("trie_nodes", matcher.trie_nodes());
        (rewrites, matcher)
    });

    let certificate = opts.certify.then(|| Certificate {
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

    let gd_output_names: HashSet<&str> = gd
        .outputs()
        .iter()
        .map(|&t| gd.tensor(t).name.as_str())
        .collect();

    let mut st = MapState {
        relation: ri.clone(),
        saturation: SaturationSummary::default(),
        op_reports: Vec::with_capacity(gs.num_nodes()),
        certificate,
        memo: HashMap::new(),
        par: ParStats::default(),
    };
    let mapped = stage(opts, "map", |_| {
        let ctx = MapCtx {
            gs,
            gd,
            opts,
            rewrites: &rewrites,
            matcher: &matcher,
            consumers: GdConsumers::new(gd),
        };
        map_stage(&ctx, &mut st)
    });
    let MapState {
        relation,
        saturation,
        op_reports,
        mut certificate,
        par,
        ..
    } = st;
    // Read on the failure path too: a failed check has no `CheckOutcome`,
    // so the snapshot is all that says how far the map stage got.
    tally.map = Some((saturation.counts, par));
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
    let mut numeric = None;
    if let Some(c) = &mut certificate {
        c.outputs = output_relation
            .iter()
            .flat_map(|(t, exprs)| {
                let name = gs.tensor(t).name.clone();
                exprs.iter().map(move |e| (name.clone(), e.clone()))
            })
            .collect();
        let resolved = stage(opts, "certify", |sp| {
            sp.attr("mappings", c.mappings.len());
            sp.attr("steps", c.total_steps());
            let (r, kernel) = entangle_cert::verify_reporting(c, gs, gd, &rewrites, &opts.sym_ctx);
            for (key, count) in kernel.attrs() {
                sp.attr(key, count);
            }
            tally.accepted = Some(r.is_ok());
            sp.attr("outcome", if r.is_ok() { "accepted" } else { "rejected" });
            r
        })
        .map_err(|error| RefinementError::CertRejected { error })?;

        // Static numeric-soundness analysis of the accepted derivation, on
        // the form the kernel checked it in. Runs strictly after the
        // kernel's verdict and can only annotate: per-output verdicts land
        // in the outcome and (as plain tags) in the certificate's advisory
        // `numeric` section.
        if opts.numeric {
            let analysis = stage(opts, "numeric", |sp| {
                let analysis = entangle_num::analyze_resolved(&resolved, gs);
                drop(resolved);
                sp.attr("outputs", analysis.outputs.len());
                sp.attr("steps", analysis.steps_analyzed);
                sp.attr("rule_steps", analysis.rule_steps);
                sp.attr("rule_keys", analysis.rule_keys);
                sp.attr("rule_hits", analysis.rule_hits);
                sp.attr("arena_nodes", analysis.arena_nodes);
                sp.attr("modelled_nodes", analysis.modelled_nodes);
                sp.attr("subterms", analysis.subterms);
                sp.attr("subterm_hits", analysis.subterm_hits);
                sp.attr("key_us", analysis.key_us);
                sp.attr("eval_us", analysis.eval_us);
                sp.attr("classify_us", analysis.classify_us);
                sp.attr("compose_us", analysis.compose_us);
                sp.attr("dots", analysis.dots);
                sp.attr("classified_pairs", analysis.classified_pairs);
                sp.attr("expansions", analysis.expansions);
                sp.attr("dots_unfolded", analysis.dots_unfolded);
                sp.attr("sum_atoms", analysis.sum_atoms);
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

    tally.operators = Some(op_reports.len());
    Ok(CheckOutcome {
        output_relation,
        full_relation: relation,
        op_reports,
        saturation,
        certificate,
        numeric,
        par,
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
        "|cfg:stop=goal,iters={}+height,nodes={},time_us={},max={},certify={},compiled={},clean={:?};lemmas:",
        ITER_SLACK,
        NODE_LIMIT,
        TIME_LIMIT.as_micros(),
        opts.max_mappings,
        opts.certify,
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
/// tracing and metrics (neither of which may change the verdict).
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
// The map stage: Listing 1's loop over G_s operators in index order.
// ---------------------------------------------------------------------------

/// The per-check inputs of the map stage that no operator changes.
struct MapCtx<'a> {
    gs: &'a Graph,
    gd: &'a Graph,
    opts: &'a CheckOptions,
    rewrites: &'a [Rewrite<TensorAnalysis>],
    /// `rewrites` compiled, once, for every saturation run of the check.
    matcher: &'a CompiledMatcher,
    /// Consumer index over `G_d`, built once and shared by every
    /// `build_problem` frontier closure.
    consumers: GdConsumers,
}

/// What the map stage builds up, operator by operator.
struct MapState {
    relation: Relation,
    saturation: SaturationSummary,
    op_reports: Vec<OpReport>,
    certificate: Option<Certificate>,
    /// The saturation memo, fronting the one engine for every input. Its
    /// key renders the canonical problem only — symbolic shapes and slice
    /// bounds included — and not the engine configuration: the memo, `opts`
    /// (limits, clean set, `sym_ctx`) and the rewrite set all live exactly
    /// as long as this check, so equal keys pose equal problems to the same
    /// engine.
    memo: HashMap<String, Arc<Solved>>,
    /// The memo's tallies, reported as [`CheckOutcome::par`].
    par: ParStats,
}

/// One operator's solve, recorded (trace, telemetry, certificate, relation)
/// by [`merge_run`].
struct OpResult {
    /// The operator's clean mappings in real (non-canonical) names, ordered
    /// by `(cost, real text)`; empty when the search found none.
    mappings: Vec<(RecExpr, Option<Proof>)>,
    /// The solved canonical problem behind `mappings` — freshly computed or
    /// replayed from a memo, indistinguishably. `None` when an input had no
    /// mapping, so no problem could be posed.
    solved: Option<Arc<Solved>>,
    /// `solved` came from the memo: an earlier operator already reported
    /// its runs.
    replayed: bool,
    elapsed: Duration,
}

/// Solves one operator: canonicalize it ([`build_problem`]), consult the
/// saturation memo, and on a miss run [`solve_problem`]. `per_input` is the
/// snapshot of its inputs' final mappings (operator order).
fn run_op(ctx: &MapCtx, st: &mut MapState, node: &Node, per_input: &[Vec<RecExpr>]) -> OpResult {
    let start = Instant::now();
    if per_input.iter().any(|m| m.is_empty()) {
        return OpResult {
            mappings: Vec::new(),
            solved: None,
            replayed: false,
            elapsed: start.elapsed(),
        };
    }
    let (problem, back) = build_problem(ctx.gs, ctx.gd, node, per_input, &ctx.consumers);
    let key = problem.key();
    let (solved, replayed) = match st.memo.get(&key) {
        Some(solved) => {
            st.par.cache_hits += 1;
            (solved.clone(), true)
        }
        None => {
            st.par.cache_misses += 1;
            let fresh = Arc::new(solve_problem(&problem, ctx.opts, ctx.rewrites, ctx.matcher));
            st.memo.insert(key, fresh.clone());
            (fresh, false)
        }
    };
    // Rename back to real G_d tensors, then order by (cost, real text) —
    // canonical text order is not real text order.
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
    OpResult {
        mappings: mapped.into_iter().map(|(_, e, p)| (e, p)).collect(),
        solved: Some(solved),
        replayed,
        elapsed: start.elapsed(),
    }
}

/// Emits one merged operator's `op:` span on the check's tracer, with the
/// encode/saturate/extract spans of its solved problem nested inside. The
/// span reports the solve's wall clock; `outcome` sets the merge-side
/// attributes.
fn emit_op_trace(
    tracer: &Tracer,
    node: &Node,
    res: &OpResult,
    outcome: impl FnOnce(&mut SpanGuard),
) {
    if !tracer.is_enabled() {
        return;
    }
    let mut span = tracer.span(&format!("op:{}", node.name));
    span.set_elapsed_us(res.elapsed.as_micros() as u64);
    span.attr("op", node.op.name());
    if let Some(solved) = &res.solved {
        emit_solved_trace(tracer, solved, res.replayed);
    }
    outcome(&mut span);
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

/// Records one solved operator: its run reports fold into the check's
/// saturation telemetry (into the fresh tally only if the solve was not a
/// replay), then certificate assembly, relation insertion, the operator's
/// trace spans and the operator report — or the localized failure.
fn merge_run(
    ctx: &MapCtx,
    st: &mut MapState,
    node: &Node,
    res: OpResult,
) -> Result<(), RefinementError> {
    let tracer = &ctx.opts.trace;
    for report in res.solved.iter().flat_map(|s| &s.run_reports) {
        st.saturation.record(report, res.replayed);
    }
    let solved = match &res.solved {
        Some(solved) if !res.mappings.is_empty() => solved,
        unmapped => {
            emit_op_trace(tracer, node, &res, |sp| {
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
    emit_op_trace(tracer, node, &res, |sp| {
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

/// Listing 1's loop: each `G_s` operator in index order snapshots its
/// inputs' mappings, is solved, and is merged before the next one starts.
/// The first operator that cannot be mapped ends the stage with its
/// localized failure. A producer that appears *later* in the index order
/// leaves its consumer's input unmapped, so that consumer fails there.
fn map_stage(ctx: &MapCtx, st: &mut MapState) -> Result<(), RefinementError> {
    for node in ctx.gs.nodes() {
        let per_input: Vec<Vec<RecExpr>> = node
            .inputs
            .iter()
            .map(|&t| {
                st.relation
                    .mappings(t)
                    .map(<[RecExpr]>::to_vec)
                    .unwrap_or_default()
            })
            .collect();
        let res = run_op(ctx, st, node, &per_input);
        merge_run(ctx, st, node, res)?;
    }
    Ok(())
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
