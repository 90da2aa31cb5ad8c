//! Equality saturation driver with resource limits and per-rule statistics.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::egraph::{Analysis, EGraph};
use crate::machine::{CompiledMatcher, SharedSearch};
use crate::pattern::Subst;
use crate::rewrite::{AppliedMemo, Rewrite};

/// Per-iteration match budget of every rule, egg's `BackoffScheduler`
/// rule: a rule whose search yields more than
/// `DEFAULT_MATCH_BUDGET << times_banned` substitutions is banned (its
/// search is skipped entirely) for `DEFAULT_BAN_LENGTH << times_banned`
/// iterations. The budget doubles with each ban, so well-behaved bursts
/// recover; a rule that keeps exploding combinatorially is searched ever
/// more rarely.
///
/// The budget cannot change a `Saturated` verdict: the runner only reports
/// [`StopReason::Saturated`] after a full iteration in which **no** rule
/// was banned and no union happened, so the final e-graph is closed under
/// the whole rule set (see [`Runner::run`]). It is also deterministic —
/// ban state depends only on match counts, never on wall clock.
pub const DEFAULT_MATCH_BUDGET: u64 = 16;

/// Ban length (iterations) for a rule that first exceeds its match
/// budget; doubles on every repeat offense, egg-style.
pub const DEFAULT_BAN_LENGTH: usize = 16;

/// Per-rule backoff state during one run.
#[derive(Debug, Clone, Copy, Default)]
struct BackoffState {
    /// Rule search is skipped while `iteration <= banned_until`.
    banned_until: usize,
    times_banned: u32,
}

/// Why a saturation run stopped.
///
/// The distinction matters downstream: `Saturated` means the lemma corpus
/// has nothing more to say (a subsequent mapping failure is a genuine
/// refinement bug under the paper's assumptions), `Goal` means the caller's
/// goal held (see [`Runner::run_until`]), while the three limit reasons mean
/// the search *gave up* — raising the corresponding limit may still find a
/// mapping. The checker surfaces this in its trace report and in
/// `RefinementError` context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No rewrite changed the e-graph in the last iteration.
    Saturated,
    /// The goal passed to [`Runner::run_until`] held after an iteration.
    Goal,
    /// The iteration limit was reached.
    IterLimit,
    /// The node limit was reached.
    NodeLimit,
    /// The time limit was reached.
    TimeLimit,
}

impl StopReason {
    /// A stable lower-kebab name (trace attribute / JSON value).
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::Saturated => "saturated",
            StopReason::Goal => "goal",
            StopReason::IterLimit => "iter-limit",
            StopReason::NodeLimit => "node-limit",
            StopReason::TimeLimit => "time-limit",
        }
    }

    /// `true` when the run ended because a resource limit cut the search
    /// short rather than because the rules were exhausted or the goal held.
    pub fn is_limit(&self) -> bool {
        !matches!(self, StopReason::Saturated | StopReason::Goal)
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-rule telemetry for one run, aggregated over its iterations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleReport {
    /// Total matches found by the searcher (substitutions, not classes).
    pub matches: u64,
    /// E-graph-changing applications (the Figure 6 counts).
    pub applications: u64,
    /// Cumulative search-phase time.
    pub search_us: u64,
    /// Cumulative apply-phase time.
    pub apply_us: u64,
}

/// Telemetry for one saturation iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationReport {
    /// Start offset from the beginning of the run (µs).
    pub start_us: u64,
    /// Search-phase time (all rules, frozen graph).
    pub search_us: u64,
    /// Apply-phase time (all rules).
    pub apply_us: u64,
    /// Rebuild (congruence-closure restoration) time.
    pub rebuild_us: u64,
    /// E-nodes after the iteration.
    pub nodes: usize,
    /// E-classes after the iteration.
    pub classes: usize,
    /// Hash-cons memo entries after the iteration.
    pub memo: usize,
    /// Unions performed by this iteration.
    pub unions: u64,
}

/// Saturation telemetry attached to every [`RunReport`]: the per-iteration
/// growth curve and per-rule search/apply cost. Collection is unconditional
/// and sink-free — identical code runs whether or not anyone is tracing, so
/// instrumentation cannot perturb the search.
#[derive(Debug, Clone, Default)]
pub struct SaturationReport {
    /// One entry per iteration, in order.
    pub iterations: Vec<IterationReport>,
    /// Per-rule totals, keyed by rule name.
    pub rules: HashMap<String, RuleReport>,
    /// E-classes actually visited by rule search, summed over every
    /// (rule, iteration) search call.
    pub searched_classes: u64,
    /// E-classes the per-symbol index fast path (and the operator-presence
    /// prefilter) let search skip, summed the same way. The skip rate
    /// `skipped / (searched + skipped)` is the e-matching fast-path win.
    pub skipped_classes: u64,
}

impl SaturationReport {
    /// Rules sorted by cumulative apply time, heaviest first (ties broken
    /// by name for determinism).
    pub fn rules_by_apply_time(&self) -> Vec<(&str, &RuleReport)> {
        let mut rules: Vec<(&str, &RuleReport)> =
            self.rules.iter().map(|(k, v)| (k.as_str(), v)).collect();
        rules.sort_by(|a, b| {
            b.1.apply_us
                .cmp(&a.1.apply_us)
                .then_with(|| b.1.search_us.cmp(&a.1.search_us))
                .then_with(|| a.0.cmp(b.0))
        });
        rules
    }

    /// Merges another run's telemetry (iterations appended, rules and
    /// class counters summed).
    pub fn merge(&mut self, other: &SaturationReport) {
        self.iterations.extend(other.iterations.iter().cloned());
        self.searched_classes += other.searched_classes;
        self.skipped_classes += other.skipped_classes;
        for (name, r) in &other.rules {
            let e = self.rules.entry(name.clone()).or_default();
            e.matches += r.matches;
            e.applications += r.applications;
            e.search_us += r.search_us;
            e.apply_us += r.apply_us;
        }
    }
}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Number of iterations performed.
    pub iterations: usize,
    /// E-nodes at the end of the run.
    pub egraph_nodes: usize,
    /// E-classes at the end of the run.
    pub egraph_classes: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Times a rule was banned for exceeding its match budget.
    pub bans: u64,
    /// Candidate e-nodes the shared traversal examined, over all iterations.
    pub ematch_candidates: u64,
    /// Substitutions the shared traversal yielded, over all iterations.
    pub ematch_yields: u64,
    /// Nodes of the [`CompiledMatcher`] discrimination tree the run built.
    pub trie_nodes: usize,
    /// Per-iteration and per-rule telemetry.
    pub saturation: SaturationReport,
}

/// Runs equality saturation over an e-graph.
///
/// # Examples
///
/// ```
/// use entangle_egraph::{EGraph, RecExpr, Rewrite, Runner};
///
/// let comm: Rewrite<()> = Rewrite::parse("add-comm", "(add ?a ?b)", "(add ?b ?a)").unwrap();
/// let mut eg = EGraph::<()>::default();
/// let ab = eg.add_expr(&"(add a b)".parse::<RecExpr>().unwrap());
/// let ba = eg.add_expr(&"(add b a)".parse::<RecExpr>().unwrap());
/// let mut runner = Runner::new(eg);
/// let report = runner.run(&[comm]);
/// assert_eq!(runner.egraph.find(ab), runner.egraph.find(ba));
/// assert!(report.saturation.rules["add-comm"].applications >= 1);
/// assert!(report.saturation.rules["add-comm"].matches >= 1);
/// ```
pub struct Runner<A: Analysis> {
    /// The e-graph being saturated; public so callers can inspect and reuse it.
    pub egraph: EGraph<A>,
    iter_limit: usize,
    node_limit: usize,
    time_limit: Duration,
}

impl<A: Analysis> Runner<A> {
    /// Wraps an e-graph with default limits (30 iterations, 50 000 nodes,
    /// 10 s).
    pub fn new(egraph: EGraph<A>) -> Self {
        Runner {
            egraph,
            iter_limit: 30,
            node_limit: 50_000,
            time_limit: Duration::from_secs(10),
        }
    }

    /// Sets the iteration limit.
    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.iter_limit = limit;
        self
    }

    /// Sets the e-node limit.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    /// Sets the wall-clock limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = limit;
        self
    }

    /// Runs the rewrites to saturation or a limit.
    ///
    /// Each iteration searches *all* rules against the frozen e-graph, then
    /// applies all matches, then rebuilds — the standard egg schedule, which
    /// keeps rule application order-independent. The search phase walks
    /// the candidate e-nodes a single time per iteration through a shared
    /// [`CompiledMatcher`] discrimination tree; this entry point compiles
    /// one for the run, [`Runner::run_with`] takes one the caller compiled
    /// (a check runs the same corpus dozens of times).
    ///
    /// A rule whose search exceeds its match budget
    /// ([`DEFAULT_MATCH_BUDGET`]) is banned — its search is skipped — for a
    /// cooldown that doubles on repeat offenses. An iteration that performs
    /// no union does **not** end the run while any rule is banned: all bans
    /// are lifted and the loop continues, so `Saturated` still certifies a
    /// fixpoint of the *full* rule set.
    pub fn run(&mut self, rewrites: &[Rewrite<A>]) -> RunReport {
        self.run_with(rewrites, &CompiledMatcher::compile(rewrites))
    }

    /// [`Runner::run`] with a matcher compiled from `rewrites` beforehand.
    ///
    /// # Panics
    ///
    /// Panics when `matcher` was compiled from a corpus of another length.
    pub fn run_with(&mut self, rewrites: &[Rewrite<A>], matcher: &CompiledMatcher) -> RunReport {
        self.run_until(rewrites, matcher, |_| false)
    }

    /// [`Runner::run_with`] that also stops as soon as `goal` holds.
    ///
    /// `goal` sees the rebuilt e-graph after every iteration that changed
    /// it, and a `true` ends the run with [`StopReason::Goal`]. A quiet
    /// iteration never reaches it: without bans the run is saturated (the
    /// stronger statement), and under bans the bans are lifted first, as in
    /// [`Runner::run`]. The limits stay guards around it. The goal may keep
    /// state across calls — "unchanged since the last iteration" is a goal.
    ///
    /// # Panics
    ///
    /// Panics when `matcher` was compiled from a corpus of another length.
    pub fn run_until(
        &mut self,
        rewrites: &[Rewrite<A>],
        matcher: &CompiledMatcher,
        mut goal: impl FnMut(&EGraph<A>) -> bool,
    ) -> RunReport {
        let start = Instant::now();
        let mut saturation = SaturationReport::default();
        // Indexed alongside `rewrites` to avoid hashing rule names in the
        // hot loop; folded into the name-keyed map at the end.
        let mut per_rule: Vec<RuleReport> = vec![RuleReport::default(); rewrites.len()];
        // Per-rule memo of already-applied match fingerprints: the standard
        // schedule re-finds every prior match each iteration, and skipping
        // re-application turns the apply phase from quadratic in iteration
        // count to linear (see [`Rewrite::apply_deduped`]).
        let mut applied_memo: Vec<AppliedMemo> = vec![AppliedMemo::default(); rewrites.len()];
        let mut backoff = vec![BackoffState::default(); rewrites.len()];
        // Buffers reused by every iteration: the shared search's match
        // storage and scratch, the active mask, and the one substitution
        // the apply loop refills per match.
        let mut shared = SharedSearch::default();
        let mut active = vec![false; rewrites.len()];
        let mut subst = Subst::new();
        let mut ematch_candidates = 0u64;
        let mut ematch_yields = 0u64;
        let mut iterations = 0;
        let mut bans = 0u64;
        let stop_reason = loop {
            if iterations >= self.iter_limit {
                break StopReason::IterLimit;
            }
            if self.egraph.total_nodes() > self.node_limit {
                break StopReason::NodeLimit;
            }
            if start.elapsed() > self.time_limit {
                break StopReason::TimeLimit;
            }
            iterations += 1;
            let iter_start = start.elapsed();
            // Search phase against the frozen graph, as one shared
            // traversal: a single walk of the candidate e-nodes serves
            // every active rule. Banned rules are masked out of it (whole
            // trie subtrees reaching only banned rules are pruned) — that
            // skip, not apply dedup, is where the backoff win comes from.
            let mut any_banned = false;
            for (a, bo) in active.iter_mut().zip(&backoff) {
                *a = iterations > bo.banned_until;
                any_banned |= !*a;
            }
            let t0 = Instant::now();
            matcher.search_all(&self.egraph, &active, &mut shared);
            let search_us = t0.elapsed().as_micros() as u64;
            saturation.searched_classes += shared.visited;
            saturation.skipped_classes += shared.skipped;
            ematch_candidates += shared.candidates;
            ematch_yields += shared.yields;
            // The traversal is shared, so per-rule search time is the even
            // split of the phase across active rules — the only
            // attribution that keeps per-rule sums equal to the phase
            // total.
            let share = search_us / (active.iter().filter(|a| **a).count().max(1) as u64);
            for (i, (stats, bo)) in per_rule.iter_mut().zip(&mut backoff).enumerate() {
                if !active[i] {
                    continue;
                }
                stats.search_us += share;
                let found = shared.matches[i].len() as u64;
                stats.matches += found;
                let shift = bo.times_banned.min(16);
                if found > DEFAULT_MATCH_BUDGET << shift {
                    bo.banned_until = iterations + (DEFAULT_BAN_LENGTH << shift);
                    bo.times_banned += 1;
                    bans += 1;
                }
            }
            // Apply phase.
            let unions_before = self.egraph.union_count();
            let mut apply_us = 0u64;
            for (i, (rw, ms)) in rewrites.iter().zip(&shared.matches).enumerate() {
                let t0 = Instant::now();
                let changed = rw.apply_deduped(
                    &mut self.egraph,
                    ms,
                    matcher.vars(i),
                    &mut applied_memo[i],
                    &mut subst,
                );
                let dt = t0.elapsed().as_micros() as u64;
                per_rule[i].apply_us += dt;
                apply_us += dt;
                per_rule[i].applications += changed as u64;
            }
            let t0 = Instant::now();
            self.egraph.rebuild();
            let rebuild_us = t0.elapsed().as_micros() as u64;
            let unions = (self.egraph.union_count() - unions_before) as u64;
            saturation.iterations.push(IterationReport {
                start_us: iter_start.as_micros() as u64,
                search_us,
                apply_us,
                rebuild_us,
                nodes: self.egraph.total_nodes(),
                classes: self.egraph.num_classes(),
                memo: self.egraph.memo_size(),
                unions,
            });
            if unions == 0 {
                if any_banned {
                    // A quiet iteration under bans proves nothing: lift
                    // every ban and force a full confirmation iteration
                    // before Saturated may be reported.
                    for bo in &mut backoff {
                        bo.banned_until = 0;
                    }
                    continue;
                }
                break StopReason::Saturated;
            }
            if goal(&self.egraph) {
                break StopReason::Goal;
            }
        };
        // Every searched rule is reported (even with zero matches), so the
        // key set is deterministic and "this rule burned search time without
        // ever matching" is visible telemetry.
        for (rw, stats) in rewrites.iter().zip(per_rule) {
            let e = saturation.rules.entry(rw.name().to_owned()).or_default();
            e.matches += stats.matches;
            e.applications += stats.applications;
            e.search_us += stats.search_us;
            e.apply_us += stats.apply_us;
        }
        RunReport {
            stop_reason,
            iterations,
            egraph_nodes: self.egraph.total_nodes(),
            egraph_classes: self.egraph.num_classes(),
            elapsed: start.elapsed(),
            bans,
            ematch_candidates,
            ematch_yields,
            trie_nodes: matcher.trie_nodes(),
            saturation,
        }
    }
}
