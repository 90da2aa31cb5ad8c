//! Static analysis of the rewrite corpus — no e-graph, no saturation.
//!
//! The corpus is the checker's trusted input: every verdict rests on the
//! lemmas being sound and the saturation loop terminating in budget. This
//! crate reads the rule *patterns* alone and derives:
//!
//! 1. **Growth classification** ([`classify`]) — every rule is
//!    *simplifying*, *size-preserving*, or *generative*, from LHS→RHS
//!    operator counts and variable multiplicity.
//! 2. **Rule-interaction cycles** ([`interaction_graph`],
//!    [`generative_cycles`]) — `A → B` when `A`'s output can trigger `B`;
//!    a strongly connected component driven by an unconditioned,
//!    variable-duplicating rule is a static blowup signature (the
//!    `scalar_mul-distribute` ⇄ `scalar_mul-compose` pair the MoE traces
//!    measure dynamically).
//! 3. **Overlap, subsumption, and dead rules** — duplicate rules,
//!    rules another rule already implies, patterns naming operators
//!    outside the vocabulary.
//! 4. **Shape/dtype soundness** ([`shape_findings`]) — both sides of
//!    every unconditioned pattern rule re-derived over a ground palette
//!    through the same inference the e-graph analysis runs.
//!
//! Findings surface as `RL01`–`RL06` diagnostics through the
//! [`entangle_lint`] machinery (the `entangle rules` subcommand), and the
//! classification is *consumed*: [`backoff_schedule`] turns generative
//! cycles into the saturation backoff schedule
//! ([`entangle_egraph::BackoffSchedule`]) that throttles the cycle
//! *drivers* while leaving every other rule untouched.

#![forbid(unsafe_code)]

mod classify;
pub mod ground;
mod interact;
mod pattern_util;
mod soundness;

use std::collections::BTreeSet;

use entangle_egraph::{BackoffSchedule, Rewrite};
use entangle_lemmas::{TensorAnalysis, OP_VOCABULARY};
use entangle_lint::{json_str, Anchor, Diagnostic, LintReport};

pub use classify::{classify, effective_rhs, GrowthClass, RuleClass};
pub use interact::{generative_cycles, interaction_graph, GenerativeCycle, InteractionGraph};
pub use pattern_util::{
    alpha_eq, match_onto, op_count, op_subterms, substitute, unifiable, var_counts,
};
pub use soundness::{shape_findings, ShapeFinding};

/// Diagnostic codes for the rule-corpus analyzer (`RL` = rule lint).
pub mod codes {
    /// Error: a pattern names an operator outside the vocabulary — the
    /// rule can never fire (or worse, fires only on leaves it mistakes
    /// for operators).
    pub const DEAD_RULE: &str = "RL01";
    /// Warning: the rule belongs to a generative interaction cycle — an
    /// unconditioned duplicating rule feeds a loop back into itself.
    pub const GENERATIVE_CYCLE: &str = "RL02";
    /// Warning: two rules are α-equivalent — one is redundant.
    pub const DUPLICATE_RULE: &str = "RL03";
    /// Warning: a more general rule already implies this one.
    pub const SUBSUMED_RULE: &str = "RL04";
    /// Error: the two sides derive different shapes or dtypes on a
    /// ground instantiation — applying the rule would corrupt the
    /// analysis.
    pub const SHAPE_MISMATCH: &str = "RL05";
    /// Warning: a dynamic rule without an RHS sketch is invisible to the
    /// interaction graph and defaults to *generative*.
    pub const OPAQUE_DYNAMIC: &str = "RL06";
}

/// The complete result of a corpus analysis.
#[derive(Debug)]
pub struct RuleAnalysis {
    /// Per-rule classification, in corpus order.
    pub classes: Vec<RuleClass>,
    /// The interaction graph the cycles were found in.
    pub graph: InteractionGraph,
    /// Every generative cycle (indices into `classes`).
    pub cycles: Vec<GenerativeCycle>,
    /// Names of the rules the backoff scheduler throttles: the drivers of
    /// every generative cycle. Sorted.
    pub throttled: Vec<String>,
    /// RL01–RL06 findings.
    pub report: LintReport,
}

impl RuleAnalysis {
    /// Number of rules in the given growth class.
    pub fn count(&self, class: GrowthClass) -> usize {
        self.classes.iter().filter(|c| c.class == class).count()
    }

    /// The backoff schedule this analysis implies (`None` when nothing
    /// needs throttling).
    pub fn backoff(&self) -> Option<BackoffSchedule> {
        if self.throttled.is_empty() {
            None
        } else {
            Some(BackoffSchedule::new(self.throttled.iter().cloned()))
        }
    }

    /// Renders the analysis as a JSON object with a stable field order:
    /// `rules`, `simplifying`, `size_preserving`, `generative`, `opaque`,
    /// `classes` (array of per-rule objects, corpus order, each with
    /// `name`, `class`, `conditioned`, `dynamic`, `opaque`, `expanding`,
    /// `lhs_ops`, `rhs_ops`), `cycles` (array of `{drivers, members}` by
    /// rule name), `throttled`, `report` (the standard lint-report
    /// object).
    pub fn to_json(&self) -> String {
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|c| {
                let rhs_ops = match c.rhs_ops {
                    Some(n) => n.to_string(),
                    None => "null".to_owned(),
                };
                format!(
                    "{{\"name\":{},\"class\":{},\"conditioned\":{},\"dynamic\":{},\"opaque\":{},\"expanding\":{},\"lhs_ops\":{},\"rhs_ops\":{}}}",
                    json_str(&c.name),
                    json_str(c.class.as_str()),
                    c.conditioned,
                    c.dynamic,
                    c.opaque,
                    c.expanding,
                    c.lhs_ops,
                    rhs_ops
                )
            })
            .collect();
        let cycles: Vec<String> = self
            .cycles
            .iter()
            .map(|cy| {
                let names = |ix: &[usize]| {
                    ix.iter()
                        .map(|&i| json_str(&self.classes[i].name))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!(
                    "{{\"drivers\":[{}],\"members\":[{}]}}",
                    names(&cy.drivers),
                    names(&cy.members)
                )
            })
            .collect();
        let throttled: Vec<String> = self.throttled.iter().map(|n| json_str(n)).collect();
        format!(
            "{{\"rules\":{},\"simplifying\":{},\"size_preserving\":{},\"generative\":{},\"opaque\":{},\"classes\":[{}],\"cycles\":[{}],\"throttled\":[{}],\"report\":{}}}",
            self.classes.len(),
            self.count(GrowthClass::Simplifying),
            self.count(GrowthClass::SizePreserving),
            self.count(GrowthClass::Generative),
            self.classes.iter().filter(|c| c.opaque).count(),
            classes.join(","),
            cycles.join(","),
            throttled.join(","),
            self.report.to_json(None)
        )
    }

    /// Renders a human-readable summary: class counts, cycles, the
    /// throttle set, then every diagnostic.
    pub fn render(&self) -> String {
        let mut out = format!(
            "rules    : {} ({} simplifying, {} size-preserving, {} generative, {} opaque)\n",
            self.classes.len(),
            self.count(GrowthClass::Simplifying),
            self.count(GrowthClass::SizePreserving),
            self.count(GrowthClass::Generative),
            self.classes.iter().filter(|c| c.opaque).count(),
        );
        if self.cycles.is_empty() {
            out.push_str("cycles   : none\n");
        }
        for cy in &self.cycles {
            let drivers = cy
                .drivers
                .iter()
                .map(|&i| self.classes[i].name.as_str())
                .collect::<Vec<_>>()
                .join(", ");
            let mut members: Vec<&str> = cy
                .members
                .iter()
                .take(8)
                .map(|&i| self.classes[i].name.as_str())
                .collect();
            if cy.members.len() > members.len() {
                members.push("…");
            }
            out.push_str(&format!(
                "cycle    : {} rules; drivers [{drivers}]; members [{}] (full list in --json)\n",
                cy.members.len(),
                members.join(", ")
            ));
        }
        out.push_str(&format!(
            "throttled: {}\n",
            if self.throttled.is_empty() {
                "none".to_owned()
            } else {
                self.throttled.join(", ")
            }
        ));
        out.push_str(&self.report.summary());
        if !self.report.diagnostics.is_empty() {
            out.push('\n');
            out.push_str(&self.report.render(None));
        }
        out
    }
}

/// Non-leaf operator symbols a pattern applies, in pre-order.
fn pattern_op_names(ast: &entangle_egraph::PatternAst, out: &mut BTreeSet<String>) {
    if let entangle_egraph::PatternAst::Op(sym, ch) = ast {
        if !ch.is_empty() {
            out.insert(sym.as_str().to_owned());
            ch.iter().for_each(|c| pattern_op_names(c, out));
        }
    }
}

/// Runs every pass over a rewrite slice.
pub fn analyze(rewrites: &[Rewrite<TensorAnalysis>]) -> RuleAnalysis {
    let classes: Vec<RuleClass> = rewrites.iter().map(classify).collect();
    let graph = interaction_graph(rewrites);
    let cycles = generative_cycles(&graph, &classes);
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    // RL01: dead rules — pattern operators outside the vocabulary.
    for (rw, class) in rewrites.iter().zip(&classes) {
        let mut ops = BTreeSet::new();
        pattern_op_names(rw.searcher().ast(), &mut ops);
        if let Some(rhs) = effective_rhs(rw) {
            pattern_op_names(rhs.ast(), &mut ops);
        }
        let unknown: Vec<String> = ops
            .into_iter()
            .filter(|o| !OP_VOCABULARY.contains(&o.as_str()))
            .collect();
        if !unknown.is_empty() {
            diagnostics.push(
                Diagnostic::error(
                    codes::DEAD_RULE,
                    Anchor::Lemma(class.name.clone()),
                    format!(
                        "pattern applies operators outside the vocabulary: {}",
                        unknown.join(", ")
                    ),
                )
                .with_suggestion("fix the operator name or extend decode_op / OP_VOCABULARY"),
            );
        }
    }

    // RL02: generative cycles — one diagnostic per cycle, anchored at the
    // lowest-index driver. The message stays bounded (drivers + member
    // count); full membership is in the `cycles` section of the report.
    for cy in &cycles {
        let drivers = cy
            .drivers
            .iter()
            .map(|&i| classes[i].name.as_str())
            .collect::<Vec<_>>()
            .join(", ");
        diagnostics.push(
            Diagnostic::warning(
                codes::GENERATIVE_CYCLE,
                Anchor::Lemma(classes[cy.drivers[0]].name.clone()),
                format!(
                    "generative interaction cycle: {} rules fed by duplicating drivers [{drivers}]",
                    cy.members.len()
                ),
            )
            .with_suggestion("the drivers are match-budget throttled by the backoff scheduler"),
        );
    }

    // RL03 (duplicates) and RL04 (subsumption) over unconditioned pattern
    // rules. A duplicate pair is reported once (at the later rule) and
    // excluded from subsumption, which it would trivially satisfy.
    let candidate =
        |i: usize| -> Option<(&entangle_egraph::PatternAst, &entangle_egraph::PatternAst)> {
            let rw = &rewrites[i];
            if rw.has_condition() {
                return None;
            }
            Some((rw.searcher().ast(), rw.rhs()?.ast()))
        };
    for j in 0..rewrites.len() {
        let Some((lj, rj)) = candidate(j) else {
            continue;
        };
        for i in 0..j {
            let Some((li, ri)) = candidate(i) else {
                continue;
            };
            if alpha_eq(&[li, ri], &[lj, rj]) {
                diagnostics.push(
                    Diagnostic::warning(
                        codes::DUPLICATE_RULE,
                        Anchor::Lemma(classes[j].name.clone()),
                        format!("duplicate of {:?} (α-equivalent sides)", classes[i].name),
                    )
                    .with_suggestion("delete one of the two rules"),
                );
            }
        }
    }
    for j in 0..rewrites.len() {
        let Some((lj, rj)) = candidate(j) else {
            continue;
        };
        for i in 0..rewrites.len() {
            if i == j {
                continue;
            }
            let Some((li, ri)) = candidate(i) else {
                continue;
            };
            if alpha_eq(&[li, ri], &[lj, rj]) {
                continue; // already RL03
            }
            if let Some(subst) = match_onto(li, lj) {
                if &substitute(ri, &subst) == rj {
                    diagnostics.push(
                        Diagnostic::warning(
                            codes::SUBSUMED_RULE,
                            Anchor::Lemma(classes[j].name.clone()),
                            format!("subsumed by the more general {:?}", classes[i].name),
                        )
                        .with_suggestion(
                            "delete the specific rule unless it exists for match-cost reasons",
                        ),
                    );
                }
            }
        }
    }

    // RL05: shape/dtype soundness over the ground palette.
    for f in shape_findings(rewrites) {
        diagnostics.push(
            Diagnostic::error(
                codes::SHAPE_MISMATCH,
                Anchor::Lemma(classes[f.rule].name.clone()),
                format!(
                    "sides derive different metadata under {}: lhs {} vs rhs {}",
                    f.binding, f.lhs, f.rhs
                ),
            )
            .with_suggestion(
                "the rewrite is unsound for these shapes — add a condition or fix the RHS",
            ),
        );
    }

    // RL06: opaque dynamic rules.
    for class in &classes {
        if class.opaque {
            diagnostics.push(
                Diagnostic::warning(
                    codes::OPAQUE_DYNAMIC,
                    Anchor::Lemma(class.name.clone()),
                    "dynamic rule without an rhs_hint: growth defaults to generative and the interaction graph cannot see its output".to_owned(),
                )
                .with_suggestion("add .with_rhs_hint(..) sketching the applier's output"),
            );
        }
    }

    let throttled: Vec<String> = throttle_set(&classes, &cycles).into_iter().collect();

    RuleAnalysis {
        classes,
        graph,
        cycles,
        throttled,
        report: LintReport { diagnostics },
    }
}

/// The rules the backoff scheduler throttles: the *drivers* of every
/// generative cycle — unconditioned, variable-duplicating rules whose
/// output feeds back into the cycle. Only drivers mint new copies of
/// subterms; the rest of the cycle (compose/normalize-style folds and
/// size-preserving shuffles) is what keeps the drivers' output *bounded*,
/// so throttling it amplifies blowup instead of damping it. Measured on
/// the MoE/TP-SP2 pair: throttling all non-simplifying members regresses
/// end-to-end time ~5×, throttling drivers alone wins.
fn throttle_set(classes: &[RuleClass], cycles: &[GenerativeCycle]) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for cy in cycles {
        for &i in &cy.drivers {
            set.insert(classes[i].name.clone());
        }
    }
    set
}

/// Derives the saturation backoff schedule for a rewrite slice: the
/// classification and cycle passes only (the lint passes are skipped). It
/// costs a few hundred bucketed unifications over borrowed patterns —
/// cheap enough to run once per check, so nothing is cached.
///
/// Generative-cycle *drivers* are throttled with the default match budget
/// and ban length; every other rule — including the simplifying and
/// size-preserving cycle members that fold the drivers' output back down —
/// runs unthrottled (see [`throttle_set`]).
pub fn backoff_schedule(rewrites: &[Rewrite<TensorAnalysis>]) -> Option<BackoffSchedule> {
    backoff_schedule_counted(rewrites).0
}

/// [`backoff_schedule`], plus the number of full unifications the
/// derivation ran ([`InteractionGraph::unifications`]) — the
/// `stage:setup` span's `unifications` attribute.
pub fn backoff_schedule_counted(
    rewrites: &[Rewrite<TensorAnalysis>],
) -> (Option<BackoffSchedule>, u64) {
    let classes: Vec<RuleClass> = rewrites.iter().map(classify).collect();
    let graph = interaction_graph(rewrites);
    let cycles = generative_cycles(&graph, &classes);
    let set = throttle_set(&classes, &cycles);
    let schedule = (!set.is_empty()).then(|| BackoffSchedule::new(set));
    (schedule, graph.unifications)
}

#[cfg(test)]
mod tests;
