//! Dynamic validation of the static rule-corpus analysis (`entangle-rules`)
//! against the live engine, over the 7-workload model zoo:
//!
//! 1. the static growth classification predicts saturation behaviour —
//!    no *simplifying* rule ever exhibits the generative blowup signature
//!    (matches vastly exceeding applications) that the throttled drivers
//!    show;
//! 2. the backoff scheduler is verdict-invariant — every zoo case and
//!    every Table 3 bug (buggy and fixed) produces identical relations,
//!    reports, and verdicts with `rule_backoff` on and off.

use std::collections::HashMap;

use entangle::{check_refinement, CheckOptions, CheckOutcome, RefinementError};
use entangle_bench::zoo;
use entangle_parallel::bugs::{all_bugs, BugVerdict};
use entangle_rules::{classify, GrowthClass};

/// The blowup signature the scheduler throttles on: sustained application
/// volume above the per-iteration match budget. A simplifying rule cannot
/// sustain it — every application strictly shrinks the work it feeds on —
/// while the measured MoE generatives accumulate tens of thousands
/// (`scalar_mul-compose` peaks above 30k). The budget is the natural
/// threshold: it is what the scheduler bans drivers against.
const GENERATIVE_THRESHOLD: u64 = 4096;

fn corpus_classes() -> HashMap<String, GrowthClass> {
    entangle_lemmas::registry()
        .iter()
        .map(|l| (l.rewrite.name().to_owned(), classify(&l.rewrite).class))
        .collect()
}

#[test]
fn simplifying_rules_never_show_the_blowup_signature() {
    let classes = corpus_classes();
    let mut some_generative_exceeded = false;
    // Measured against the unthrottled engine: the property validates the
    // *static classification* against raw saturation behaviour, and the
    // scheduler (whose throttle set that classification feeds) tames the
    // MoE generatives below the threshold when left on.
    let opts = CheckOptions {
        rule_backoff: false,
        ..CheckOptions::default()
    };
    for case in zoo() {
        let ri = case.dist.relation(&case.gs).expect("relation builds");
        let outcome = check_refinement(&case.gs, &case.dist.graph, &ri, &opts)
            .unwrap_or_else(|e| panic!("{} failed: {e}", case.name));
        for (rule, stats) in &outcome.saturation.telemetry.rules {
            let class = classes
                .get(rule)
                .unwrap_or_else(|| panic!("{rule} missing from corpus"));
            if stats.applications > GENERATIVE_THRESHOLD {
                some_generative_exceeded = true;
                assert_ne!(
                    *class,
                    GrowthClass::Simplifying,
                    "{}: simplifying rule {rule} shows a generative signature: \
                     {} matches / {} applications",
                    case.name,
                    stats.matches,
                    stats.applications,
                );
            }
        }
    }
    // The threshold must not be vacuous: the MoE generatives sit well
    // above it (scalar_mul-compose measures >30k applications).
    assert!(
        some_generative_exceeded,
        "no rule exceeded the threshold anywhere — the property is vacuous"
    );
}

/// Everything the verdict contract covers: success/failure, both output
/// relations, and the per-operator mapping reports. Saturation telemetry
/// (iteration counts, per-rule match totals) is *expected* to differ with
/// the scheduler on — banning changes the search path, never the fixpoint.
fn verdict_signature(
    gs: &entangle_ir::Graph,
    result: &Result<CheckOutcome, RefinementError>,
) -> String {
    match result {
        Err(e) => format!("FAILED\n{e:?}\n"),
        Ok(o) => {
            let mut out = String::from("VERIFIED\n");
            out.push_str(&o.output_relation.display(gs).to_string());
            out.push_str(&o.full_relation.display(gs).to_string());
            for r in &o.op_reports {
                out.push_str(&format!("{} mappings={}\n", r.name, r.mappings));
            }
            out
        }
    }
}

fn opts(rule_backoff: bool) -> CheckOptions {
    CheckOptions {
        rule_backoff,
        ..CheckOptions::default()
    }
}

#[test]
fn backoff_is_verdict_invariant_on_the_zoo() {
    for case in zoo() {
        let ri = case.dist.relation(&case.gs).expect("relation builds");
        let on = check_refinement(&case.gs, &case.dist.graph, &ri, &opts(true));
        let off = check_refinement(&case.gs, &case.dist.graph, &ri, &opts(false));
        assert_eq!(
            verdict_signature(&case.gs, &on),
            verdict_signature(&case.gs, &off),
            "{}: backoff scheduler changed the verdict",
            case.name
        );
    }
}

#[test]
fn backoff_is_verdict_invariant_on_the_bug_corpus() {
    for case in all_bugs(true).into_iter().chain(all_bugs(false)) {
        let sig = |v: BugVerdict| match v {
            BugVerdict::Clean => "clean".to_owned(),
            BugVerdict::RefinementBug(e) => format!("refinement: {e:?}"),
            BugVerdict::ExpectationBug(e) => format!("expectation: {e:?}"),
        };
        let on = sig(case.run(&opts(true)));
        let off = sig(case.run(&opts(false)));
        assert_eq!(
            on, off,
            "bug {} ({}, buggy={}): backoff scheduler changed the verdict",
            case.id, case.name, case.buggy
        );
    }
}
