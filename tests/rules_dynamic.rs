//! Dynamic validation of the static rule-corpus analysis (`entangle-rules`)
//! against the live engine, over the 7-workload model zoo:
//!
//! 1. the static growth classification predicts saturation behaviour —
//!    no *simplifying* rule ever exhibits the generative blowup signature
//!    (matches vastly exceeding applications) that the throttled drivers
//!    show, measured on raw saturation runs of the MoE operators' problems;
//! 2. the backoff scheduler is verdict-invariant — every zoo case and
//!    every Table 3 bug (buggy and fixed) produces identical relations,
//!    reports, and verdicts with `rule_backoff` on and off.

use std::collections::{HashMap, HashSet};

use entangle::{
    check_refinement, encode_def, encode_node, CheckOptions, CheckOutcome, RefinementError,
};
use entangle_bench::zoo;
use entangle_egraph::{EGraph, Runner, SaturationReport};
use entangle_lemmas::{registry, rewrites_of, TensorAnalysis};
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
    registry()
        .iter()
        .map(|l| (l.rewrite.name().to_owned(), classify(&l.rewrite).class))
        .collect()
}

/// Raw saturation of every operator problem of the MoE zoo case, merged
/// into one report: per `G_s` operator, its inputs' verified mappings and
/// its `G_d` frontier encoded in one e-graph, run with no goal and no
/// backoff for 12 iterations (the checker's own runs stop at their answer,
/// well before the blowup).
fn moe_raw_saturation() -> SaturationReport {
    let case = zoo()
        .into_iter()
        .find(|c| c.name == "moe_tpsp2")
        .expect("the zoo has the MoE case");
    let (gs, gd) = (&case.gs, &case.dist.graph);
    let ri = case.dist.relation(gs).expect("relation builds");
    let outcome = check_refinement(gs, gd, &ri, &CheckOptions::default())
        .unwrap_or_else(|e| panic!("moe_tpsp2 failed: {e}"));
    let rewrites = rewrites_of(&registry());
    let mut merged = SaturationReport::default();
    for node in gs.nodes() {
        let mut analysis = TensorAnalysis::default();
        for t in gd.tensors() {
            analysis.register_leaf(&t.name, t.shape.clone(), t.dtype);
        }
        // `G_s` tensors get names of their own: one may share a name with a
        // `G_d` tensor that holds another value.
        let output = gs.tensor(node.output);
        analysis.register_leaf("$out", output.shape.clone(), output.dtype);
        let mut eg = EGraph::with_analysis(analysis);
        let mut related: HashSet<String> = HashSet::new();
        let mut inputs = Vec::new();
        for (k, &t) in node.inputs.iter().enumerate() {
            let name = format!("$in{k}");
            let tensor = gs.tensor(t);
            eg.analysis
                .register_leaf(&name, tensor.shape.clone(), tensor.dtype);
            let leaf = eg.add_expr(&name.parse().expect("a leaf parses"));
            for m in outcome.full_relation.mappings(t).expect("input is mapped") {
                related.extend(m.leaf_symbols().iter().map(|s| s.as_str().to_owned()));
                let id = eg.add_expr(m);
                eg.union(leaf, id);
            }
            inputs.push(name);
        }
        let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        encode_def(&mut eg, &node.op, &inputs, "$out", &node.name);
        // The Listing 3 frontier: every `G_d` definition whose inputs are
        // all related, to a fixpoint.
        let mut added = vec![false; gd.nodes().len()];
        loop {
            let mut grew = false;
            for (i, n) in gd.nodes().iter().enumerate() {
                if !added[i]
                    && n.inputs
                        .iter()
                        .all(|&t| related.contains(&gd.tensor(t).name))
                {
                    encode_node(&mut eg, gd, n);
                    related.insert(gd.tensor(n.output).name.clone());
                    added[i] = true;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        eg.rebuild();
        let mut runner = Runner::new(eg).with_iter_limit(12).with_node_limit(30_000);
        merged.merge(&runner.run(&rewrites).saturation);
    }
    merged
}

#[test]
fn simplifying_rules_never_show_the_blowup_signature() {
    let classes = corpus_classes();
    let mut some_generative_exceeded = false;
    for (rule, stats) in &moe_raw_saturation().rules {
        let class = classes
            .get(rule)
            .unwrap_or_else(|| panic!("{rule} missing from corpus"));
        if stats.applications > GENERATIVE_THRESHOLD {
            some_generative_exceeded = true;
            assert_ne!(
                *class,
                GrowthClass::Simplifying,
                "simplifying rule {rule} shows a generative signature: \
                 {} matches / {} applications",
                stats.matches,
                stats.applications,
            );
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
