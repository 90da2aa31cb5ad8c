//! Golden trace tests: the structured trace emitted by a full checker run
//! has the documented span vocabulary, stage ordering and nesting; a shard
//! violation short-circuits the expensive stages out of the trace; and the
//! instrumentation cannot perturb the search itself.

use std::collections::BTreeMap;

use entangle::{check_refinement, CheckOptions};
use entangle_models::{gpt, regression, Arch, ModelConfig, RegressionConfig};
use entangle_parallel::{bugs, grad_accumulation, parallelize, Strategy};
use entangle_trace::{TraceReport, Tracer};

fn regression_workload() -> (
    entangle_ir::Graph,
    entangle_parallel::Distributed,
    entangle::Relation,
) {
    let cfg = RegressionConfig {
        batch: 8,
        features: 4,
    };
    let gs = regression(&cfg);
    let dist = grad_accumulation(&cfg, 2, true);
    let ri = dist.relation(&gs).expect("relation builds");
    (gs, dist, ri)
}

#[test]
fn golden_stage_ordering_and_nesting() {
    let (gs, dist, ri) = regression_workload();
    let (tracer, sink) = Tracer::collect();
    let opts = CheckOptions {
        certify: true,
        trace: tracer.clone(),
        ..CheckOptions::default()
    };
    check_refinement(&gs, &dist.graph, &ri, &opts).expect("regression workload verifies");

    let report = TraceReport::from_records(&sink.records()).expect("trace balances");
    let root = report.find("check_refinement").expect("root span");
    assert_eq!(root.parent, None, "check_refinement is the root");
    assert_eq!(root.attr("outcome"), Some("verified"));

    // The five pipeline stages appear exactly once each, in order, as
    // children of the root.
    let mut last_start = 0;
    for name in [
        "stage:lint",
        "stage:shard",
        "stage:map",
        "stage:outputs",
        "stage:certify",
    ] {
        let spans: Vec<_> = report.spans_named(name).collect();
        assert_eq!(spans.len(), 1, "{name} appears exactly once");
        let sp = spans[0];
        assert_eq!(sp.parent, Some(root.id), "{name} nests under the root");
        assert!(
            sp.start_us >= last_start,
            "{name} starts after the previous stage"
        );
        last_start = sp.start_us;
    }
    assert_eq!(
        report.find("stage:certify").unwrap().attr("outcome"),
        Some("accepted")
    );

    // Per-operator search spans nest under stage:map; the saturation
    // machinery (encode / saturate / extract) nests under an operator.
    let map = report.find("stage:map").unwrap();
    let ops: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.name.starts_with("op:"))
        .collect();
    assert!(!ops.is_empty(), "the mapping search traces its operators");
    for op in &ops {
        assert_eq!(op.parent, Some(map.id), "{} nests under stage:map", op.name);
    }
    for name in ["encode", "saturate", "extract"] {
        let mut found = 0;
        for sp in report.spans_named(name) {
            let parent = sp.parent.expect("saturation span is nested");
            assert!(
                report
                    .spans
                    .iter()
                    .any(|s| s.id == parent && s.name.starts_with("op:")),
                "{name} nests under an op: span"
            );
            found += 1;
        }
        assert!(found > 0, "at least one {name} span");
    }

    // Saturation iterations are replayed as timestamped events inside the
    // run they belong to.
    assert!(
        report.events.iter().any(|e| e.name == "iteration"),
        "per-iteration telemetry events present"
    );
}

#[test]
fn bug1_shard_violation_short_circuits_the_trace() {
    let case = bugs::bug(1, true);
    let (tracer, sink) = Tracer::collect();
    let opts = CheckOptions {
        trace: tracer.clone(),
        ..CheckOptions::default()
    };
    match case.run(&opts) {
        bugs::BugVerdict::RefinementBug(_) => {}
        _ => panic!("bug 1 must be caught as a refinement bug"),
    }

    let report = TraceReport::from_records(&sink.records()).expect("failure trace balances");
    let root = report.find("check_refinement").expect("root span");
    assert_eq!(root.attr("outcome"), Some("shard-violation"));
    let shard = report.find("stage:shard").expect("shard stage ran");
    assert_eq!(shard.attr("outcome"), Some("violation"));

    // The propagation pass proves the violation before any saturation: the
    // skipped stages must be *absent* from the trace, not merely fast.
    for name in [
        "stage:map",
        "encode",
        "saturate",
        "extract",
        "stage:outputs",
        "stage:certify",
    ] {
        assert!(report.find(name).is_none(), "{name} must be absent");
    }
    assert!(
        !report.spans.iter().any(|s| s.name.starts_with("op:")),
        "no operator search ever started"
    );
}

#[test]
fn golden_trace_roundtrips_through_jsonl() {
    let (gs, dist, ri) = regression_workload();
    let (tracer, sink) = Tracer::collect();
    let opts = CheckOptions {
        trace: tracer.clone(),
        ..CheckOptions::default()
    };
    check_refinement(&gs, &dist.graph, &ri, &opts).expect("regression workload verifies");

    let direct = TraceReport::from_records(&sink.records()).expect("collected trace balances");
    let parsed = TraceReport::from_jsonl(&sink.to_jsonl()).expect("serialized trace parses");
    assert_eq!(parsed.spans.len(), direct.spans.len());
    assert_eq!(parsed.events.len(), direct.events.len());
    assert!(parsed.to_json().starts_with("{\"version\":1,"));
    assert!(parsed.to_chrome_json().starts_with("{\"traceEvents\":["));
}

#[test]
fn tracing_does_not_perturb_the_search() {
    let cfg = ModelConfig::tiny();
    let gs = gpt(&cfg);
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));
    let ri = dist.relation(&gs).expect("relation builds");

    let quiet = check_refinement(&gs, &dist.graph, &ri, &CheckOptions::default())
        .expect("GPT/TP2 verifies untraced");
    let (tracer, _sink) = Tracer::collect();
    let opts = CheckOptions {
        trace: tracer.clone(),
        ..CheckOptions::default()
    };
    let traced = check_refinement(&gs, &dist.graph, &ri, &opts).expect("GPT/TP2 verifies traced");

    // Identical lemma firings...
    let stats = |o: &entangle::CheckOutcome| -> BTreeMap<String, u64> {
        o.saturation
            .lemma_counts()
            .map(|(k, v)| (k.to_owned(), v))
            .collect()
    };
    assert_eq!(stats(&quiet), stats(&traced));

    // ...identical per-rule telemetry key set and match/application counts
    // (timings may differ; the key set and firing counts may not)...
    let a = &quiet.saturation.telemetry.rules;
    let b = &traced.saturation.telemetry.rules;
    assert_eq!(a.len(), b.len());
    for (name, ra) in a {
        let rb = b
            .get(name)
            .unwrap_or_else(|| panic!("rule {name} missing under tracing"));
        assert_eq!(
            (ra.matches, ra.applications),
            (rb.matches, rb.applications),
            "rule {name} fired differently under tracing"
        );
    }

    // ...and identical stop reasons and e-graph growth curve.
    assert_eq!(quiet.saturation.stops, traced.saturation.stops);
    assert_eq!(quiet.saturation.growth(), traced.saturation.growth());
}
