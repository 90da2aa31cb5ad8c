//! The scheduler's determinism contract, checked end to end: for any
//! `jobs`, `check_refinement` produces the *same* `CheckOutcome` — reports,
//! relations, lemma totals, certificate bytes, trace structure — and the
//! same failure on the Table 3 bugs. Workers only race on wall-clock and on
//! which of them computes a memo entry first; everything observable is
//! merged in sequential operator order.
//!
//! What is excluded from the comparison, and why:
//!
//! - timing (`elapsed`, `dur_us`, `*_us` attributes/fields) — wall clock;
//! - the `worker` span attribute — records which thread ran the operator;
//! - [`entangle::ParStats`] — hit/miss counts depend on scheduling order
//!   by design (the one documented jobs-dependent field).

use entangle::{check_refinement, CheckOptions, CheckOutcome, RefinementError, Relation};
use entangle_bench::zoo;
use entangle_ir::{DType, Dim, Graph, GraphBuilder, Op, Shape};
use entangle_parallel::bugs::{all_bugs, BugVerdict};
use entangle_symbolic::{Rel, SymCtx, SymExpr};
use entangle_trace::{Record, Tracer};

/// Deterministic fingerprint of a trace: record order, kinds, names and
/// attributes, with wall-clock and thread-identity noise stripped.
fn trace_signature(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(r.kind.as_str());
        out.push(' ');
        out.push_str(&r.name);
        for (k, v) in &r.attrs {
            if k == "worker" || k == "elapsed" || k.ends_with("_us") {
                continue;
            }
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
    }
    out
}

/// Deterministic fingerprint of a full check result (see module docs for
/// the exclusions).
fn outcome_signature(
    gs: &entangle_ir::Graph,
    result: &Result<CheckOutcome, RefinementError>,
) -> String {
    let mut out = String::new();
    match result {
        Err(e) => {
            out.push_str(&format!("FAILED\n{e:?}\n"));
        }
        Ok(o) => {
            out.push_str("VERIFIED\n");
            out.push_str("== output relation ==\n");
            out.push_str(&o.output_relation.display(gs).to_string());
            out.push_str("== full relation ==\n");
            out.push_str(&o.full_relation.display(gs).to_string());
            out.push_str("== op reports ==\n");
            for r in &o.op_reports {
                out.push_str(&format!(
                    "{} nodes={} mappings={} rounds={} stop={:?}\n",
                    r.name, r.egraph_nodes, r.mappings, r.rounds, r.stop
                ));
            }
            out.push_str("== lemma stats ==\n");
            let mut lemmas: Vec<(&str, u64)> = o.lemma_stats.iter().collect();
            lemmas.sort();
            for (name, count) in lemmas {
                out.push_str(&format!("{name}={count}\n"));
            }
            out.push_str("== saturation ==\n");
            out.push_str(&format!("stops={:?}\n", o.saturation.stops));
            out.push_str(&format!(
                "fresh runs={} iterations={} matches={}\n",
                o.saturation.fresh_runs(),
                o.saturation.fresh_iterations(),
                (o.saturation.fresh.rules.values())
                    .map(|r| r.matches)
                    .sum::<u64>()
            ));
            let tel = &o.saturation.telemetry;
            out.push_str(&format!(
                "searched={} skipped={}\n",
                tel.searched_classes, tel.skipped_classes
            ));
            for it in &tel.iterations {
                out.push_str(&format!(
                    "iter nodes={} classes={} memo={}\n",
                    it.nodes, it.classes, it.memo
                ));
            }
            let mut rules: Vec<(&str, u64, u64)> = tel
                .rules
                .iter()
                .map(|(k, v)| (k.as_str(), v.matches, v.applications))
                .collect();
            rules.sort();
            for (name, matches, applications) in rules {
                out.push_str(&format!("rule {name} m={matches} a={applications}\n"));
            }
            out.push_str("== certificate ==\n");
            match &o.certificate {
                None => out.push_str("none\n"),
                Some(cert) => {
                    out.push_str(&entangle_cert::to_json(cert).expect("certificate serializes"));
                }
            }
        }
    }
    out
}

fn opts_with(jobs: usize, tracer: &Tracer) -> CheckOptions {
    CheckOptions {
        jobs,
        trace: tracer.clone(),
        ..CheckOptions::default()
    }
}

/// An elementwise chain sequence-split over a *symbolic* row count `2n`
/// (`n >= 1` assumed): the one zoo-external input class, whose shapes and
/// seam arithmetic go through the `SymCtx` solver.
fn symbolic_pair() -> (Graph, Graph, Relation, SymCtx) {
    let mut ctx = SymCtx::new();
    let n = ctx.var("n");
    ctx.assume(n.clone(), Rel::Ge, SymExpr::constant(1));

    let mut gs = GraphBuilder::new("sym-seq");
    let x = gs.input_shaped(
        "x",
        Shape(vec![Dim(n.clone() * 2), Dim::from(6)]),
        DType::F32,
    );
    let y = gs.apply("gelu", Op::Gelu, &[x]).unwrap();
    let z = gs.apply("tanh", Op::Tanh, &[y]).unwrap();
    gs.mark_output(z);
    let gs = gs.finish().unwrap();

    let mut gd = GraphBuilder::new("sym-dist");
    let shard_shape = Shape(vec![Dim(n), Dim::from(6)]);
    let x0 = gd.input_shaped("x.0", shard_shape.clone(), DType::F32);
    let x1 = gd.input_shaped("x.1", shard_shape, DType::F32);
    let y0 = gd.apply("gelu.0", Op::Gelu, &[x0]).unwrap();
    let y1 = gd.apply("gelu.1", Op::Gelu, &[x1]).unwrap();
    let z0 = gd.apply("tanh.0", Op::Tanh, &[y0]).unwrap();
    let z1 = gd.apply("tanh.1", Op::Tanh, &[y1]).unwrap();
    gd.mark_output(z0);
    gd.mark_output(z1);
    let gd = gd.finish().unwrap();

    let mut ri = Relation::builder(&gs, &gd);
    ri.map("x", "(concat x.0 x.1 0)").unwrap();
    let ri = ri.build();
    (gs, gd, ri, ctx)
}

#[test]
fn zoo_outcomes_are_identical_across_jobs() {
    let mut cases: Vec<(String, Graph, Graph, Relation, SymCtx)> = zoo()
        .into_iter()
        .map(|case| {
            let ri = case.dist.relation(&case.gs).expect("relation builds");
            (case.name, case.gs, case.dist.graph, ri, SymCtx::new())
        })
        .collect();
    let (gs, gd, ri, ctx) = symbolic_pair();
    cases.push(("symbolic_sp2".to_owned(), gs, gd, ri, ctx));
    // The `gpt_tp8` benchmark input: eight-wide waves between chains, and
    // more replays than fresh runs.
    let w = entangle_bench::gpt_workload(8, 2);
    let ri = w.dist.relation(&w.gs).expect("relation builds");
    cases.push((
        "gpt_tp8_l2".to_owned(),
        w.gs,
        w.dist.graph,
        ri,
        SymCtx::new(),
    ));
    for (name, gs, gd, ri, ctx) in &cases {
        let mut baseline: Option<(String, String)> = None;
        for jobs in [1usize, 2, 4] {
            let (tracer, sink) = Tracer::collect();
            let opts = CheckOptions {
                sym_ctx: ctx.clone(),
                ..opts_with(jobs, &tracer)
            };
            let result = check_refinement(gs, gd, ri, &opts);
            drop((opts, tracer));
            assert!(result.is_ok(), "{name}: jobs={jobs} failed: {result:?}");
            let sig = outcome_signature(gs, &result);
            let trace_sig = trace_signature(&sink.records());
            match &baseline {
                None => baseline = Some((sig, trace_sig)),
                Some((s0, t0)) => {
                    assert_eq!(
                        s0, &sig,
                        "{name}: outcome differs between jobs=1 and jobs={jobs}"
                    );
                    assert_eq!(
                        t0, &trace_sig,
                        "{name}: trace structure differs between jobs=1 and jobs={jobs}"
                    );
                }
            }
        }
    }
}

#[test]
fn table3_bug_localization_is_identical_across_jobs() {
    // Both the buggy variants (same first-unmapped-operator report) and
    // their fixed twins (same clean verdict).
    for case in all_bugs(true).into_iter().chain(all_bugs(false)) {
        let mut baseline: Option<(String, String)> = None;
        for jobs in [1usize, 2, 4] {
            let (tracer, sink) = Tracer::collect();
            let verdict = case.run(&opts_with(jobs, &tracer));
            drop(tracer);
            let sig = match verdict {
                BugVerdict::Clean => "clean".to_owned(),
                BugVerdict::RefinementBug(e) => format!("refinement: {e:?}"),
                BugVerdict::ExpectationBug(e) => format!("expectation: {e:?}"),
            };
            let trace_sig = trace_signature(&sink.records());
            match &baseline {
                None => baseline = Some((sig, trace_sig)),
                Some((s0, t0)) => {
                    assert_eq!(
                        s0, &sig,
                        "bug {} ({}, buggy={}): verdict differs between jobs=1 and jobs={jobs}",
                        case.id, case.name, case.buggy
                    );
                    assert_eq!(
                        t0, &trace_sig,
                        "bug {} ({}, buggy={}): trace differs between jobs=1 and jobs={jobs}",
                        case.id, case.name, case.buggy
                    );
                }
            }
        }
    }
}

/// An operator that is ready alone is solved by the coordinator — also when
/// it is the one that fails: the report is the one `jobs = 1` gives, and the
/// failing `op:` span names the coordinating thread, worker 0. The shard
/// pre-pass is off so that bugs 1, 3 and 7 reach the map stage too (bug 2
/// fails after it, at the outputs gate).
#[test]
fn a_failing_operator_solved_inline_reports_like_jobs_1() {
    let mut inline_failures = 0;
    for case in all_bugs(true) {
        if ![1, 2, 3, 4, 6, 7].contains(&case.id) {
            continue;
        }
        let run = |jobs: usize| {
            let (tracer, sink) = Tracer::collect();
            let opts = CheckOptions {
                shard: false,
                ..opts_with(jobs, &tracer)
            };
            let verdict = case.run(&opts);
            drop((opts, tracer));
            let BugVerdict::RefinementBug(e) = verdict else {
                panic!("bug {} must be a refinement bug", case.id);
            };
            (e, sink.records())
        };
        let (sequential, _) = run(1);
        let (parallel, records) = run(2);
        assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
        let attr = |r: &Record, key: &str| -> Option<String> {
            let found = r.attrs.iter().find(|(k, _)| k == key);
            found.map(|(_, v)| v.clone())
        };
        for r in &records {
            if attr(r, "outcome").as_deref() == Some("operator-unmapped") {
                assert!(matches!(parallel, RefinementError::OperatorUnmapped { .. }));
                if attr(r, "worker").as_deref() == Some("0") {
                    inline_failures += 1;
                }
            }
        }
    }
    assert_eq!(inline_failures, 5, "bugs 1, 3, 4, 6 and 7");
}
