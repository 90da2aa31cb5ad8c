//! Golden metrics tests: the snapshot `check_refinement_counted` builds is
//! pinned, instrument by instrument, against `tests/golden/metrics/*.txt`
//! (each captured while a live registry still recorded the counts, so
//! "same names, same values" is a fact about two designs, not about two
//! runs of one), on the verified path and on every failure exit; the whole
//! snapshot is a function of the problem; it carries the documented
//! instrument catalogue; and ledger records survive the JSONL round-trip
//! with malformed-line-tolerant reads and the documented regression noise
//! bands.
//!
//! Regenerate after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test --test metrics_golden`

use std::collections::BTreeMap;

use entangle::{check_refinement_counted, CheckOptions};
use entangle_metrics::{ledger, LedgerRecord, NoiseBand, RegressionKind, Snapshot};
use entangle_models::{gpt, regression, Arch, ModelConfig, RegressionConfig};
use entangle_parallel::{grad_accumulation, parallelize, Strategy};

fn gpt_tp2() -> (
    entangle_ir::Graph,
    entangle_parallel::Distributed,
    entangle::Relation,
) {
    let cfg = ModelConfig::tiny();
    let gs = gpt(&cfg);
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));
    let ri = dist.relation(&gs).expect("relation builds");
    (gs, dist, ri)
}

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

/// A snapshot as golden text: one `name value` line per counter and gauge,
/// by name.
fn golden_text(s: &Snapshot) -> String {
    let scalars: BTreeMap<&String, &u64> = s.counters.iter().chain(&s.gauges).collect();
    scalars.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

fn assert_matches_golden(name: &str, got: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics");
    let path = format!("{dir}/{name}.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(dir).expect("golden dir");
        std::fs::write(&path, got).expect("golden written");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("{path} missing — run UPDATE_GOLDEN=1 cargo test --test metrics_golden")
    });
    assert_eq!(
        got, want,
        "{name}: the metrics snapshot drifted from the golden; if intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test --test metrics_golden"
    );
}

/// The snapshot of a verified check.
fn golden_snapshot(
    gs: &entangle_ir::Graph,
    gd: &entangle_ir::Graph,
    ri: &entangle::Relation,
) -> Snapshot {
    let (result, snapshot) = check_refinement_counted(gs, gd, ri, &CheckOptions::default());
    result.expect("workload verifies");
    assert!(!snapshot.is_empty(), "a verified check has counts");
    snapshot
}

#[test]
fn golden_snapshot_gpt_tp2() {
    let (gs, dist, ri) = gpt_tp2();
    let a = golden_snapshot(&gs, &dist.graph, &ri);
    assert_matches_golden("gpt_tp2", &golden_text(&a));

    // The instrument catalogue the pipeline documents: e-graph growth,
    // per-operator accounting, kernel verdicts.
    assert!(a.counter("egraph.runs") > 0, "saturation runs counted");
    assert!(a.counter("egraph.iterations") >= a.counter("egraph.runs"));
    assert!(a.gauge("egraph.peak_nodes") > 0, "peak e-nodes tracked");
    assert!(a.gauge("egraph.peak_classes") > 0, "peak e-classes tracked");
    assert_eq!(
        a.counter("check.operators"),
        gs.nodes().len() as u64,
        "one operator report per sequential node"
    );
    assert_eq!(
        a.counter("cert.verify.accepted"),
        1,
        "certify mode kernel-checks exactly one certificate"
    );
    assert_eq!(a.counter("cert.verify.rejected"), 0);
    // Compiled e-matching instruments: the shared trie exists, and the
    // traversal examines candidates and yields matches.
    assert!(a.gauge("ematch.trie.nodes") > 0, "shared trie built");
    assert!(
        a.counter("ematch.candidates.visited") > 0,
        "shared traversal examines e-nodes"
    );
    assert!(
        a.counter("ematch.matches.yielded") > 0,
        "shared traversal yields matches"
    );
}

/// Two checks of one triple in one process record the same
/// snapshot: no instrument holds a duration, and none depends on what an
/// earlier check left in a process-global memo.
#[test]
fn repeated_checks_record_equal_snapshots() {
    let (gs, dist, ri) = gpt_tp2();
    let first = golden_snapshot(&gs, &dist.graph, &ri);
    let second = golden_snapshot(&gs, &dist.graph, &ri);
    assert_eq!(first, second);
}

#[test]
fn golden_snapshot_regression_workload() {
    let (gs, dist, ri) = regression_workload();
    let a = golden_snapshot(&gs, &dist.graph, &ri);
    assert_matches_golden("regression", &golden_text(&a));
    assert_eq!(a.counter("check.operators"), gs.nodes().len() as u64);
    assert!(a.counter("egraph.runs") > 0);
    assert!(a.counter("egraph.unions") > 0, "saturation performs unions");
}

/// A failed check has no `CheckOutcome`: the snapshot returned beside the
/// error is the only structured record of it (the ledger line of a failed
/// run is built from exactly this snapshot). Bug 6 fails inside the map
/// stage, bug 2 at the outputs stage after a complete map.
#[test]
fn golden_snapshot_failed_checks() {
    for (id, kind) in [(6, "operator-unmapped"), (2, "output-unmapped")] {
        let case = entangle_parallel::bugs::bug(id, true);
        let ri = case.relation().expect("bug-case relation is valid");
        let (result, snapshot) =
            check_refinement_counted(&case.gs, &case.dist.graph, &ri, &CheckOptions::default());
        let err = result.expect_err("the bug is detected");
        assert_eq!(err.kind(), kind, "bug {id}");
        assert_matches_golden(&format!("bug{id}_failed"), &golden_text(&snapshot));
        assert!(
            snapshot.counters.contains_key("par.cache.misses"),
            "bug {id}: the map stage's memo counters survive the failure"
        );
        assert!(
            !snapshot.counters.contains_key("cert.verify.accepted"),
            "bug {id}: no kernel ran after the failure"
        );
    }
}

/// A well-formed `G_s` next to a `G_d` whose slice sharding of `X` leaves
/// row 4 covered by no shard: lint error E009.
fn gap_sharded_pair() -> (entangle_ir::Graph, entangle_ir::Graph) {
    use entangle_ir::{DType, Dim, GraphBuilder, Op};
    let mut gs = GraphBuilder::new("seq");
    let a = gs.input("A", &[8, 4], DType::F32);
    let r = gs.apply("R", Op::Relu, &[a]).unwrap();
    gs.mark_output(r);
    let mut gd = GraphBuilder::new("dist");
    let x = gd.input("X", &[8, 4], DType::F32);
    for (i, (start, end)) in [(0, 4), (5, 8)].into_iter().enumerate() {
        let slice = Op::Slice {
            dim: 0,
            start: Dim::from(start),
            end: Dim::from(end),
        };
        let s = gd.apply(&format!("S{}", i + 1), slice, &[x]).unwrap();
        let r = gd.apply(&format!("R{}", i + 1), Op::Relu, &[s]).unwrap();
        gd.mark_output(r);
    }
    (gs.finish().unwrap(), gd.finish().unwrap())
}

/// Every exit no other golden covers: the three that end before the map
/// stage (lint, a missing input mapping, a shard violation) collect
/// nothing, and the two verified checks with an option off differ from
/// `gpt_tp2.txt` only in the instrument that option drives.
#[test]
fn golden_snapshot_every_exit() {
    let (gs, dist, ri) = gpt_tp2();
    let (gap_s, gap_d) = gap_sharded_pair();
    let mut gap_ri = entangle::Relation::builder(&gap_s, &gap_d);
    gap_ri.map("A", "X").unwrap();
    let bug1 = entangle_parallel::bugs::bug(1, true);
    let bug1_ri = bug1.relation().expect("bug-case relation is valid");
    let failures = [
        ("lint_failed", "lint", &gap_s, &gap_d, &gap_ri.build()),
        (
            "missing_input_failed",
            "missing-input-mapping",
            &gs,
            &dist.graph,
            &entangle::Relation::new(),
        ),
        (
            "bug1_failed",
            "shard-violation",
            &bug1.gs,
            &bug1.dist.graph,
            &bug1_ri,
        ),
    ];
    for (name, kind, gs, gd, ri) in failures {
        let (result, snapshot) = check_refinement_counted(gs, gd, ri, &CheckOptions::default());
        assert_eq!(result.expect_err(name).kind(), kind, "{name}");
        assert_matches_golden(name, &golden_text(&snapshot));
        assert!(snapshot.is_empty(), "{name}: nothing ran to count");
    }

    let (result, snapshot) = check_refinement_counted(
        &gs,
        &dist.graph,
        &ri,
        &CheckOptions {
            certify: false,
            ..CheckOptions::default()
        },
    );
    result.expect("GPT/TP2 verifies uncertified");
    assert_matches_golden("gpt_tp2_uncertified", &golden_text(&snapshot));
    assert!(!snapshot.counters.keys().any(|k| k.starts_with("cert.")));
}

#[test]
fn ledger_record_roundtrips_through_jsonl() {
    let mut rec = LedgerRecord::new("check", "gpt::dist-tp2", "00c0ffee00c0ffee", "verified");
    rec.wall_ms = 41.5;
    rec.extra.insert("gs".into(), "gpt".into());
    rec.metrics = snapshot_of(
        &[
            ("par.cache.hits", 7),
            ("par.cache.misses", 3),
            ("cert.verify.accepted", 1),
        ],
        &[("egraph.peak_nodes", 1234)],
    );

    let line = rec.to_json_line();
    assert!(
        line.starts_with("{\"schema\":1,"),
        "schema leads the record"
    );
    let parsed = LedgerRecord::from_json(&line).expect("round-trip parses");
    assert_eq!(parsed, rec);
}

#[test]
fn ledger_read_tolerates_malformed_lines() {
    let dir = std::env::temp_dir().join(format!("entangle-ledger-test-{}", std::process::id()));
    let path = dir.join("ledger.jsonl");
    let _ = std::fs::remove_file(&path);

    let rec = LedgerRecord::new("check", "w", "fp", "verified");
    ledger::append(&path, &rec).expect("append creates parents");
    ledger::append(&path, &rec).expect("second append");
    // A truncated crash-mid-write line, a non-JSON line, and a record from
    // a future schema must each be skipped, not poison the file.
    let mut text = std::fs::read_to_string(&path).expect("readable");
    text.push_str("{\"schema\":1,\"kind\":\"ch");
    text.push_str("\nnot json at all\n");
    text.push_str("{\"schema\":99,\"workload\":\"w\",\"verdict\":\"verified\"}\n");
    std::fs::write(&path, text).expect("rewrite");

    let read = ledger::read(&path).expect("read succeeds");
    assert_eq!(read.records.len(), 2, "both well-formed records survive");
    assert_eq!(read.malformed, 3, "every bad line is counted");

    let missing = ledger::read(&dir.join("no-such-ledger.jsonl")).expect("missing file is empty");
    assert!(missing.records.is_empty());
    assert_eq!(missing.malformed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot of the given counters and gauges.
fn snapshot_of(counters: &[(&str, u64)], gauges: &[(&str, u64)]) -> Snapshot {
    let named = |v: &[(&str, u64)]| v.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
    Snapshot {
        counters: named(counters),
        gauges: named(gauges),
    }
}

/// A ledger record with the given wall time, peak nodes, and fingerprint.
fn run_record(workload: &str, fp: &str, verdict: &str, wall_ms: f64, peak: u64) -> LedgerRecord {
    let mut rec = LedgerRecord::new("check", workload, fp, verdict);
    rec.wall_ms = wall_ms;
    rec.metrics = snapshot_of(
        &[("par.cache.hits", 8), ("par.cache.misses", 2)],
        &[("egraph.peak_nodes", peak)],
    );
    rec
}

fn compare(records: Vec<LedgerRecord>) -> entangle_metrics::ReportOutcome {
    let read = entangle_metrics::LedgerRead {
        records,
        malformed: 0,
    };
    entangle_metrics::report::compare(&read, &NoiseBand::default())
}

#[test]
fn report_identical_runs_are_clean() {
    let outcome = compare(vec![
        run_record("w", "fp", "verified", 40.0, 1000),
        run_record("w", "fp", "verified", 41.0, 1000),
        run_record("w", "fp", "verified", 40.5, 1000),
    ]);
    assert!(outcome.is_clean(), "{:?}", outcome.regressions);
    assert_eq!(outcome.workloads.len(), 1);
    assert_eq!(outcome.workloads[0].baseline_runs, 2);
}

#[test]
fn report_flags_time_beyond_both_ratio_and_floor() {
    // 2x the 40ms median: beyond 1.5x and beyond +5ms — flagged.
    let outcome = compare(vec![
        run_record("w", "fp", "verified", 40.0, 1000),
        run_record("w", "fp", "verified", 80.0, 1000),
    ]);
    assert_eq!(outcome.regressions.len(), 1);
    assert_eq!(outcome.regressions[0].kind, RegressionKind::Time);

    // 2x a 2ms median clears the ratio but not the +5ms floor — noise.
    let outcome = compare(vec![
        run_record("w", "fp", "verified", 2.0, 1000),
        run_record("w", "fp", "verified", 4.0, 1000),
    ]);
    assert!(outcome.is_clean(), "sub-floor delta is inside the band");

    // +6ms over a 100ms median clears the floor but not the 1.5x ratio.
    let outcome = compare(vec![
        run_record("w", "fp", "verified", 100.0, 1000),
        run_record("w", "fp", "verified", 106.0, 1000),
    ]);
    assert!(outcome.is_clean(), "sub-ratio delta is inside the band");
}

#[test]
fn report_flags_any_verdict_flip() {
    let outcome = compare(vec![
        run_record("w", "fp", "verified", 40.0, 1000),
        run_record("w", "fp", "failed:cert-rejected", 40.0, 1000),
    ]);
    assert!(outcome
        .regressions
        .iter()
        .any(|r| r.kind == RegressionKind::VerdictFlip));

    // A recovery is also surfaced: any flip is drift worth seeing.
    let outcome = compare(vec![
        run_record("w", "fp", "failed:cert-rejected", 40.0, 1000),
        run_record("w", "fp", "verified", 40.0, 1000),
    ]);
    assert!(!outcome.is_clean(), "recovery flips are surfaced too");
}

#[test]
fn report_fingerprint_change_resets_the_baseline() {
    // Same workload, new fingerprint, 10x slower: a config/problem change,
    // not a regression — numeric comparison must be skipped.
    let outcome = compare(vec![
        run_record("w", "fp-old", "verified", 40.0, 1000),
        run_record("w", "fp-new", "verified", 400.0, 9000),
    ]);
    assert!(outcome.is_clean(), "{:?}", outcome.regressions);
    assert!(outcome.workloads[0].baseline_reset);
    assert_eq!(outcome.workloads[0].baseline_runs, 0);
}

#[test]
fn report_flags_peak_nodes_and_hit_rate() {
    // Peak nodes: 2000 -> 4096 clears 1.2x and +512.
    let outcome = compare(vec![
        run_record("w", "fp", "verified", 40.0, 2000),
        run_record("w", "fp", "verified", 40.0, 4096),
    ]);
    assert_eq!(outcome.regressions.len(), 1);
    assert_eq!(outcome.regressions[0].kind, RegressionKind::PeakNodes);

    // Hit rate: 80% baseline -> 50% current is a >10pp structural drop.
    let base = run_record("w", "fp", "verified", 40.0, 1000);
    let mut cur = run_record("w", "fp", "verified", 40.0, 1000);
    cur.metrics = snapshot_of(
        &[("par.cache.hits", 5), ("par.cache.misses", 5)],
        &[("egraph.peak_nodes", 1000)],
    );
    let outcome = compare(vec![base, cur]);
    assert_eq!(outcome.regressions.len(), 1);
    assert_eq!(outcome.regressions[0].kind, RegressionKind::HitRate);
}
