//! Golden metrics tests: the snapshot a full checker run collects is
//! pinned, instrument by instrument, against `tests/golden/metrics/*.txt`
//! (captured at the commit before the registry left the engine crates, so
//! "same names, same values" is a fact about two commits, not about two
//! runs of one), on the verified path and on both failure exits that have
//! no `CheckOutcome`; at `jobs = 1` the whole snapshot bar `par.cores` is a
//! function of the problem; it carries the documented instrument catalogue
//! and cannot perturb the search; and ledger records survive the JSONL
//! round-trip with malformed-line-tolerant reads and the documented
//! regression noise bands.
//!
//! Regenerate after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test --test metrics_golden`

use std::collections::BTreeMap;

use entangle::{check_refinement, CheckOptions};
use entangle_metrics::{ledger, LedgerRecord, NoiseBand, Registry, RegressionKind, Snapshot};
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

fn metered_opts() -> CheckOptions {
    CheckOptions {
        certify: true,
        jobs: 1,
        metrics: Registry::new(),
        ..CheckOptions::default()
    }
}

/// A snapshot as golden text: one `name value` line per counter and gauge,
/// by name, without `par.cores` (a property of the machine). Every other
/// value is a function of the problem at `jobs = 1`.
fn golden_text(s: &Snapshot) -> String {
    let scalars: BTreeMap<&String, &u64> = s
        .counters
        .iter()
        .chain(&s.gauges)
        .filter(|(k, _)| *k != "par.cores")
        .collect();
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

/// The snapshot of a metered `jobs = 1` check.
fn golden_snapshot(
    gs: &entangle_ir::Graph,
    gd: &entangle_ir::Graph,
    ri: &entangle::Relation,
) -> Snapshot {
    let opts = metered_opts();
    check_refinement(gs, gd, ri, &opts).expect("workload verifies");
    let snapshot = opts.metrics.snapshot();
    assert!(!snapshot.is_empty(), "a live registry collects a snapshot");
    snapshot
}

#[test]
fn golden_snapshot_gpt_tp2() {
    let (gs, dist, ri) = gpt_tp2();
    let a = golden_snapshot(&gs, &dist.graph, &ri);
    assert_matches_golden("gpt_tp2", &golden_text(&a));

    // The instrument catalogue the pipeline documents: e-graph growth,
    // per-operator accounting, scheduler gauges, kernel verdicts.
    assert!(a.counter("egraph.runs") > 0, "saturation runs counted");
    assert!(a.counter("egraph.iterations") >= a.counter("egraph.runs"));
    assert!(a.gauge("egraph.peak_nodes") > 0, "peak e-nodes tracked");
    assert!(a.gauge("egraph.peak_classes") > 0, "peak e-classes tracked");
    assert_eq!(
        a.counter("check.operators"),
        gs.nodes().len() as u64,
        "one operator report per sequential node"
    );
    assert_eq!(a.gauge("par.jobs"), 1);
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

/// Two metered `jobs = 1` checks of one triple in one process record the
/// same snapshot: no instrument holds a duration, and none depends on what
/// an earlier check left in a process-global memo.
#[test]
fn repeated_checks_record_equal_snapshots() {
    let (gs, dist, ri) = gpt_tp2();
    let mut first = golden_snapshot(&gs, &dist.graph, &ri);
    let mut second = golden_snapshot(&gs, &dist.graph, &ri);
    for s in [&mut first, &mut second] {
        s.gauges.remove("par.cores");
    }
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

/// A failed check has no `CheckOutcome`: the registry the caller passed in
/// is the only structured record of it (the ledger line of a failed run is
/// built from exactly this snapshot). Bug 6 fails inside the map stage,
/// bug 2 at the outputs stage after a complete map.
#[test]
fn golden_snapshot_failed_checks() {
    for (id, kind) in [(6, "operator-unmapped"), (2, "output-unmapped")] {
        let case = entangle_parallel::bugs::bug(id, true);
        let ri = case.relation().expect("bug-case relation is valid");
        let opts = metered_opts();
        let err = check_refinement(&case.gs, &case.dist.graph, &ri, &opts)
            .expect_err("the bug is detected");
        assert_eq!(err.kind(), kind, "bug {id}");
        let snapshot = opts.metrics.snapshot();
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

#[test]
fn metrics_do_not_perturb_the_search() {
    let (gs, dist, ri) = gpt_tp2();

    let quiet_opts = CheckOptions::default();
    let quiet =
        check_refinement(&gs, &dist.graph, &ri, &quiet_opts).expect("GPT/TP2 verifies unmetered");
    assert!(
        quiet_opts.metrics.snapshot().is_empty(),
        "null registry stays empty"
    );
    let metered_outcome = check_refinement(
        &gs,
        &dist.graph,
        &ri,
        &CheckOptions {
            metrics: Registry::new(),
            ..CheckOptions::default()
        },
    )
    .expect("GPT/TP2 verifies metered");

    // Identical lemma firings...
    let stats = |o: &entangle::CheckOutcome| -> BTreeMap<String, u64> {
        o.lemma_stats
            .iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect()
    };
    assert_eq!(stats(&quiet), stats(&metered_outcome));

    // ...identical stop reasons and e-graph growth curve...
    assert_eq!(quiet.saturation.stops, metered_outcome.saturation.stops);
    assert_eq!(
        quiet.saturation.growth(),
        metered_outcome.saturation.growth()
    );

    // ...and an identical output relation.
    assert_eq!(
        quiet.full_relation.display(&gs).to_string(),
        metered_outcome.full_relation.display(&gs).to_string()
    );
}

#[test]
fn ledger_record_roundtrips_through_jsonl() {
    let m = Registry::new();
    m.counter("par.cache.hits").add(7);
    m.counter("par.cache.misses").add(3);
    m.gauge("egraph.peak_nodes").set(1234);
    m.counter("cert.verify.accepted").inc();
    let mut rec = LedgerRecord::new("check", "gpt::dist-tp2", "00c0ffee00c0ffee", "verified");
    rec.wall_ms = 41.5;
    rec.extra.insert("gs".into(), "gpt".into());
    rec.metrics = m.snapshot();

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

/// A ledger record with the given wall time, peak nodes, and fingerprint.
fn run_record(workload: &str, fp: &str, verdict: &str, wall_ms: f64, peak: u64) -> LedgerRecord {
    let m = Registry::new();
    m.gauge("egraph.peak_nodes").set(peak);
    m.counter("par.cache.hits").add(8);
    m.counter("par.cache.misses").add(2);
    let mut rec = LedgerRecord::new("check", workload, fp, verdict);
    rec.wall_ms = wall_ms;
    rec.metrics = m.snapshot();
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
    let m = Registry::new();
    m.gauge("egraph.peak_nodes").set(1000);
    m.counter("par.cache.hits").add(5);
    m.counter("par.cache.misses").add(5);
    cur.metrics = m.snapshot();
    let outcome = compare(vec![base, cur]);
    assert_eq!(outcome.regressions.len(), 1);
    assert_eq!(outcome.regressions[0].kind, RegressionKind::HitRate);
}
