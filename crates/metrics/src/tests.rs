use std::collections::BTreeMap;

use crate::ledger::{self, LedgerRecord};
use crate::report::{compare, NoiseBand, RegressionKind};
use crate::{JsonValue, Registry, Snapshot};

#[test]
fn null_registry_records_nothing() {
    let m = Registry::null();
    assert!(!m.is_enabled());
    m.counter("a").add(5);
    m.gauge("b").set_max(7);
    assert_eq!(m.counter("a").get(), 0);
    assert!(m.snapshot().is_empty());
}

#[test]
fn clones_share_instruments() {
    let m = Registry::new();
    let c1 = m.counter("x");
    let c2 = m.clone().counter("x");
    c1.inc();
    c2.add(2);
    assert_eq!(m.snapshot().counter("x"), 3);
}

#[test]
fn gauge_set_and_max() {
    let m = Registry::new();
    let g = m.gauge("peak");
    g.set(10);
    g.set_max(5);
    assert_eq!(g.get(), 10);
    g.set_max(20);
    assert_eq!(g.get(), 20);
}

#[test]
fn snapshot_json_round_trip() {
    let m = Registry::new();
    m.counter("par.cache.hits").add(41);
    m.gauge("egraph.peak_nodes").set_max(9001);
    m.counter("cert.verify.rejected");
    let snap = m.snapshot();
    assert_eq!(
        snap.to_json(),
        r#"{"counters":{"cert.verify.rejected":0,"par.cache.hits":41},"gauges":{"egraph.peak_nodes":9001}}"#
    );
    let parsed = Snapshot::from_json(&snap.to_json()).expect("round trip parses");
    assert_eq!(parsed, snap);
}

/// A record the counts-and-histograms registry wrote still reads: its
/// `histograms` object is skipped and its counters and gauges survive, so
/// `entangle report` compares old and new records as one history.
#[test]
fn ledger_line_with_histograms_still_reads() {
    let line = r#"{"schema":1,"kind":"check","workload":"gpt::dist","fingerprint":"00c0ffee00c0ffee","verdict":"verified","wall_ms":41.500,"extra":{"gs":"gpt"},"metrics":{"counters":{"par.cache.hits":7,"par.cache.misses":3},"gauges":{"egraph.peak_nodes":1234,"par.jobs":1},"histograms":{"cert.verify_us":{"count":1,"sum":250,"buckets":[[8,1]]},"check.stage.map_us":{"count":1,"sum":9000,"buckets":[[14,1]]}}}}"#;
    let rec = LedgerRecord::from_json(line).expect("a histogram-era record parses");
    assert_eq!(rec.workload, "gpt::dist");
    assert_eq!(rec.wall_ms, 41.5);
    assert_eq!(
        rec.metrics.counters,
        BTreeMap::from([
            ("par.cache.hits".to_owned(), 7),
            ("par.cache.misses".to_owned(), 3)
        ])
    );
    assert_eq!(
        rec.metrics.gauges,
        BTreeMap::from([
            ("egraph.peak_nodes".to_owned(), 1234),
            ("par.jobs".to_owned(), 1)
        ])
    );
}

#[test]
fn snapshot_ordering_is_deterministic() {
    let m = Registry::new();
    m.counter("z.last").inc();
    m.counter("a.first").inc();
    m.counter("m.mid").inc();
    let snap = m.snapshot();
    let keys: Vec<&String> = snap.counters.keys().collect();
    assert_eq!(keys, ["a.first", "m.mid", "z.last"]);
    // Rendering is a pure function of contents, not of insertion order.
    let m2 = Registry::new();
    m2.counter("m.mid").inc();
    m2.counter("a.first").inc();
    m2.counter("z.last").inc();
    assert_eq!(m.snapshot().to_json(), m2.snapshot().to_json());
}

#[test]
fn prometheus_exposition_shape() {
    let m = Registry::new();
    m.counter("par.cache.hits").add(2);
    m.gauge("par.jobs").set(4);
    let prom = m.snapshot().to_prometheus(&[("workload", "gpt_tp2")]);
    assert_eq!(
        prom,
        "# TYPE entangle_par_cache_hits counter\n\
         entangle_par_cache_hits{workload=\"gpt_tp2\"} 2\n\
         # TYPE entangle_par_jobs gauge\n\
         entangle_par_jobs{workload=\"gpt_tp2\"} 4\n"
    );
}

/// The workload label is `<G_s name>::<G_d name>`, read unvalidated from
/// input graphs: a quote, a backslash or a line feed in it is escaped in
/// every series, so the exposition stays one sample per line and gains no
/// series of its own.
#[test]
fn prometheus_escapes_hostile_workload_labels() {
    let hostile = "gpt\"} 1\nentangle_forged 1 \\::dist";
    let mut rec = sample_record("verified", 12.0, 4096, 3, 1);
    rec.workload = hostile.to_owned();
    let prom = compare(&read_of(vec![rec]), &NoiseBand::default()).to_prometheus();
    let escaped = r#"workload="gpt\"} 1\nentangle_forged 1 \\::dist""#;
    let mut series = Vec::new();
    for line in prom.lines() {
        if line.starts_with("# ") {
            continue;
        }
        let (name, rest) = line.split_once('{').unwrap_or_else(|| {
            line.split_once(' ')
                .expect("a sample line is `name value` or `name{labels} value`")
        });
        if name != "entangle_report_regressions" {
            let (labels, value) = rest.rsplit_once("} ").expect("a labelled sample");
            assert_eq!(labels, escaped, "{line}");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
        series.push(name);
    }
    assert_eq!(
        series,
        [
            "entangle_par_cache_hits",
            "entangle_par_cache_misses",
            "entangle_egraph_peak_nodes",
            "entangle_run_wall_ms",
            "entangle_report_regressions"
        ]
    );
}

#[test]
fn json_parser_handles_full_grammar() {
    let v = crate::parse_json(
        r#"{"s":"a\"bA","n":-1.5e2,"u":18446744073709551615,"arr":[1,true,null],"o":{}}"#,
    )
    .expect("parses");
    assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\"bA"));
    assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(-150.0));
    // u64::MAX survives exactly (no f64 detour).
    assert_eq!(v.get("u").and_then(JsonValue::as_u64), Some(u64::MAX));
    assert_eq!(
        v.get("arr").and_then(JsonValue::as_array).map(<[_]>::len),
        Some(3)
    );
    assert!(crate::parse_json("{\"a\":}").is_err());
    assert!(crate::parse_json("{} trailing").is_err());
}

fn sample_record(verdict: &str, wall_ms: f64, peak: u64, hits: u64, misses: u64) -> LedgerRecord {
    let m = Registry::new();
    m.gauge("egraph.peak_nodes").set_max(peak);
    m.counter("par.cache.hits").add(hits);
    m.counter("par.cache.misses").add(misses);
    let mut rec = LedgerRecord::new("check", "zoo::gpt_tp2", "aabbccdd00112233", verdict);
    rec.wall_ms = wall_ms;
    rec.extra = BTreeMap::from([("gs".to_owned(), "gpt".to_owned())]);
    rec.metrics = m.snapshot();
    rec
}

#[test]
fn ledger_record_round_trip() {
    let rec = sample_record("verified", 12.345, 4096, 30, 10);
    let line = rec.to_json_line();
    let parsed = LedgerRecord::from_json(&line).expect("parses");
    assert_eq!(parsed, rec);
}

#[test]
fn ledger_append_and_read_tolerates_malformed_lines() {
    let dir = std::env::temp_dir().join(format!(
        "entangle-metrics-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let path = dir.join("ledger.jsonl");
    let _ = std::fs::remove_dir_all(&dir);
    ledger::append(&path, &sample_record("verified", 10.0, 100, 1, 1)).expect("append 1");
    std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .and_then(|mut f| {
            use std::io::Write;
            f.write_all(b"{\"schema\":1,\"workload\" truncated garbage\n\n{\"schema\":99,\"workload\":\"w\"}\n")
        })
        .expect("inject garbage");
    ledger::append(&path, &sample_record("verified", 11.0, 100, 1, 1)).expect("append 2");
    let read = ledger::read(&path).expect("read");
    // Garbage line + future-schema line skipped, blank line ignored.
    assert_eq!(read.records.len(), 2);
    assert_eq!(read.malformed, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ledger_missing_file_reads_empty() {
    let read = ledger::read(std::path::Path::new("/nonexistent/entangle/ledger.jsonl"))
        .expect("missing file is empty");
    assert!(read.records.is_empty());
    assert_eq!(read.malformed, 0);
}

fn read_of(records: Vec<LedgerRecord>) -> ledger::LedgerRead {
    ledger::LedgerRead {
        records,
        malformed: 0,
    }
}

#[test]
fn report_clean_on_identical_runs() {
    let read = read_of(vec![
        sample_record("verified", 10.0, 4096, 30, 10),
        sample_record("verified", 10.2, 4096, 30, 10),
    ]);
    let outcome = compare(&read, &NoiseBand::default());
    assert!(outcome.is_clean(), "{:?}", outcome.regressions);
    assert_eq!(outcome.workloads.len(), 1);
    assert_eq!(outcome.workloads[0].baseline_runs, 1);
}

#[test]
fn report_flags_injected_slowdown() {
    let read = read_of(vec![
        sample_record("verified", 10.0, 4096, 30, 10),
        sample_record("verified", 10.0, 4096, 30, 10),
        sample_record("verified", 20.5, 4096, 30, 10),
    ]);
    let outcome = compare(&read, &NoiseBand::default());
    assert_eq!(outcome.regressions.len(), 1);
    assert_eq!(outcome.regressions[0].kind, RegressionKind::Time);
}

#[test]
fn report_flags_any_verdict_flip() {
    let read = read_of(vec![
        sample_record("verified", 10.0, 4096, 30, 10),
        sample_record("failed:operator-unmapped", 10.0, 4096, 30, 10),
    ]);
    let outcome = compare(&read, &NoiseBand::default());
    assert!(outcome
        .regressions
        .iter()
        .any(|r| r.kind == RegressionKind::VerdictFlip));
    // A recovery is a flip too.
    let read = read_of(vec![
        sample_record("failed:operator-unmapped", 10.0, 4096, 30, 10),
        sample_record("verified", 10.0, 4096, 30, 10),
    ]);
    assert!(!compare(&read, &NoiseBand::default()).is_clean());
}

#[test]
fn report_flags_peak_nodes_and_hit_rate() {
    let read = read_of(vec![
        sample_record("verified", 10.0, 4096, 30, 10),
        sample_record("verified", 10.0, 8192, 30, 10),
    ]);
    let kinds: Vec<RegressionKind> = compare(&read, &NoiseBand::default())
        .regressions
        .iter()
        .map(|r| r.kind)
        .collect();
    assert_eq!(kinds, [RegressionKind::PeakNodes]);

    let read = read_of(vec![
        sample_record("verified", 10.0, 4096, 30, 10),
        sample_record("verified", 10.0, 4096, 10, 30),
    ]);
    let kinds: Vec<RegressionKind> = compare(&read, &NoiseBand::default())
        .regressions
        .iter()
        .map(|r| r.kind)
        .collect();
    assert_eq!(kinds, [RegressionKind::HitRate]);
}

#[test]
fn report_fingerprint_change_resets_baseline() {
    let slow = {
        let mut r = sample_record("verified", 100.0, 4096, 30, 10);
        r.fingerprint = "ffffffffffffffff".to_owned();
        r
    };
    let read = read_of(vec![sample_record("verified", 10.0, 4096, 30, 10), slow]);
    let outcome = compare(&read, &NoiseBand::default());
    // 10x slower but under a different fingerprint: baseline reset, no
    // numeric regression (the verdict did not flip).
    assert!(outcome.is_clean(), "{:?}", outcome.regressions);
    assert!(outcome.workloads[0].baseline_reset);
}

#[test]
fn report_renders_all_formats() {
    let read = read_of(vec![
        sample_record("verified", 10.0, 4096, 30, 10),
        sample_record("failed:x", 30.0, 4096, 30, 10),
    ]);
    let outcome = compare(&read, &NoiseBand::default());
    let text = outcome.to_text();
    assert!(text.contains("REGRESSED"));
    assert!(text.contains("verdict-flip"));
    let json = outcome.to_json();
    let v = crate::parse_json(&json).expect("report json parses");
    assert!(v.get("workloads").is_some());
    let prom = outcome.to_prometheus();
    assert!(prom.contains("entangle_report_regressions"));
    assert!(prom.contains("workload=\"zoo::gpt_tp2\""));
}

mod proptests {
    use proptest::prelude::*;

    use crate::{Registry, Snapshot};

    proptest! {
        /// Snapshot JSON round-trips exactly for arbitrary values.
        #[test]
        fn snapshot_round_trips(values in collection::vec(0u64..=u64::MAX, 0..40)) {
            let m = Registry::new();
            for (i, &v) in values.iter().enumerate() {
                m.gauge(&format!("g{i}")).set(v);
            }
            m.counter("c").add(values.len() as u64);
            let snap = m.snapshot();
            let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
            prop_assert_eq!(parsed, snap);
        }
    }
}
