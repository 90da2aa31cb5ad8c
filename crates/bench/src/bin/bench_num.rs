//! Numeric-analysis overhead benchmark: the full certified pipeline across
//! the 7-workload zoo, once with the static numeric-soundness analysis off
//! and once with it on (the default), plus the per-output verdict each
//! analyzed run derives.
//!
//! Writes `results/BENCH_num.json` (shared [`BenchReport`] envelope, one
//! ledger record per case) and prints the comparison table. The run *asserts* the analysis is cheap
//! in steady state: per workload, the minimum paired off-vs-on delta may
//! cost at most 5% (with a 1ms absolute floor so timer noise on fast runs
//! cannot fail the gate), and every analyzed output must be sound —
//! bit-exact or reassociation-only with a finite derived tolerance, never
//! flagged. The first rep's delta — the one-time cold chain walk before
//! the cross-check analysis memo takes over — is reported separately as
//! `cold_ms` and is not gated.

use std::time::{Duration, Instant};

use entangle::{check_refinement, CheckOptions, NumClass, Relation};
use entangle_bench::{print_table, secs, zoo, BenchReport};
use entangle_ir::Graph;
use entangle_runtime::Tolerance;

/// Paired wall-clock measurement with the analysis off and on: each rep
/// runs off then on back to back, so the two timings of a pair share
/// thermal, scheduler and allocator state. Returns the best off time, the
/// best on time, and the *minimum paired delta* — the robust overhead
/// estimate under noisy wall clocks.
fn time_both(
    gs: &Graph,
    gd: &Graph,
    ri: &Relation,
    reps: usize,
) -> (Duration, Duration, f64, f64, entangle::CertAnalysis) {
    let opts_for = |numeric: bool| CheckOptions {
        certify: true,
        numeric,
        ..CheckOptions::default()
    };
    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    let mut min_delta = f64::MAX;
    let mut cold_delta = 0.0;
    let mut analysis = None;
    for rep in 0..reps {
        let mut pair = [Duration::ZERO; 2];
        for (numeric, slot) in [(false, 0), (true, 1)] {
            let start = Instant::now();
            let outcome = check_refinement(gs, gd, ri, &opts_for(numeric))
                .unwrap_or_else(|e| panic!("{} failed: {e}", gd.name()));
            pair[slot] = start.elapsed();
            if numeric {
                analysis = Some(outcome.numeric.expect("analysis on"));
            }
        }
        let delta = pair[1].as_secs_f64() - pair[0].as_secs_f64();
        if rep == 0 {
            // First on-run walks the chains cold; later reps hit the memo.
            cold_delta = delta;
        }
        best_off = best_off.min(pair[0]);
        best_on = best_on.min(pair[1]);
        min_delta = min_delta.min(delta);
    }
    (
        best_off,
        best_on,
        min_delta,
        cold_delta,
        analysis.expect("reps >= 1"),
    )
}

/// Paired reps per workload. The first on-run is the cold one, so seven
/// leave six warm pairs: the gate compares a 10–20 ms check with itself,
/// and on a shared box two warm pairs (what three reps left) were too few
/// for their minimum to shed a scheduler hiccup.
const REPS: usize = 7;

fn main() {
    println!("Numeric-analysis overhead benchmark ({REPS} reps, best-of):\n");

    let mut rows = Vec::new();
    let mut report = BenchReport::new("num_overhead");
    report.header("reps", REPS.to_string());
    report.header("budget", entangle_lint::json_str("max(5%, 1ms)"));
    let mut violations = Vec::new();
    for case in zoo() {
        let ri = case.dist.relation(&case.gs).expect("relation builds");
        let fp = entangle::problem_fingerprint(
            &case.gs,
            &case.dist.graph,
            &ri,
            &CheckOptions {
                certify: true,
                ..CheckOptions::default()
            },
        );
        let (t_off, t_on, delta, cold_delta, analysis) =
            time_both(&case.gs, &case.dist.graph, &ri, REPS);

        assert!(
            analysis.is_clean(),
            "{}: numeric analysis flagged a zoo workload:\n{}",
            case.display,
            analysis.render()
        );
        let mut out_summary = Vec::new();
        for o in &analysis.outputs {
            let sound = matches!(o.verdict.class, NumClass::BitExact | NumClass::Reassoc);
            assert!(
                sound,
                "{}: output {} is {:?}",
                case.display, o.tensor, o.verdict
            );
            let tol = o
                .verdict
                .tolerance()
                .expect("sound verdict has a tolerance");
            if let Tolerance::Relative(b) = tol {
                assert!(b.is_finite() && b > 0.0, "{}: bound {b}", case.display);
            }
            out_summary.push(format!(
                "{} {}(k={})",
                o.tensor,
                o.verdict.class.tag(),
                o.verdict.k
            ));
        }

        let overhead = delta.max(0.0) / t_off.as_secs_f64().max(1e-9);
        let budget = (t_off.as_secs_f64() * 0.05).max(1e-3);
        let ok = delta <= budget;
        if !ok {
            violations.push(format!(
                "{}: off {} vs on {} ({:+.1}%)",
                case.display,
                secs(t_off),
                secs(t_on),
                overhead * 100.0
            ));
        }

        rows.push(vec![
            case.display.clone(),
            secs(t_off),
            secs(t_on),
            format!("{:.1}%", overhead * 100.0),
            format!("{:.0}ms", cold_delta.max(0.0) * 1e3),
            out_summary.join(", "),
            if ok { "ok".into() } else { "OVER".into() },
        ]);
        let mut rec = report.case(
            &case.display,
            &fp,
            if ok { "ok" } else { "over-budget" },
            t_on,
        );
        rec.extra
            .insert("off_ms".into(), format!("{:.3}", t_off.as_secs_f64() * 1e3));
        rec.extra
            .insert("overhead_pct".into(), format!("{:.2}", overhead * 100.0));
        rec.extra.insert(
            "cold_ms".into(),
            format!("{:.3}", cold_delta.max(0.0) * 1e3),
        );
        rec.extra.insert("outputs".into(), out_summary.join(", "));
        report.cases.push(rec);
    }

    print_table(
        &[
            "workload",
            "analysis off",
            "analysis on",
            "overhead",
            "cold",
            "output verdicts",
            "gate",
        ],
        &rows,
    );

    report.write("num");

    assert!(
        violations.is_empty(),
        "numeric-analysis overhead exceeded max(5%, 1ms):\n  {}",
        violations.join("\n  ")
    );
}
