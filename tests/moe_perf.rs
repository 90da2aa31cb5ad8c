//! Regression pin for the MoE/TP-SP2 saturation outlier.
//!
//! `entangle trace moe-tpsp2` showed the per-expert gate slices and the
//! expert-weighted sums dominating the check: `scalar_mul-distribute` and
//! `scalar_mul-compose` re-found ~1.3M cumulative matches across 12
//! iterations while only ~33k applications changed the e-graph, because the
//! standard egg schedule re-discovers (and re-applies, as an expensive
//! no-op) every prior match each iteration. The cross-iteration apply-dedup
//! memo plus the cross-operator saturation cache brought the heaviest
//! operator from ~250 ms to under 200 ms (release). The cold counterpart
//! is the `benchmark/` row `core.stage_map_ms` (with `egraph.apply_ms` and
//! `egraph.useful_ratio` beside it) on `moe_ep`; this test guards it
//! in-process: with the cache enabled, no single MoE operator may spend
//! 500 ms or more in saturation again.
//!
//! Timing is asserted only in release builds — debug builds are ~10x
//! slower and would make the bound meaningless — but the structural
//! assertions (verdict, cache activity, no time-limit stops) always run.

use entangle::{check_refinement, CheckOptions};
use entangle_bench::zoo;
use entangle_egraph::StopReason;

#[test]
fn moe_per_op_saturation_stays_under_500ms_with_cache() {
    let case = zoo()
        .into_iter()
        .find(|c| c.name == "moe_tpsp2")
        .expect("moe_tpsp2 is in the workload zoo");
    let ri = case.dist.relation(&case.gs).expect("relation builds");
    let outcome = check_refinement(&case.gs, &case.dist.graph, &ri, &CheckOptions::default())
        .expect("moe_tpsp2 verifies");

    // The cross-operator cache must actually engage: the eight experts
    // share gate-projection / activation / down-projection structure.
    let par = &outcome.par;
    assert!(
        par.cache_hits > 0,
        "expected cross-operator cache hits on the repeated expert ops, got 0 \
         ({} misses)",
        par.cache_misses
    );

    // No operator may fall into the 10 s time-limit backstop.
    for r in &outcome.op_reports {
        assert_ne!(
            r.stop,
            Some(StopReason::TimeLimit),
            "operator {} hit the saturation time limit",
            r.name
        );
    }

    // The actual perf pin, release builds only.
    if !cfg!(debug_assertions) {
        let mut worst: Option<&entangle::OpReport> = None;
        for r in &outcome.op_reports {
            if worst.is_none_or(|w| r.elapsed > w.elapsed) {
                worst = Some(r);
            }
        }
        let worst = worst.expect("op reports are non-empty");
        assert!(
            worst.elapsed < std::time::Duration::from_millis(500),
            "MoE per-op saturation regressed: {} took {:?} (budget 500 ms); \
             check the apply-dedup memo and the cross-operator cache",
            worst.name,
            worst.elapsed
        );
    }
}
