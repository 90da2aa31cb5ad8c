//! Regression pin for compiled e-matching on the deep GPT point.
//!
//! The deep fig4 workloads spend most of their wall clock in the
//! saturation loop, and before compiled e-matching the search phase paid a
//! full per-rule recursive traversal of the e-graph on every iteration:
//! GPT par=8 at 4 layers took ~1.14 s at the PR 9 baseline. The shared
//! discrimination-tree matcher (one traversal serves the whole corpus),
//! the arena-flattened e-graph tables, the union-find flattening pass, and
//! the symbolic-verdict memo brought that to ~0.29 s (release, best of
//! 3). The cold counterpart is the `benchmark/` row `core.stage_map_ms`
//! (with `egraph.search_ms` beside it) on `gpt_tp8`; this test guards it
//! in-process with ample noise headroom: the deep GPT check must stay
//! under 700 ms — roughly 2.4x the measured wall, and still well below
//! the old baseline.
//!
//! Timing is asserted only in release builds — debug builds are ~10x
//! slower and would make the bound meaningless — but the structural
//! assertions (verdict, compiled-matcher engagement, no time-limit stops)
//! always run.

use entangle::check_refinement_counted;
use entangle_bench::{gpt_workload, saturation_opts};
use entangle_egraph::StopReason;

#[test]
fn deep_gpt_par8_check_stays_under_budget_with_compiled_matching() {
    let w = gpt_workload(8, 4);
    let opts = saturation_opts();
    let ri = w.dist.relation(&w.gs).expect("relation builds");
    let start = std::time::Instant::now();
    let (outcome, snap) = check_refinement_counted(&w.gs, &w.dist.graph, &ri, &opts);
    let mut elapsed = start.elapsed();
    let outcome = outcome.expect("deep GPT par=8 verifies");

    // The compiled matcher must actually engage.
    assert!(
        snap.gauges.get("ematch.trie.nodes").copied().unwrap_or(0) > 0,
        "compiled matcher did not engage: ematch.trie.nodes gauge is empty"
    );
    assert!(
        snap.counters
            .get("ematch.candidates.visited")
            .copied()
            .unwrap_or(0)
            > 0,
        "compiled matcher did not engage: no candidates visited"
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

    // The actual perf pin, release builds only, best of 3.
    if !cfg!(debug_assertions) {
        for _ in 0..2 {
            let (_, _, d) = w.check(&opts);
            elapsed = elapsed.min(d);
        }
        assert!(
            elapsed < std::time::Duration::from_millis(700),
            "deep GPT par=8 check regressed: {elapsed:?} (budget 700 ms); \
             check the compiled matcher, the e-graph arena tables, and the \
             symbolic-verdict memo"
        );
    }
}
