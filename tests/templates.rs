//! End-to-end pins for replay of repeated structure: every repeated `G_s`
//! operator replays through the one concrete saturation memo.
//!
//! 1. **Replay at depth** — the deep-model builders verify, and deeper
//!    models replay earlier layers instead of posing new saturation
//!    problems.
//! 2. **The MoE tally** — `moe_tpsp2`'s eight experts differ in their gate
//!    slices' bounds, so the memo hit and miss counts there are pinned
//!    exactly.

use entangle::{check_refinement, CheckOptions};
use entangle_bench::{llama_workload, moe_deep_workload, qwen2_workload, zoo, Workload};

#[test]
fn depth_adds_memo_hits_not_problems() {
    let deep: [Workload; 4] = [
        llama_workload(8, 8),
        llama_workload(8, 4),
        qwen2_workload(8, 8),
        moe_deep_workload(2, 2),
    ];
    // Per workload: (memo misses, memo hits).
    let mut tallies = Vec::new();
    for w in &deep {
        let ri = w.dist.relation(&w.gs).expect("relation builds");
        let o = check_refinement(&w.gs, &w.dist.graph, &ri, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        tallies.push((o.par.cache_misses, o.par.cache_hits));
    }
    // Depth adds replays, not saturation problems: twice the layers pose
    // no new canonical problem (equal misses) and every added operator is
    // a memo hit. Fails if the memo stops amortising across layers.
    let (l8, l4) = (tallies[0], tallies[1]);
    assert_eq!(l8.0, l4.0, "Llama tp8: 8 layers solve more than 4 do");
    assert!(l8.1 > l4.1, "Llama tp8: memo hits {l4:?} -> {l8:?}");
}

#[test]
fn moe_experts_replay_through_the_memo() {
    let case = zoo()
        .into_iter()
        .find(|c| c.name == "moe_tpsp2")
        .expect("moe_tpsp2 is in the workload zoo");
    let ri = case.dist.relation(&case.gs).expect("relation builds");
    let o = check_refinement(&case.gs, &case.dist.graph, &ri, &CheckOptions::default())
        .expect("moe_tpsp2 verifies");
    assert_eq!(
        (o.par.cache_hits, o.par.cache_misses),
        (25, 42),
        "moe_tpsp2: memo (hits, misses) moved"
    );
}
