//! Regression pin for the cold numeric stage.
//!
//! `entangle_num::analyze_certificate` is what a cold `entangle check`
//! spends most of its time in (`stage:numeric`, 86–98 % of every verifying
//! check before PR 13). What keeps it cheap: every distinct subterm of the
//! proof-step terms is evaluated once through one hash-consed table
//! (adjacent terms differ in one small subterm), the element kernels index
//! flat storage without allocating, the arena interns 16-byte nodes
//! through one open-addressing table sized once from the graph's shapes,
//! matmul looks each (row, column) dot product up before folding it, and
//! the difference classifier reuses its containers from pair to pair.
//! Together they took the first-in-process analysis of `gpt_tp2` from
//! ~770 ms to 70–120 ms (release, 2-core box); the `benchmark/` rows
//! `num.analyze_ms` and `core.stage_numeric_ms` on `zoo_tp2` and `gpt_tp8`
//! are the measured cold figure this test guards.
//!
//! None of that may change *which* nodes the arena holds or in what order:
//! `classify_diff` expands "largest id first", so the derived `k` depends
//! on the interning order. The structural assertions — final arena size,
//! bytes per node (nodes, intern slots and side tables: ≈ 29 measured on
//! `gpt_tp2`, ≈ 31 on the `gpt_tp8` input, 60 before the nodes shrank) and
//! the output verdict of the two pinned workloads — always run. The
//! time budget is asserted only in release builds, on the *uncached* entry
//! point so the process-global analysis memo cannot make it warm, with the
//! same ~3x headroom `tests/ematch_perf.rs` leaves itself on this noisy box.

use std::time::{Duration, Instant};

use entangle::{check_refinement, CheckOptions, NumClass};
use entangle_bench::{gpt_workload, zoo};
use entangle_ir::Graph;
use entangle_parallel::Distributed;

/// Certifies the pair without the numeric stage, analyzes the certificate
/// cold, and checks the pinned arena size and `logits` verdict. Returns
/// the analysis time.
fn analyze_pinned(name: &str, gs: &Graph, dist: &Distributed, nodes: usize, k: u64) -> Duration {
    let ri = dist.relation(gs).expect("relation builds");
    let opts = CheckOptions {
        jobs: 1,
        numeric: false,
        ..CheckOptions::default()
    };
    let cert = check_refinement(gs, &dist.graph, &ri, &opts)
        .unwrap_or_else(|e| panic!("{name} fails to verify: {e}"))
        .certificate
        .expect("certify is on by default");

    let start = Instant::now();
    let analysis = entangle_num::analyze_certificate(&cert, gs, &dist.graph);
    let elapsed = start.elapsed();

    assert!(analysis.is_clean(), "{name}: {}", analysis.render());
    assert_eq!(
        analysis.arena_nodes, nodes,
        "{name}: the analysis interned a different set of nodes"
    );
    let logits = analysis.output_verdict("logits").expect("logits output");
    assert_eq!((logits.class, logits.k), (NumClass::Reassoc, k), "{name}");
    assert!(
        analysis.arena_bytes <= 44 * analysis.arena_nodes,
        "{name}: {} bytes for {} nodes",
        analysis.arena_bytes,
        analysis.arena_nodes
    );
    assert!(
        analysis.subterm_hits > analysis.subterms,
        "{name}: the subterm table did not engage ({} hits over {} subterms)",
        analysis.subterm_hits,
        analysis.subterms
    );
    elapsed
}

#[test]
fn cold_analysis_keeps_its_arena_and_stays_under_budget() {
    // First analysis in this process: nothing is warm.
    let tp2 = zoo()
        .into_iter()
        .find(|c| c.name == "gpt_tp2")
        .expect("gpt_tp2 is in the workload zoo");
    let elapsed = analyze_pinned("gpt_tp2", &tp2.gs, &tp2.dist, 714_050, 128);
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < Duration::from_millis(350),
            "cold gpt_tp2 numeric analysis regressed: {elapsed:?} (budget 350 ms); \
             check the subterm table, the capacity hint, the dot-product memo, and the \
             classifier's scratch reuse"
        );
    }
    // The `gpt_tp8` benchmark input.
    let tp8 = gpt_workload(8, 2);
    analyze_pinned("gpt_tp8", &tp8.gs, &tp8.dist, 1_429_442, 2070);
}
