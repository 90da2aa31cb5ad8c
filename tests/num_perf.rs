//! Regression pin for the cold numeric stage.
//!
//! `entangle_num::analyze_certificate` is what a cold `entangle check`
//! spends most of its time in (`stage:numeric`, 86–98 % of every verifying
//! check before PR 13). What keeps it cheap: every distinct subterm of the
//! proof-step terms is evaluated once through one hash-consed table
//! (adjacent terms differ in one small subterm), the element kernels index
//! flat storage without allocating, the arena interns 16-byte nodes
//! through one open-addressing table sized from the graph's shapes, a
//! matmul element is one `Dot` node that only a proof step reassociating
//! it ever unfolds, and the difference classifier reuses its containers
//! from pair to pair. Together they took the first-in-process analysis of
//! `gpt_tp2` from ~770 ms to 25–40 ms (release, 2-core box); the
//! `benchmark/` rows `num.analyze_ms` and `core.stage_numeric_ms` on
//! `zoo_tp2` and `gpt_tp8` are the measured cold figure this test guards.
//!
//! What is pinned, and always runs: the `logits` verdict of the two
//! workloads below — class and `k`, which depend on the order the
//! classifier expands in (`Arena::cand_key`) and on which `Dot` is still
//! whole when a longer one unfolds — with the nodes the arena physically
//! holds (the storage the stage pays for) and its bytes per node (nodes,
//! intern slots and side tables: ≈ 36 measured on `gpt_tp2`, ≈ 31 on the
//! `gpt_tp8` input); and where the model ends — the 16-layer Llama leaves
//! it during `G_d` pre-evaluation at the count of *modelled operations* it
//! always did (a `Dot` counts as the `2K − 1` multiply-adds it stands
//! for), however few nodes now store them. The time budget is asserted
//! only in release builds, on the *uncached* entry point so the
//! process-global analysis memo cannot make it warm, with the same ~3x
//! headroom `tests/ematch_perf.rs` leaves itself on this noisy box.

use std::time::{Duration, Instant};

use entangle::{check_refinement, CheckOptions, NumClass};
use entangle_bench::{gpt_workload, llama_workload, zoo};
use entangle_ir::Graph;
use entangle_num::CertAnalysis;
use entangle_parallel::Distributed;

/// Certifies the pair without the numeric stage and analyzes the
/// certificate cold. Returns the analysis and the time it took.
fn analyze_cold(name: &str, gs: &Graph, dist: &Distributed) -> (CertAnalysis, Duration) {
    let ri = dist.relation(gs).expect("relation builds");
    let opts = CheckOptions {
        numeric: false,
        ..CheckOptions::default()
    };
    let cert = check_refinement(gs, &dist.graph, &ri, &opts)
        .unwrap_or_else(|e| panic!("{name} fails to verify: {e}"))
        .certificate
        .expect("certify is on by default");

    let start = Instant::now();
    let analysis = entangle_num::analyze_certificate(&cert, gs, &dist.graph);
    (analysis, start.elapsed())
}

/// [`analyze_cold`], checked against the pinned arena size and `logits`
/// verdict.
fn analyze_pinned(name: &str, gs: &Graph, dist: &Distributed, nodes: usize, k: u64) -> Duration {
    let (analysis, elapsed) = analyze_cold(name, gs, dist);
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
    let elapsed = analyze_pinned("gpt_tp2", &tp2.gs, &tp2.dist, 146_754, 128);
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < Duration::from_millis(350),
            "cold gpt_tp2 numeric analysis regressed: {elapsed:?} (budget 350 ms); \
             check the subterm table, the capacity hint, what unfolds a `Dot`, and the \
             classifier's scratch reuse"
        );
    }
    // The `gpt_tp8` benchmark input.
    let tp8 = gpt_workload(8, 2);
    analyze_pinned("gpt_tp8", &tp8.gs, &tp8.dist, 436_162, 2304);

    // The `llama_deep` benchmark input: `G_d` alone stands for more than
    // `ARENA_CAP` operations. That count is the cap's, taken as the arena
    // interns, and must not move with how a matmul element is stored.
    let deep = llama_workload(8, 16);
    let (analysis, _) = analyze_cold("llama3_tp8_l16", &deep.gs, &deep.dist);
    let notes: Vec<&str> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.code == entangle_lint::codes::NUM_UNCLASSIFIED)
        .map(|d| d.message.as_str())
        .collect();
    assert_eq!(
        notes,
        ["G_d pre-evaluation (4006546 nodes) left the model: arena node cap exceeded"]
    );
    assert_eq!(analysis.modelled_nodes, 4_006_546);
    assert!(
        analysis.arena_nodes < 1_000_000,
        "{} nodes stored",
        analysis.arena_nodes
    );
    let logits = analysis.output_verdict("logits").expect("logits output");
    assert_eq!(logits.class, NumClass::Unknown);
}
