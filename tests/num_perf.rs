//! Regression pin for the cold numeric stage.
//!
//! `entangle_num::analyze_certificate` runs once per verifying `entangle
//! check` (`stage:numeric`). What keeps it cheap is that its work scales
//! with the distinct rule instances of a certificate, not with `G_d`: no
//! `G_d` tensor is evaluated, a `Rule` step is classified once per key —
//! lemma, direction, and both terms with the lemma's bindings and every
//! other `G_d` leaf opaque atoms of their shapes — a `Congruence` step
//! composes its sub-proofs, and a `Given` step is a lookup. A key whose
//! two sides hash alike element by element is bit-exact without touching
//! the arena; one that does not is evaluated into it, where a matmul
//! element is one `Dot` node, a split contraction cancels as whole `Sum`
//! segments, and element pairs of one shape are classified once.
//!
//! What is pinned, and always runs: the `logits` verdict of the two
//! workloads below — class and `k`, which depend on the order the
//! classifier expands in (`Arena::cand_key`) and on the mapping DAG the
//! verdicts compose over — with the rule steps, the distinct keys they
//! came down to, the subterms the keys' arena evaluation shared, and the
//! nodes the arena physically holds; that the 16-layer Llama, which left
//! the model while `G_d` was pre-evaluated, reads `reassoc` with its
//! bound flagged as too loose to mean anything; and `logits` `k` over
//! depth. In release builds only: the time budget, on the *uncached* entry
//! point so the process-global analysis memo cannot make it warm, with the
//! same ~3x headroom `tests/ematch_perf.rs` leaves itself on this noisy
//! box.

use std::time::{Duration, Instant};

use entangle::{check_refinement, CheckOptions, NumClass, Verdict};
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

/// The counts [`analyze_pinned`] holds an analysis to.
struct Pins {
    rule_steps: usize,
    rule_keys: usize,
    subterms: usize,
    subterm_hits: usize,
    arena_nodes: usize,
    k: u64,
}

/// [`analyze_cold`], checked against its pins and the `logits` verdict.
fn analyze_pinned(name: &str, gs: &Graph, dist: &Distributed, pins: Pins) -> Duration {
    let (analysis, elapsed) = analyze_cold(name, gs, dist);
    assert!(analysis.is_clean(), "{name}: {}", analysis.render());
    assert_eq!(
        (
            analysis.rule_steps,
            analysis.rule_keys,
            analysis.subterms,
            analysis.subterm_hits,
            analysis.arena_nodes
        ),
        (
            pins.rule_steps,
            pins.rule_keys,
            pins.subterms,
            pins.subterm_hits,
            pins.arena_nodes
        ),
        "{name}: (rule steps, distinct keys, subterms, subterm hits, arena nodes)"
    );
    assert_eq!(
        analysis.rule_hits + analysis.rule_keys,
        analysis.rule_steps,
        "{name}: every rule step is a key or a hit"
    );
    let logits = analysis.output_verdict("logits").expect("logits output");
    assert_eq!(
        (logits.class, logits.k),
        (NumClass::Reassoc, pins.k),
        "{name}"
    );
    assert!(
        analysis.sum_atoms > 0,
        "{name}: no split contraction cancelled as whole segments"
    );
    assert!(
        analysis.arena_bytes <= 44 * analysis.arena_nodes,
        "{name}: {} bytes for {} nodes",
        analysis.arena_bytes,
        analysis.arena_nodes
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
    let pins = Pins {
        rule_steps: 17,
        rule_keys: 8,
        subterms: 22,
        subterm_hits: 10,
        arena_nodes: 14_339,
        k: 96,
    };
    let elapsed = analyze_pinned("gpt_tp2", &tp2.gs, &tp2.dist, pins);
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < Duration::from_millis(350),
            "cold gpt_tp2 numeric analysis regressed: {elapsed:?} (budget 350 ms); \
             check the rule-step keys, the hash pass, what unfolds a `Dot`, and the \
             pair-shape memo"
        );
    }
    // The `gpt_tp8` benchmark input.
    let tp8 = gpt_workload(8, 2);
    let pins = Pins {
        rule_steps: 717,
        rule_keys: 82,
        subterms: 97,
        subterm_hits: 127,
        arena_nodes: 61_187,
        k: 2_016,
    };
    analyze_pinned("gpt_tp8", &tp8.gs, &tp8.dist, pins);

    // The `llama_deep` benchmark input, which left the model while `G_d`
    // was pre-evaluated: it reads `reassoc` now, with no note that a step
    // left the model. Each of its sixteen blocks multiplies what its
    // residual carries by at least six (attention reads it three times,
    // `gate · up` twice), so the worst-case count is past `K_LOOSE`, and
    // that is said (NU03).
    let deep = llama_workload(8, 16);
    let (analysis, _) = analyze_cold("llama3_tp8_l16", &deep.gs, &deep.dist);
    let notes: Vec<&str> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.code == entangle_lint::codes::NUM_UNCLASSIFIED)
        .map(|d| d.message.as_str())
        .collect();
    assert!(notes.is_empty(), "{notes:?}");
    let logits = analysis.output_verdict("logits").expect("logits output");
    assert_eq!(
        (logits.class, logits.k),
        (NumClass::Reassoc, 126_385_723_853_984)
    );
    assert!(
        analysis
            .diagnostics
            .iter()
            .any(|d| d.code == entangle_lint::codes::NUM_LOOSE_BOUND
                && d.message.starts_with("mapping logits:")),
        "{}",
        analysis.render()
    );
}

/// The `logits` verdict of a check of `gpt_workload(8, layers)`.
fn gpt_logits(layers: usize) -> Verdict {
    let w = gpt_workload(8, layers);
    let (analysis, _) = analyze_cold(&format!("gpt_tp8_l{layers}"), &w.gs, &w.dist);
    assert!(analysis.is_clean(), "{}", analysis.render());
    *analysis.output_verdict("logits").expect("logits output")
}

#[test]
fn numeric_verdicts_survive_depth() {
    // Every depth reads `reassoc`. Attention reads its normed input three
    // times (`q`, `k`, `v`), so each block multiplies what its residual
    // carries: `k` grows geometrically, and stays a usable bound at four
    // blocks.
    let ks = [1, 2, 4].map(|layers| {
        let v = gpt_logits(layers);
        assert_eq!(v.class, NumClass::Reassoc, "gpt_tp8_l{layers}");
        v.k
    });
    assert_eq!(ks, [336, 2_016, 22_176], "logits k at 1, 2 and 4 blocks");
    assert!(ks[2] < entangle_num::K_LOOSE);
}
