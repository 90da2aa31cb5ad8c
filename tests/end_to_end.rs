//! Workspace-level integration: zoo models → distribution strategies →
//! refinement checking, exercised entirely through the public API.

use entangle::{check_refinement, CheckOptions};
use entangle_models::{gpt, llama3, qwen2, Arch, ModelConfig};
use entangle_parallel::{parallelize, Distributed, Strategy};

fn check(gs: &entangle_ir::Graph, dist: &Distributed) -> entangle::CheckOutcome {
    let ri = dist.relation(gs).expect("relation builds");
    check_refinement(gs, &dist.graph, &ri, &CheckOptions::default())
        .unwrap_or_else(|e| panic!("{} should refine: {e}", dist.graph.name()))
}

#[test]
fn every_zoo_model_verifies_under_tp2() {
    let cfg = ModelConfig::tiny();
    for (gs, arch) in [
        (gpt(&cfg), Arch::Gpt),
        (llama3(&cfg), Arch::Llama),
        (qwen2(&cfg), Arch::Qwen2),
    ] {
        let dist = parallelize(&cfg, arch, &Strategy::tp(2));
        let outcome = check(&gs, &dist);
        assert!(outcome.output_relation.is_complete_for(gs.outputs()));
        // Every intermediate G_s tensor got a clean mapping too.
        for node in gs.nodes() {
            assert!(
                outcome.full_relation.contains(node.output),
                "{}: no mapping for {}",
                gs.name(),
                node.name
            );
        }
    }
}

#[test]
fn verification_time_grows_with_operator_count() {
    // The Figure 3 correlation, as a coarse integration check: more layers,
    // more per-op reports, more total time.
    let cfg = ModelConfig::tiny();
    let run = |layers: usize| {
        let cfg = cfg.with_layers(layers);
        let gs = gpt(&cfg);
        let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));
        let start = std::time::Instant::now();
        let outcome = check(&gs, &dist);
        (outcome.op_reports.len(), start.elapsed())
    };
    let (ops1, _t1) = run(1);
    let (ops3, _t3) = run(3);
    assert!(ops3 > 2 * ops1);
}

#[test]
fn lemma_stats_are_collected_per_model() {
    let check = |gs: &entangle_ir::Graph, dist: &Distributed| {
        let ri = dist.relation(gs).expect("relation builds");
        check_refinement(gs, &dist.graph, &ri, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{} should refine: {e}", dist.graph.name()))
    };
    let cfg = ModelConfig::tiny();
    let gs = llama3(&cfg);
    let dist = parallelize(&cfg, Arch::Llama, &Strategy::tp(2));
    let outcome = check(&gs, &dist);
    // The HLO-category rope lemma family must fire for a rope model.
    let rope_apps: u64 = outcome
        .lemma_stats
        .iter()
        .filter(|(name, _)| name.starts_with("rope"))
        .map(|(_, c)| c)
        .sum();
    assert!(rope_apps > 0, "rope lemmas should be applied for Llama");
    // GPT (no rope op) must not fire rope lemmas.
    let gs = gpt(&cfg);
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));
    let outcome = check(&gs, &dist);
    let rope_apps: u64 = outcome
        .lemma_stats
        .iter()
        .filter(|(name, _)| name.starts_with("rope"))
        .map(|(_, c)| c)
        .sum();
    assert_eq!(rope_apps, 0, "GPT applies no rope lemmas");
}

#[test]
fn wrong_input_relation_is_a_detected_bug() {
    // Swapping weight shards in R_i makes the implementation wrong w.r.t.
    // the stated distribution — the checker must notice.
    let cfg = ModelConfig::tiny();
    let gs = gpt(&cfg);
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));
    let mut ri = entangle::Relation::builder(&gs, &dist.graph);
    for (name, expr) in &dist.input_maps {
        if name == "L0.w2" {
            // Reverse the row shards of the MLP down-projection.
            ri.map(name, "(concat L0.w2.1 L0.w2.0 0)").unwrap();
        } else {
            ri.map(name, expr).unwrap();
        }
    }
    let err = check_refinement(&gs, &dist.graph, &ri.build(), &CheckOptions::default());
    assert!(err.is_err(), "shard swap must break refinement");
}

#[test]
fn strategy_matrix_verifies() {
    // A broad strategy × architecture matrix at degree 2 and 4 — the
    // workspace-level version of the paper's "can be applied to others"
    // claim (§6.1).
    let cfg = ModelConfig {
        seq: 16,
        hidden: 32,
        heads: 8,
        ffn: 64,
        ..ModelConfig::tiny()
    };
    let cases: Vec<(Arch, Strategy)> = vec![
        (Arch::Gpt, Strategy::tp(2)),
        (Arch::Gpt, Strategy::tp_sp(2)),
        (Arch::Gpt, Strategy::tp_sp_vp(4)),
        (Arch::Llama, Strategy::tp(4)),
        (Arch::Llama, Strategy::tp_sp(2)),
        (Arch::Qwen2, Strategy::tp_sp(2)),
    ];
    for (arch, strategy) in cases {
        let gs = match arch {
            Arch::Gpt => gpt(&cfg),
            Arch::Llama => llama3(&cfg),
            Arch::Qwen2 => qwen2(&cfg),
        };
        let dist = parallelize(&cfg, arch, &strategy);
        let ri = dist
            .relation(&gs)
            .unwrap_or_else(|e| panic!("{arch:?}/{strategy:?}: relation failed: {e}"));
        check_refinement(&gs, &dist.graph, &ri, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{arch:?}/{strategy:?} should refine: {e}"));
    }
}
