//! Verify a Megatron-style tensor+sequence+vocab-parallel GPT against its
//! sequential specification — the paper's flagship workload (§6.3–6.4).
//!
//! Run with: `cargo run --example gpt_tensor_parallel [-- <tp> <layers>]`

use entangle::{check_refinement, CheckOptions};
use entangle_models::{gpt, Arch, ModelConfig};
use entangle_parallel::{parallelize, Strategy};

fn main() {
    let mut args = std::env::args().skip(1);
    let tp: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let layers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);

    let cfg = ModelConfig {
        layers,
        seq: 16,
        hidden: 32,
        heads: 8,
        ffn: 64,
        ..ModelConfig::tiny()
    };
    println!(
        "Building sequential GPT ({layers} layer(s), hidden {})...",
        cfg.hidden
    );
    let gs = gpt(&cfg);
    println!(
        "  G_s: {} operators, {} tensors",
        gs.num_nodes(),
        gs.num_tensors()
    );

    println!("Applying TP+SP+VP at degree {tp} (Megatron-style)...");
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp_sp_vp(tp));
    println!(
        "  G_d: {} operators, {} tensors, {} input mappings",
        dist.graph.num_nodes(),
        dist.graph.num_tensors(),
        dist.input_maps.len()
    );

    let ri = dist
        .relation(&gs)
        .expect("strategy emits a valid input relation");
    let start = std::time::Instant::now();
    let outcome = check_refinement(&gs, &dist.graph, &ri, &CheckOptions::default())
        .expect("the strategy output refines the model");
    println!(
        "\nRefinement verification succeeded in {:.3}s",
        start.elapsed().as_secs_f64()
    );

    println!("\nLogits reconstruction:");
    for &out in gs.outputs() {
        for m in outcome.output_relation.mappings(out).unwrap() {
            println!("  {} -> {m}", gs.tensor(out).name);
        }
    }

    println!("\nSlowest operators:");
    let mut reports = outcome.op_reports.clone();
    reports.sort_by_key(|r| std::cmp::Reverse(r.elapsed));
    for r in reports.iter().take(5) {
        println!(
            "  {:<24} {:>8.3}ms  ({} e-nodes, {} mappings)",
            r.name,
            r.elapsed.as_secs_f64() * 1e3,
            r.egraph_nodes,
            r.mappings
        );
    }

    println!("\nMost-applied lemmas:");
    let mut stats: Vec<(&str, u64)> = outcome.saturation.lemma_counts().collect();
    // Most applications first; equal counts by name, so the table does not
    // come out in hash order.
    stats.sort_by_key(|&(name, c)| (std::cmp::Reverse(c), name));
    for (name, count) in stats.iter().take(8) {
        println!("  {name:<32} {count}");
    }
}
