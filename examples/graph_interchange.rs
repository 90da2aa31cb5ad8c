//! The foreign-IR bridge: serialize computation graphs to the JSON
//! interchange format and verify graphs loaded back from it.
//!
//! This plays the role of the paper's §5 translation utility (the 377 lines
//! of Python converting XLA/HLO output into the tool's intermediate format):
//! any front end that can emit this JSON can be checked.
//!
//! Run with: `cargo run --example graph_interchange`

use entangle::{check_refinement, CheckOptions};
use entangle_ir::Graph;
use entangle_models::{llama3, Arch, ModelConfig};
use entangle_parallel::{parallelize, Strategy};

fn main() {
    let cfg = ModelConfig::tiny();
    let gs = llama3(&cfg);
    let dist = parallelize(&cfg, Arch::Llama, &Strategy::tp(2));

    // Serialize both graphs — this is what a TorchDynamo/XLA exporter would
    // hand to the checker.
    let gs_json = gs.to_json().expect("serializes");
    let gd_json = dist.graph.to_json().expect("serializes");
    println!(
        "serialized G_s: {} bytes, G_d: {} bytes",
        gs_json.len(),
        gd_json.len()
    );

    // Load them back (with full validation) and verify as usual.
    let gs2 = Graph::from_json(&gs_json).expect("G_s roundtrips");
    let gd2 = Graph::from_json(&gd_json).expect("G_d roundtrips");
    assert_eq!(gs2.num_nodes(), gs.num_nodes());

    let mut ri = entangle::Relation::builder(&gs2, &gd2);
    for (name, expr) in &dist.input_maps {
        ri.map(name, expr)
            .expect("maps validate against loaded graphs");
    }
    let outcome = check_refinement(&gs2, &gd2, &ri.build(), &CheckOptions::default())
        .expect("loaded graphs verify");
    println!(
        "verification over deserialized graphs succeeded: {} outputs mapped, {} lemma applications",
        outcome.output_relation.len(),
        outcome.saturation.lemma_total()
    );

    // Corrupted interchange files are rejected with validation errors.
    let corrupt = gd_json.replacen("\"Matmul\"", "\"Gelu\"", 1);
    match Graph::from_json(&corrupt) {
        Err(e) => println!("corrupted graph correctly rejected: {e}"),
        Ok(_) => panic!("corrupted graph must not validate"),
    }
}
