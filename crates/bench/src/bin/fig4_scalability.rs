//! Figure 4: verification time vs parallelism size and layer count.
//!
//! The paper sweeps parallelism {2,4,8} × layers for GPT (TP+SP+VP) and
//! Llama-3 (TP), finding time linear in depth but superlinear in
//! parallelism width (wider graphs make each per-operator step costlier).
//! Llama-3 has no parallelism-6 point because 6 does not divide the model's
//! dimensions — our builders panic on the same condition. The sweep goes one
//! step wider than the paper's, to 16, on [`scaled_config`]: the benchmark
//! configuration's 8 heads do not divide 16.

use entangle_bench::{
    bench_config, gpt_workload_of, llama_workload_of, print_table, scaled_config, secs, Workload,
};
use entangle_models::ModelConfig;

fn sweep(name: &str, make: impl Fn(&ModelConfig, usize) -> Workload) {
    println!("\n{name}: verification time (s) by parallelism x layers");
    let opts = entangle_bench::saturation_opts();
    let layer_counts = [1usize, 2, 4];
    let mut rows = Vec::new();
    for par in [2usize, 4, 8, 16] {
        let cfg = if par <= 8 {
            bench_config()
        } else {
            scaled_config(par)
        };
        let mut row = vec![format!("par={par}")];
        for &layers in &layer_counts {
            let w = make(&cfg.with_layers(layers), par);
            let (_, elapsed) = w.check(&opts);
            row.push(secs(elapsed));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("".to_owned())
        .chain(layer_counts.iter().map(|l| format!("{l} layer(s)")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);
}

fn main() {
    println!("Figure 4: scalability of parallelized-model verification");
    sweep("GPT (TP+SP+VP)", gpt_workload_of);
    sweep("Llama-3 (TP)", llama_workload_of);
    println!("\nExpected shape: roughly linear in layers, superlinear in parallelism.");
    println!("(Parallelism 6 is absent: it does not divide the model dimensions.)");
    println!(
        "(par=16 runs on a scaled configuration — batch 2, seq 32, hidden 64, 16 heads, \
         vocab 64, ffn 128 — since 16 does not divide the 8 heads of the others.)"
    );
}
