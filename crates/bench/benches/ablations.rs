//! Criterion bench for the DESIGN.md ablations: relation pruning and
//! certification.

use criterion::{criterion_group, criterion_main, Criterion};
use entangle::CheckOptions;
use entangle_bench::gpt_workload;

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    let w = gpt_workload(2, 1);
    let ri = w.dist.relation(&w.gs).expect("relation builds");

    let configs: Vec<(&str, CheckOptions)> = vec![
        ("frontier_iterative", entangle_bench::saturation_opts()),
        (
            "prune_to_1",
            CheckOptions {
                max_mappings: 1,
                ..entangle_bench::saturation_opts()
            },
        ),
        ("certified", CheckOptions::default()),
    ];
    for (name, opts) in configs {
        group.bench_function(name, |b| {
            b.iter(|| {
                entangle::check_refinement(&w.gs, &w.dist.graph, &ri, &opts).expect("verifies")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
