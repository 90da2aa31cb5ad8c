//! Criterion bench for Figure 3: end-to-end verification time per model
//! (parallelism 2, one layer).

use criterion::{criterion_group, criterion_main, Criterion};
use entangle_bench::{
    gpt_workload, llama_workload, moe_workload, qwen2_workload, regression_workload,
    saturation_opts,
};

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_verification_time");
    group.sample_size(10);
    let workloads = vec![
        gpt_workload(2, 1),
        llama_workload(2, 1),
        qwen2_workload(2, 1),
        moe_workload(2, false),
        regression_workload(2),
    ];
    for w in workloads {
        let ri = w.dist.relation(&w.gs).expect("relation builds");
        group.bench_function(&w.name, |b| {
            b.iter(|| {
                entangle::check_refinement(&w.gs, &w.dist.graph, &ri, &saturation_opts())
                    .expect("verifies")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
