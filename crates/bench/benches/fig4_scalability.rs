//! Criterion bench for Figure 4: verification time vs parallelism size and
//! layer count (GPT under TP+SP+VP; Llama-3 under TP).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use entangle_bench::{gpt_workload, llama_workload, saturation_opts};

fn bench_scalability(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_scalability");
    group.sample_size(10);
    for par in [2usize, 4] {
        for layers in [1usize, 2] {
            for (model, w) in [
                ("gpt", gpt_workload(par, layers)),
                ("llama3", llama_workload(par, layers)),
            ] {
                let ri = w.dist.relation(&w.gs).expect("relation builds");
                group.bench_with_input(
                    BenchmarkId::new(model, format!("par{par}_l{layers}")),
                    &w,
                    |b, w| {
                        b.iter(|| {
                            entangle::check_refinement(
                                &w.gs,
                                &w.dist.graph,
                                &ri,
                                &saturation_opts(),
                            )
                            .expect("verifies")
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
