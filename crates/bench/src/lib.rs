//! Shared harness utilities for regenerating the paper's evaluation
//! (Figures 3–6, Table 3) and the DESIGN.md ablations.
//!
//! The `reproduce` binary runs every section and writes its exact counts to
//! `results/reproduce.tsv`; `tests/reproduce.rs` checks the paper's claims
//! against that file. See EXPERIMENTS.md for the paper-vs-measured
//! comparison.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use entangle::{check_refinement_counted, CheckOptions, CheckOutcome, RefinementError};
use entangle_ir::Graph;
use entangle_metrics::Snapshot;
use entangle_models::{gpt, llama3, moe, qwen2, Arch, ModelConfig, MoeConfig, RegressionConfig};
use entangle_parallel::{grad_accumulation, parallelize, parallelize_moe, Distributed, Strategy};

/// A named verification workload: sequential model + distributed
/// implementation + strategy description.
pub struct Workload {
    /// Display name (Figure 3 x-axis label).
    pub name: String,
    /// The strategies applied, for display.
    pub strategies: &'static str,
    /// Sequential model.
    pub gs: Graph,
    /// Distributed implementation with its input maps.
    pub dist: Distributed,
}

impl Workload {
    /// Total operator count across both graphs (the parenthesized numbers
    /// of Figure 3).
    pub fn total_ops(&self) -> usize {
        self.gs.num_nodes() + self.dist.graph.num_nodes()
    }

    /// Runs the checker, returning its verdict, the check's metrics
    /// snapshot (kept on failure too) and the wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics if the workload's input relation does not build (a
    /// construction bug, not a verdict).
    pub fn check(
        &self,
        opts: &CheckOptions,
    ) -> (Result<CheckOutcome, RefinementError>, Snapshot, Duration) {
        let ri = self.dist.relation(&self.gs).expect("relation builds");
        let start = Instant::now();
        let (result, metrics) = check_refinement_counted(&self.gs, &self.dist.graph, &ri, opts);
        (result, metrics, start.elapsed())
    }
}

/// The benchmark model configuration: small enough for CI, large enough
/// that parallelism degree 8 divides every dimension.
pub fn bench_config() -> ModelConfig {
    ModelConfig {
        batch: 2,
        seq: 16,
        hidden: 32,
        heads: 8,
        layers: 1,
        vocab: 32,
        ffn: 64,
        causal: true,
    }
}

/// A one-layer configuration whose every dimension parallelism `par`
/// divides: batch 2, sequence `2·par`, hidden `4·par`, `par` heads,
/// vocabulary `4·par`, FFN `8·par`. [`bench_config`]'s 8 heads do not
/// divide 16, so Figure 4's widest row and the parallelism-16 tests use
/// this one.
pub fn scaled_config(par: usize) -> ModelConfig {
    ModelConfig {
        batch: 2,
        seq: 2 * par,
        hidden: 4 * par,
        heads: par,
        layers: 1,
        vocab: 4 * par,
        ffn: 8 * par,
        causal: true,
    }
}

/// The GPT workload at a given parallelism size and layer count
/// (TP + SP + VP, the paper's GPT configuration).
pub fn gpt_workload(par: usize, layers: usize) -> Workload {
    gpt_workload_of(&bench_config().with_layers(layers), par)
}

/// [`gpt_workload`] over the model configuration `cfg`.
pub fn gpt_workload_of(cfg: &ModelConfig, par: usize) -> Workload {
    let gs = gpt(cfg);
    let s = if par == 1 {
        Strategy::tp(1)
    } else {
        Strategy::tp_sp_vp(par)
    };
    let dist = if par == 1 {
        Distributed::identity(&gs)
    } else {
        parallelize(cfg, Arch::Gpt, &s)
    };
    Workload {
        name: format!("GPT(tp{par},l{})", cfg.layers),
        strategies: "TP+SP+VP",
        gs,
        dist,
    }
}

/// The Llama-3 workload (TP only, per Table 2).
pub fn llama_workload(par: usize, layers: usize) -> Workload {
    llama_workload_of(&bench_config().with_layers(layers), par)
}

/// [`llama_workload`] over the model configuration `cfg`.
pub fn llama_workload_of(cfg: &ModelConfig, par: usize) -> Workload {
    let gs = llama3(cfg);
    let dist = if par == 1 {
        Distributed::identity(&gs)
    } else {
        parallelize(cfg, Arch::Llama, &Strategy::tp(par))
    };
    Workload {
        name: format!("Llama-3(tp{par},l{})", cfg.layers),
        strategies: "TP",
        gs,
        dist,
    }
}

/// The Qwen2 workload (TP only, per Table 2).
pub fn qwen2_workload(par: usize, layers: usize) -> Workload {
    let cfg = bench_config().with_layers(layers);
    let gs = qwen2(&cfg);
    let dist = if par == 1 {
        Distributed::identity(&gs)
    } else {
        parallelize(&cfg, Arch::Qwen2, &Strategy::tp(par))
    };
    Workload {
        name: format!("Qwen2(tp{par},l{layers})"),
        strategies: "TP",
        gs,
        dist,
    }
}

/// The ByteDance-model stand-in: an MoE transformer under TP+SP+EP.
///
/// `backward` substitutes the paper's backward-pass graph with a deeper
/// forward graph of comparable operator count (the reproduction cannot
/// capture autograd graphs; see EXPERIMENTS.md).
pub fn moe_workload(par: usize, backward: bool) -> Workload {
    let cfg = MoeConfig {
        base: bench_config().with_layers(if backward { 2 } else { 1 }),
        experts: 8,
    };
    let gs = moe(&cfg);
    let dist = if par == 1 {
        Distributed::identity(&gs)
    } else {
        parallelize_moe(&cfg, &Strategy::tp_sp(par))
    };
    Workload {
        name: format!(
            "ByteDance-{}(tp{par})",
            if backward { "Bwd*" } else { "Fwd" }
        ),
        strategies: "TP+SP+EP",
        gs,
        dist,
    }
}

/// A deep MoE *stack* under TP+SP+EP: `layers` MoE layers, each with its
/// own router, experts and load-balance head (one of the deep builders
/// `tests/templates.rs` checks for memo replay at depth; `moe_workload`
/// keeps the paper's fixed 1/2-layer shapes).
pub fn moe_deep_workload(par: usize, layers: usize) -> Workload {
    let cfg = MoeConfig {
        base: bench_config(),
        experts: 8,
    }
    .with_layers(layers);
    let gs = moe(&cfg);
    let dist = if par == 1 {
        Distributed::identity(&gs)
    } else {
        parallelize_moe(&cfg, &Strategy::tp_sp(par))
    };
    Workload {
        name: format!("MoE(tp{par},l{layers})"),
        strategies: "TP+SP+EP",
        gs,
        dist,
    }
}

/// The HuggingFace regression workload (gradient accumulation).
pub fn regression_workload(microbatches: usize) -> Workload {
    let cfg = RegressionConfig {
        batch: 8,
        features: 4,
    };
    let gs = entangle_models::regression(&cfg);
    let dist = grad_accumulation(&cfg, microbatches, true);
    Workload {
        name: format!("HF-regression(m{microbatches})"),
        strategies: "grad-accum",
        gs,
        dist,
    }
}

/// One case of the 7-workload CLI/benchmark zoo.
pub struct ZooCase {
    /// File-stem name (`gpt_tp2`, matching `examples/graphs/<name>.*`).
    pub name: String,
    /// Sequential model.
    pub gs: Graph,
    /// Distributed implementation with its input maps.
    pub dist: Distributed,
}

/// The 7-workload zoo exercised by `export_zoo`, the CI sweeps, the golden
/// suites and `benchmark/`: GPT / Llama-3 / Qwen2 under TP2
/// and TP+SP2, plus the MoE model under TP+SP2, all at [`bench_config`].
pub fn zoo() -> Vec<ZooCase> {
    let cfg = bench_config();
    let mut cases = Vec::new();
    for (arch, stem, build) in [
        (Arch::Gpt, "gpt", gpt as fn(&ModelConfig) -> _),
        (Arch::Llama, "llama3", llama3 as fn(&ModelConfig) -> _),
        (Arch::Qwen2, "qwen2", qwen2 as fn(&ModelConfig) -> _),
    ] {
        for (sstem, strategy) in [("tp2", Strategy::tp(2)), ("tpsp2", Strategy::tp_sp(2))] {
            cases.push(ZooCase {
                name: format!("{stem}_{sstem}"),
                gs: build(&cfg),
                dist: parallelize(&cfg, arch, &strategy),
            });
        }
    }
    let moe_cfg = MoeConfig {
        base: cfg,
        experts: 8,
    };
    cases.push(ZooCase {
        name: "moe_tpsp2".to_owned(),
        gs: moe(&moe_cfg),
        dist: parallelize_moe(&moe_cfg, &Strategy::tp_sp(2)),
    });
    cases
}

/// The Figure 3 model suite at parallelism 2, one layer (§6.3 setup).
pub fn figure3_suite() -> Vec<Workload> {
    vec![
        moe_workload(2, false),
        moe_workload(2, true),
        gpt_workload(2, 1),
        llama_workload(2, 1),
        qwen2_workload(2, 1),
        regression_workload(2),
    ]
}

/// Renders an aligned text table, one line per row, each ending in a
/// newline. It returns the text rather than printing it, so a caller with
/// its own writer (the CLI's, which exits quietly on a closed stdout)
/// prints it.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = |cells: Vec<String>| {
        let mut text = String::new();
        for (i, c) in cells.iter().enumerate() {
            text.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        out.push_str(text.trim_end());
        out.push('\n');
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
    out
}

/// Options measuring the *saturation* pipeline alone (Listings 1-3): the
/// sharding pre-pass runs before saturation starts, and certificate
/// extraction + kernel re-checking adds work after it finishes — both are
/// exactly what the figure sections of `reproduce` are *not* timing. The
/// `benchmark/` rows `core.stage_shard_ms` and `core.stage_certify_ms`
/// measure them.
pub fn saturation_opts() -> CheckOptions {
    CheckOptions {
        shard: false,
        certify: false,
        ..CheckOptions::default()
    }
}

/// Formats a duration in seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_suite_builds() {
        // Full verification of the suite is minutes of work in debug mode;
        // `reproduce` runs it in release. Here we
        // only check the workloads construct and their relations validate.
        let suite = figure3_suite();
        assert_eq!(suite.len(), 6);
        for w in &suite {
            assert!(w.total_ops() > 0);
            w.dist.relation(&w.gs).expect("relation validates");
        }
    }

    #[test]
    fn lightest_workload_verifies() {
        let (outcome, _, _) = regression_workload(2).check(&CheckOptions::default());
        assert!(!outcome.expect("verifies").output_relation.is_empty());
    }

    #[test]
    fn workloads_scale_with_layers() {
        let w1 = gpt_workload(2, 1);
        let w2 = gpt_workload(2, 2);
        assert!(w2.total_ops() > w1.total_ops());
    }
}
