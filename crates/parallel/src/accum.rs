//! Gradient accumulation for the regression workload (Table 2's
//! HuggingFace-trainer row).

use entangle_ir::{DType, GraphBuilder, Op, TensorId};
use entangle_models::RegressionConfig;

use crate::dist::{join_shards, Distributed};

/// Splits the batch into `microbatches` and accumulates per-microbatch
/// losses, scaled by `1/microbatches` — the correct discipline whose absence
/// is Bug 6.
///
/// Set `scaled` to `false` to reproduce the bug (the raw sum of microbatch
/// losses, which is `M×` the sequential loss).
///
/// # Panics
///
/// Panics when the batch does not divide evenly.
pub fn grad_accumulation(cfg: &RegressionConfig, microbatches: usize, scaled: bool) -> Distributed {
    assert!(microbatches >= 1);
    assert_eq!(cfg.batch % microbatches, 0, "batch must divide evenly");
    let (n, f) = (cfg.batch as i64, cfg.features as i64);
    let m = microbatches as i64;
    let nm = n / m;

    let mut g = GraphBuilder::new(if scaled {
        "regression-accum"
    } else {
        "regression-accum-unscaled"
    });
    let mut maps = Vec::new();
    let w = g.input("w", &[f, 1], DType::F32);
    let b = g.input("b", &[1], DType::F32);
    maps.push(("w".to_owned(), "w".to_owned()));
    maps.push(("b".to_owned(), "b".to_owned()));

    let mut losses: Vec<TensorId> = Vec::with_capacity(microbatches);
    for i in 0..microbatches {
        let x = g.input(&format!("x.{i}"), &[nm, f], DType::F32);
        let y = g.input(&format!("y.{i}"), &[nm, 1], DType::F32);
        let xw = g
            .apply(&format!("xw.{i}"), Op::Matmul, &[x, w])
            .expect("valid");
        let pred = g
            .apply(&format!("pred.{i}"), Op::Add, &[xw, b])
            .expect("valid");
        losses.push(
            g.apply(&format!("loss.{i}"), Op::MseLoss, &[pred, y])
                .expect("valid"),
        );
    }
    maps.push(("x".to_owned(), join_shards("x", microbatches, 0)));
    maps.push(("y".to_owned(), join_shards("y", microbatches, 0)));

    let mut acc = losses[0];
    for (i, &l) in losses.iter().enumerate().skip(1) {
        acc = g
            .apply(&format!("acc.{i}"), Op::Add, &[acc, l])
            .expect("valid");
    }
    let total = if scaled && microbatches > 1 {
        g.apply("total", Op::ScalarMul { numer: 1, denom: m }, &[acc])
            .expect("valid")
    } else {
        acc
    };
    g.mark_output(total);
    Distributed {
        declared: Vec::new(),
        graph: g.finish().expect("accumulation graph must validate"),
        input_maps: maps,
    }
}
