//! Data parallelism and pipeline parallelism.
//!
//! The paper could not evaluate either strategy — not because of any
//! limitation of the approach, but because TorchDynamo could not capture
//! their graphs ("DP is optimized with contiguous buffers … not exposed to
//! TorchDynamo; PP relies on intermediate leaf tensors … resulting in a
//! disconnected graph", §6.1). This reproduction builds the graphs
//! directly, so both strategies can be checked; this goes *beyond* the
//! paper's evaluation while staying squarely within its formalism.

use entangle_ir::{DType, GraphBuilder, Op, TensorId};
use entangle_models::{Arch, ModelConfig, RegressionConfig};

use crate::dist::{join_shards, Distributed};

/// Data parallelism over the regression *training step*: each replica
/// computes its loss and weight gradient on a batch shard; losses and
/// gradients are combined by weighted all-reduce (gradient averaging).
///
/// With equal shards of size `N/R`, the replica gradient `(2R/N)·xᵣᵀeᵣ`
/// averaged over `R` replicas equals the sequential `(2/N)·xᵀe` — the
/// correctness fact DP rests on (§2.1). Set `average` to `false` to inject
/// the classic DP bug: summing instead of averaging gradients.
///
/// # Panics
///
/// Panics when the batch does not divide evenly.
pub fn data_parallel(cfg: &RegressionConfig, replicas: usize, average: bool) -> Distributed {
    assert!(replicas >= 1);
    assert_eq!(cfg.batch % replicas, 0, "batch must divide by replicas");
    let (n, f) = (cfg.batch as i64, cfg.features as i64);
    let r = replicas as i64;
    let nm = n / r;

    let mut g = GraphBuilder::new(if average {
        "regression-dp"
    } else {
        "regression-dp-sum"
    });
    let mut maps = Vec::new();
    let w = g.input("w", &[f, 1], DType::F32);
    let b = g.input("b", &[1], DType::F32);
    maps.push(("w".to_owned(), "w".to_owned()));
    maps.push(("b".to_owned(), "b".to_owned()));

    let mut losses = Vec::with_capacity(replicas);
    let mut grads = Vec::with_capacity(replicas);
    for i in 0..replicas {
        let x = g.input(&format!("x.{i}"), &[nm, f], DType::F32);
        let y = g.input(&format!("y.{i}"), &[nm, 1], DType::F32);
        let xw = g
            .apply(&format!("xw.{i}"), Op::Matmul, &[x, w])
            .expect("valid");
        let pred = g
            .apply(&format!("pred.{i}"), Op::Add, &[xw, b])
            .expect("valid");
        let loss = g
            .apply(&format!("loss.{i}"), Op::MseLoss, &[pred, y])
            .expect("valid");
        let err = g
            .apply(&format!("err.{i}"), Op::Sub, &[pred, y])
            .expect("valid");
        let xt = g
            .apply(&format!("xT.{i}"), Op::Transpose { d0: 0, d1: 1 }, &[x])
            .expect("valid");
        let xte = g
            .apply(&format!("xTe.{i}"), Op::Matmul, &[xt, err])
            .expect("valid");
        let grad = g
            .apply(
                &format!("grad.{i}"),
                Op::ScalarMul {
                    numer: 2,
                    denom: nm,
                },
                &[xte],
            )
            .expect("valid");
        losses.push(loss);
        grads.push(grad);
    }
    maps.push(("x".to_owned(), join_shards("x", replicas, 0)));
    maps.push(("y".to_owned(), join_shards("y", replicas, 0)));

    // Loss: equal-share average of replica losses.
    let total_loss = weighted_average(&mut g, "loss", &losses, r, true);
    // Gradient: the all-reduce, averaged (correct) or raw-summed (buggy).
    let total_grad = weighted_average(&mut g, "grad_w", &grads, r, average);
    g.mark_output(total_loss);
    g.mark_output(total_grad);
    Distributed {
        declared: Vec::new(),
        graph: g.finish().expect("DP graph validates"),
        input_maps: maps,
    }
}

fn weighted_average(
    g: &mut GraphBuilder,
    name: &str,
    parts: &[TensorId],
    r: i64,
    average: bool,
) -> TensorId {
    let reduced = if parts.len() == 1 {
        parts[0]
    } else {
        g.apply(&format!("{name}_allreduce"), Op::AllReduce, parts)
            .expect("valid all-reduce")
    };
    if average && parts.len() > 1 {
        g.apply(
            &format!("{name}_avg"),
            Op::ScalarMul { numer: 1, denom: r },
            &[reduced],
        )
        .expect("valid scale")
    } else {
        reduced
    }
}

/// Pipeline parallelism with microbatching: the batch is split into
/// microbatches that flow through the (conceptually stage-partitioned)
/// layers; the logits are gathered back along the batch dimension.
///
/// In graph terms, stage assignment is scheduling metadata — the dataflow is
/// the per-microbatch forward with shared weights plus the final gather,
/// which is exactly what refinement checking consumes.
///
/// # Panics
///
/// Panics when the batch does not divide by `microbatches`.
pub fn pipeline(cfg: &ModelConfig, arch: Arch, microbatches: usize) -> Distributed {
    assert!(microbatches >= 1);
    assert_eq!(cfg.batch % microbatches, 0, "batch must divide evenly");
    let m = microbatches;
    let (s, h, v) = (cfg.seq as i64, cfg.hidden as i64, cfg.vocab as i64);
    let bm = (cfg.batch / m) as i64;

    let mut g = GraphBuilder::new("dist-pp");
    let mut maps: Vec<(String, String)> = Vec::new();
    let weight =
        |g: &mut GraphBuilder, maps: &mut Vec<(String, String)>, name: &str, dims: &[i64]| {
            let id = g.input(name, dims, DType::F32);
            maps.push((name.to_owned(), name.to_owned()));
            id
        };

    let wtok = weight(&mut g, &mut maps, "wtok", &[v, h]);
    let rope = if matches!(arch, Arch::Llama | Arch::Qwen2) {
        let cos = weight(&mut g, &mut maps, "rope_cos", &[s, h]);
        let sin = weight(&mut g, &mut maps, "rope_sin", &[s, h]);
        Some((cos, sin))
    } else {
        None
    };
    let wpos = matches!(arch, Arch::Gpt).then(|| weight(&mut g, &mut maps, "wpos", &[s, h]));

    // Per-layer weights, shared by every microbatch.
    struct LayerW {
        ln1: (TensorId, Option<TensorId>),
        wq: TensorId,
        wk: TensorId,
        wv: TensorId,
        bq: Option<TensorId>,
        bk: Option<TensorId>,
        wo: TensorId,
        ln2: (TensorId, Option<TensorId>),
        w1: TensorId,
        w3: Option<TensorId>,
        w2: TensorId,
    }
    let f = cfg.ffn as i64;
    let mut layer_weights = Vec::with_capacity(cfg.layers);
    for l in 0..cfg.layers {
        let p = format!("L{l}");
        let norm_w = |g: &mut GraphBuilder, maps: &mut Vec<(String, String)>, which: &str| {
            let w = {
                let id = g.input(&format!("{p}.{which}_w"), &[h], DType::F32);
                maps.push((format!("{p}.{which}_w"), format!("{p}.{which}_w")));
                id
            };
            let b = matches!(arch, Arch::Gpt).then(|| {
                let id = g.input(&format!("{p}.{which}_b"), &[h], DType::F32);
                maps.push((format!("{p}.{which}_b"), format!("{p}.{which}_b")));
                id
            });
            (w, b)
        };
        let ln1 = norm_w(&mut g, &mut maps, "ln1");
        let wq = weight(&mut g, &mut maps, &format!("{p}.wq"), &[h, h]);
        let wk = weight(&mut g, &mut maps, &format!("{p}.wk"), &[h, h]);
        let wv = weight(&mut g, &mut maps, &format!("{p}.wv"), &[h, h]);
        let (bq, bk) = if matches!(arch, Arch::Qwen2) {
            (
                Some(weight(&mut g, &mut maps, &format!("{p}.bq"), &[h])),
                Some(weight(&mut g, &mut maps, &format!("{p}.bk"), &[h])),
            )
        } else {
            (None, None)
        };
        let wo = weight(&mut g, &mut maps, &format!("{p}.wo"), &[h, h]);
        let ln2 = norm_w(&mut g, &mut maps, "ln2");
        let w1 = weight(&mut g, &mut maps, &format!("{p}.w1"), &[h, f]);
        let w3 = matches!(arch, Arch::Llama | Arch::Qwen2)
            .then(|| weight(&mut g, &mut maps, &format!("{p}.w3"), &[h, f]));
        let w2 = weight(&mut g, &mut maps, &format!("{p}.w2"), &[f, h]);
        layer_weights.push(LayerW {
            ln1,
            wq,
            wk,
            wv,
            bq,
            bk,
            wo,
            ln2,
            w1,
            w3,
            w2,
        });
    }
    let lnf = {
        let w = weight(&mut g, &mut maps, "ln_f_w", &[h]);
        let b = matches!(arch, Arch::Gpt).then(|| weight(&mut g, &mut maps, "ln_f_b", &[h]));
        (w, b)
    };
    let wlm = weight(&mut g, &mut maps, "wlm", &[h, v]);

    let mut outputs = Vec::with_capacity(m);
    for i in 0..m {
        let ids = g.input(&format!("ids.{i}"), &[bm, s], DType::I64);
        let mut x = g
            .apply(&format!("mb{i}.embed"), Op::Embedding, &[wtok, ids])
            .expect("valid");
        if let Some(wpos) = wpos {
            x = g
                .apply(&format!("mb{i}.pos_embed"), Op::Add, &[x, wpos])
                .expect("valid");
        }
        for (l, lw) in layer_weights.iter().enumerate() {
            let p = format!("mb{i}.L{l}");
            let norm = |g: &mut GraphBuilder,
                        name: &str,
                        x: TensorId,
                        (w, b): (TensorId, Option<TensorId>)| {
                match b {
                    Some(b) => g.apply(name, Op::LayerNorm, &[x, w, b]).expect("valid"),
                    None => g.apply(name, Op::RmsNorm, &[x, w]).expect("valid"),
                }
            };
            let n1 = norm(&mut g, &format!("{p}.ln1"), x, lw.ln1);
            let mut q = g
                .apply(&format!("{p}.q"), Op::Matmul, &[n1, lw.wq])
                .expect("valid");
            let mut k = g
                .apply(&format!("{p}.k"), Op::Matmul, &[n1, lw.wk])
                .expect("valid");
            let vv = g
                .apply(&format!("{p}.v"), Op::Matmul, &[n1, lw.wv])
                .expect("valid");
            if let (Some(bq), Some(bk)) = (lw.bq, lw.bk) {
                q = g
                    .apply(&format!("{p}.qb"), Op::Add, &[q, bq])
                    .expect("valid");
                k = g
                    .apply(&format!("{p}.kb"), Op::Add, &[k, bk])
                    .expect("valid");
            }
            if let Some((cos, sin)) = rope {
                q = g
                    .apply(&format!("{p}.q_rope"), Op::Rope, &[q, cos, sin])
                    .expect("valid");
                k = g
                    .apply(&format!("{p}.k_rope"), Op::Rope, &[k, cos, sin])
                    .expect("valid");
            }
            let attn = g
                .apply(
                    &format!("{p}.attn"),
                    Op::Attention {
                        heads: cfg.heads,
                        causal: cfg.causal,
                    },
                    &[q, k, vv],
                )
                .expect("valid");
            let o = g
                .apply(&format!("{p}.attn_out"), Op::Matmul, &[attn, lw.wo])
                .expect("valid");
            x = g
                .apply(&format!("{p}.res1"), Op::Add, &[x, o])
                .expect("valid");
            let n2 = norm(&mut g, &format!("{p}.ln2"), x, lw.ln2);
            let mlp = match lw.w3 {
                None => {
                    let up = g
                        .apply(&format!("{p}.mlp_up"), Op::Matmul, &[n2, lw.w1])
                        .expect("valid");
                    let act = g
                        .apply(&format!("{p}.mlp_act"), Op::Gelu, &[up])
                        .expect("valid");
                    g.apply(&format!("{p}.mlp_down"), Op::Matmul, &[act, lw.w2])
                        .expect("valid")
                }
                Some(w3) => {
                    let gate = g
                        .apply(&format!("{p}.mlp_gate"), Op::Matmul, &[n2, lw.w1])
                        .expect("valid");
                    let up = g
                        .apply(&format!("{p}.mlp_upproj"), Op::Matmul, &[n2, w3])
                        .expect("valid");
                    let act = g
                        .apply(&format!("{p}.mlp_silu"), Op::Silu, &[gate])
                        .expect("valid");
                    let prod = g
                        .apply(&format!("{p}.mlp_mul"), Op::Mul, &[act, up])
                        .expect("valid");
                    g.apply(&format!("{p}.mlp_down"), Op::Matmul, &[prod, lw.w2])
                        .expect("valid")
                }
            };
            x = g
                .apply(&format!("{p}.res2"), Op::Add, &[x, mlp])
                .expect("valid");
        }
        let nf = match lnf.1 {
            Some(b) => g
                .apply(&format!("mb{i}.ln_f"), Op::LayerNorm, &[x, lnf.0, b])
                .expect("valid"),
            None => g
                .apply(&format!("mb{i}.ln_f"), Op::RmsNorm, &[x, lnf.0])
                .expect("valid"),
        };
        outputs.push(
            g.apply(&format!("mb{i}.logits"), Op::Matmul, &[nf, wlm])
                .expect("valid"),
        );
    }
    maps.push(("ids".to_owned(), join_shards("ids", m, 0)));
    let logits = if m == 1 {
        outputs[0]
    } else {
        g.apply("logits_gather", Op::AllGather { dim: 0 }, &outputs)
            .expect("valid")
    };
    g.mark_output(logits);
    Distributed {
        declared: Vec::new(),
        graph: g.finish().expect("PP graph validates"),
        input_maps: maps,
    }
}
