use std::collections::HashMap;

use entangle_ir::DType;
use entangle_runtime::{eval_graph, random_ids, random_value, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::*;

fn run_model(g: &entangle_ir::Graph, seed: u64) -> HashMap<entangle_ir::TensorId, Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = HashMap::new();
    for &i in g.inputs() {
        let t = g.tensor(i);
        let dims: Vec<usize> = t
            .shape
            .as_concrete()
            .expect("concrete shapes")
            .iter()
            .map(|&d| d as usize)
            .collect();
        let v = match t.dtype {
            DType::I64 => random_ids(&mut rng, &dims, 8),
            _ if t.name == "rope_cos" || t.name == "rope_sin" => {
                let (cos, sin) = rope_tables(dims[0], dims[1]);
                let data = if t.name == "rope_cos" { cos } else { sin };
                Value::new(dims.clone(), data).unwrap()
            }
            _ => random_value(&mut rng, &dims),
        };
        inputs.insert(i, v);
    }
    eval_graph(g, &inputs).expect("model evaluates")
}

#[test]
fn gpt_builds_and_runs() {
    let cfg = ModelConfig::tiny();
    let g = gpt(&cfg);
    g.validate().unwrap();
    let env = run_model(&g, 1);
    let logits = &env[&g.outputs()[0]];
    assert_eq!(logits.shape(), &[cfg.batch, cfg.seq, cfg.vocab]);
    assert!(logits.data().iter().all(|v| v.is_finite()));
}

#[test]
fn llama3_builds_and_runs() {
    let cfg = ModelConfig::tiny();
    let g = llama3(&cfg);
    g.validate().unwrap();
    // Uses RoPE tables, not positional embeddings.
    assert!(g.tensor_by_name("rope_cos").is_some());
    assert!(g.tensor_by_name("wpos").is_none());
    let env = run_model(&g, 2);
    assert_eq!(
        env[&g.outputs()[0]].shape(),
        &[cfg.batch, cfg.seq, cfg.vocab]
    );
}

#[test]
fn qwen2_has_qkv_biases() {
    let cfg = ModelConfig::tiny();
    let g = qwen2(&cfg);
    g.validate().unwrap();
    assert!(g.tensor_by_name("L0.bq").is_some());
    assert!(g.tensor_by_name("L0.bk").is_some());
    // Llama does not.
    assert!(llama3(&cfg).tensor_by_name("L0.bq").is_none());
    let env = run_model(&g, 3);
    assert!(env[&g.outputs()[0]].data().iter().all(|v| v.is_finite()));
}

#[test]
fn moe_outputs_logits_and_aux_loss() {
    let cfg = MoeConfig::tiny();
    let g = moe(&cfg);
    g.validate().unwrap();
    assert_eq!(g.outputs().len(), 2);
    let env = run_model(&g, 4);
    let aux = &env[&g.outputs()[1]];
    assert_eq!(aux.rank(), 0);
    // Gates are a softmax over experts: mean load sums to 1, so the aux
    // loss (sum of squared mean loads) lies in [1/E, 1].
    let e = cfg.experts as f64;
    assert!(aux.as_scalar() >= 1.0 / e - 1e-9 && aux.as_scalar() <= 1.0 + 1e-9);
}

#[test]
fn moe_expert_count_scales_graph() {
    let small = moe(&MoeConfig {
        experts: 2,
        ..MoeConfig::tiny()
    });
    let large = moe(&MoeConfig {
        experts: 6,
        ..MoeConfig::tiny()
    });
    assert!(large.num_nodes() > small.num_nodes());
}

#[test]
fn moe_layers_scale_stack_linearly() {
    let cfg = MoeConfig::tiny();
    let n1 = moe(&cfg.with_layers(1)).num_nodes();
    let n2 = moe(&cfg.with_layers(2)).num_nodes();
    let n4 = moe(&cfg.with_layers(4)).num_nodes();
    assert_eq!(n2 - n1, (n4 - n2) / 2, "per-layer node count is constant");
    assert!(n4 > n2 && n2 > n1);
    moe(&cfg.with_layers(3)).validate().unwrap();
}

#[test]
fn deep_builders_validate() {
    // The deep models: 32-layer dense stacks and a deep MoE
    // stack must stay well-formed (every layer re-wires residuals, rope
    // tables and per-layer weights correctly).
    let cfg = ModelConfig::tiny().with_layers(32);
    llama3(&cfg).validate().unwrap();
    qwen2(&cfg).validate().unwrap();
    moe(&MoeConfig::tiny().with_layers(8)).validate().unwrap();
}

#[test]
fn regression_builds_and_runs() {
    let g = regression(&RegressionConfig::tiny());
    g.validate().unwrap();
    let env = run_model(&g, 5);
    let loss = &env[&g.outputs()[0]];
    assert_eq!(loss.rank(), 0);
    assert!(loss.as_scalar() >= 0.0);
}

#[test]
fn layers_scale_node_count_linearly() {
    let cfg = ModelConfig::tiny();
    let n1 = gpt(&cfg.with_layers(1)).num_nodes();
    let n2 = gpt(&cfg.with_layers(2)).num_nodes();
    let n4 = gpt(&cfg.with_layers(4)).num_nodes();
    assert_eq!(n2 - n1, (n4 - n2) / 2, "per-layer node count is constant");
    assert!(n4 > n2 && n2 > n1);
}

#[test]
fn weight_naming_is_systematic() {
    let g = gpt(&ModelConfig::tiny().with_layers(2));
    for l in 0..2 {
        for suffix in ["wq", "wk", "wv", "wo", "w1", "w2", "ln1_w", "ln2_w"] {
            assert!(
                g.tensor_by_name(&format!("L{l}.{suffix}")).is_some(),
                "missing L{l}.{suffix}"
            );
        }
    }
    assert!(g.tensor_by_name("wtok").is_some());
    assert!(g.tensor_by_name("wlm").is_some());
    assert!(g.tensor_by_name("wpos").is_some());
}

#[test]
fn causal_flag_respected() {
    let mut cfg = ModelConfig::tiny();
    cfg.causal = true;
    let g = gpt(&cfg);
    let has_causal_attn = g
        .nodes()
        .iter()
        .any(|n| matches!(n.op, entangle_ir::Op::Attention { causal: true, .. }));
    assert!(has_causal_attn);
}

#[test]
fn rope_tables_are_pairwise() {
    let (cos, sin) = rope_tables(4, 8);
    assert_eq!(cos.len(), 32);
    for t in 0..4 {
        for i in 0..4 {
            assert_eq!(cos[t * 8 + 2 * i], cos[t * 8 + 2 * i + 1]);
            assert_eq!(sin[t * 8 + 2 * i], sin[t * 8 + 2 * i + 1]);
            // cos² + sin² = 1
            let c = cos[t * 8 + 2 * i];
            let s = sin[t * 8 + 2 * i];
            assert!((c * c + s * s - 1.0).abs() < 1e-12);
        }
    }
    // Position 0 is the identity rotation.
    assert!(cos[..8].iter().all(|&c| c == 1.0));
    assert!(sin[..8].iter().all(|&s| s == 0.0));
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Every zoo model validates and evaluates for random small configs.
        #[test]
        fn zoo_models_are_well_formed(
            layers in 1usize..3,
            heads_pow in 0u32..2,
            seed in 0u64..100,
        ) {
            let heads = 2usize.pow(heads_pow);
            let cfg = ModelConfig {
                layers,
                heads,
                hidden: heads * 4,
                ffn: heads * 8,
                ..ModelConfig::tiny()
            };
            for g in [gpt(&cfg), llama3(&cfg), qwen2(&cfg)] {
                g.validate().unwrap();
                let env = run_model(&g, seed);
                let out = &env[&g.outputs()[0]];
                prop_assert!(out.data().iter().all(|v| v.is_finite()));
            }
        }
    }
}
