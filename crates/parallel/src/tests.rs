use entangle::{check_refinement, CheckOptions};
use entangle_models::{gpt, llama3, moe, qwen2, Arch, ModelConfig, MoeConfig, RegressionConfig};

use crate::bugs::{all_bugs, bug, BugVerdict};
use crate::{grad_accumulation, parallelize, parallelize_moe, Distributed, Strategy};

fn verify(gs: &entangle_ir::Graph, dist: &Distributed) -> entangle::CheckOutcome {
    let ri = dist.relation(gs).expect("relation builds");
    check_refinement(gs, &dist.graph, &ri, &CheckOptions::default())
        .unwrap_or_else(|e| panic!("{} should refine {}: {e}", dist.graph.name(), gs.name()))
}

#[test]
fn identity_distribution_refines() {
    let cfg = ModelConfig::tiny();
    let gs = gpt(&cfg);
    let dist = Distributed::identity(&gs);
    let outcome = verify(&gs, &dist);
    assert!(outcome.output_relation.is_complete_for(gs.outputs()));
}

#[test]
fn gpt_tp2_refines() {
    let cfg = ModelConfig::tiny();
    let gs = gpt(&cfg);
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));
    let outcome = verify(&gs, &dist);
    // The logits map to the single all-reduced/full logits tensor.
    let maps: Vec<String> = outcome
        .output_relation
        .mappings(gs.outputs()[0])
        .unwrap()
        .iter()
        .map(|m| m.to_string())
        .collect();
    assert!(maps.contains(&"logits".to_owned()), "logit maps: {maps:?}");
}

#[test]
fn gpt_tp_sp_refines() {
    let cfg = ModelConfig::tiny();
    let gs = gpt(&cfg);
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp_sp(2));
    verify(&gs, &dist);
}

#[test]
fn gpt_tp_sp_vp_refines() {
    let cfg = ModelConfig::tiny();
    let gs = gpt(&cfg);
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp_sp_vp(2));
    let outcome = verify(&gs, &dist);
    let maps: Vec<String> = outcome
        .output_relation
        .mappings(gs.outputs()[0])
        .unwrap()
        .iter()
        .map(|m| m.to_string())
        .collect();
    assert!(
        maps.contains(&"logits_gather".to_owned()),
        "logit maps: {maps:?}"
    );
}

#[test]
fn llama3_tp2_refines() {
    let cfg = ModelConfig::tiny();
    let gs = llama3(&cfg);
    let dist = parallelize(&cfg, Arch::Llama, &Strategy::tp(2));
    verify(&gs, &dist);
}

#[test]
fn qwen2_tp2_refines() {
    let cfg = ModelConfig::tiny();
    let gs = qwen2(&cfg);
    let dist = parallelize(&cfg, Arch::Qwen2, &Strategy::tp(2));
    verify(&gs, &dist);
}

#[test]
fn gpt_tp4_refines() {
    let cfg = ModelConfig::tiny();
    let gs = gpt(&cfg);
    let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(4));
    verify(&gs, &dist);
}

#[test]
fn moe_tp_sp_ep_refines() {
    let cfg = MoeConfig::tiny();
    let gs = moe(&cfg);
    let dist = parallelize_moe(&cfg, &Strategy::tp_sp(2));
    let outcome = verify(&gs, &dist);
    assert!(outcome.output_relation.is_complete_for(gs.outputs()));
}

#[test]
fn grad_accumulation_refines_when_scaled() {
    let cfg = RegressionConfig::tiny();
    let gs = entangle_models::regression(&cfg);
    for m in [1, 2, 4] {
        let dist = grad_accumulation(&cfg, m, true);
        verify(&gs, &dist);
    }
}

#[test]
fn data_parallel_training_step_refines() {
    // DP over the explicit-gradient training step: gradient *averaging*
    // (the correct discipline) collapses back to the sequential gradient.
    let cfg = RegressionConfig::tiny();
    let gs = entangle_models::regression_training(&cfg);
    for replicas in [1usize, 2, 4] {
        let dist = crate::data_parallel(&cfg, replicas, true);
        let outcome = verify(&gs, &dist);
        assert!(outcome.output_relation.is_complete_for(gs.outputs()));
    }
}

#[test]
fn data_parallel_sum_instead_of_average_is_a_bug() {
    // Summing gradients instead of averaging them is the classic DP fault:
    // the deployed gradient is R x the sequential one.
    let cfg = RegressionConfig::tiny();
    let gs = entangle_models::regression_training(&cfg);
    let dist = crate::data_parallel(&cfg, 2, false);
    let ri = dist.relation(&gs).unwrap();
    let err = check_refinement(&gs, &dist.graph, &ri, &CheckOptions::default());
    assert!(err.is_err(), "unaveraged DP gradients must not refine");
}

#[test]
fn generated_dp_training_refines() {
    // Fully generated test: G_s = autodiff of the sum-loss regression
    // graph, G_d = per-replica instantiation with gradient *summation*
    // (exact for sum losses). The checker relates the two through the
    // scalar-linearity lemmas.
    let cfg = RegressionConfig::tiny();
    let fwd = entangle_models::regression_sum_loss(&cfg);
    let loss = fwd.outputs()[0];
    for replicas in [1usize, 2] {
        let dp = crate::data_parallel_training(&fwd, loss, &["x", "y"], replicas, false).unwrap();
        let gs = &dp.sequential.graph;
        let ri = dp.distributed.relation(gs).unwrap();
        let outcome = check_refinement(gs, &dp.distributed.graph, &ri, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("generated DP training should refine (r={replicas}): {e}"));
        assert!(outcome.output_relation.is_complete_for(gs.outputs()));
        // The parameter gradient maps to the all-reduced sum.
        let w = gs.tensor_by_name("w").unwrap().id;
        let gw = dp.sequential.grad_of(w).unwrap();
        let maps: Vec<String> = outcome
            .output_relation
            .mappings(gw)
            .unwrap()
            .iter()
            .map(|m| m.to_string())
            .collect();
        if replicas > 1 {
            assert!(
                maps.iter().any(|m| m.contains("grad_w_allreduce")),
                "grad_w maps: {maps:?}"
            );
        }
    }
}

#[test]
fn generated_dp_over_norm_mlp_refines() {
    // The capstone generated workload: an RMSNorm + SwiGLU-ish block with a
    // sum loss, differentiated by autodiff (norm gradients included) and
    // data-parallelized. Exercises the rsqrt/mean_dim gradient expressions
    // under batch sharding.
    use entangle_ir::{DType, GraphBuilder, Op};
    let mut g = GraphBuilder::new("norm-mlp");
    let x = g.input("x", &[4, 6], DType::F32);
    let w_ln = g.input("w_ln", &[6], DType::F32);
    let w1 = g.input("w1", &[6, 8], DType::F32);
    let w2 = g.input("w2", &[8, 6], DType::F32);
    let n = g.apply("n", Op::RmsNorm, &[x, w_ln]).unwrap();
    let h = g.apply("h", Op::Matmul, &[n, w1]).unwrap();
    let a = g.apply("a", Op::Silu, &[h]).unwrap();
    let o = g.apply("o", Op::Matmul, &[a, w2]).unwrap();
    let res = g.apply("res", Op::Add, &[x, o]).unwrap();
    let sq = g.apply("sq", Op::Mul, &[res, res]).unwrap();
    let loss = g.apply("loss", Op::SumAll, &[sq]).unwrap();
    g.mark_output(loss);
    let fwd = g.finish().unwrap();

    let dp = crate::data_parallel_training(&fwd, loss, &["x"], 2, false).unwrap();
    let gs = &dp.sequential.graph;
    let ri = dp.distributed.relation(gs).unwrap();
    let outcome = check_refinement(gs, &dp.distributed.graph, &ri, &CheckOptions::default())
        .unwrap_or_else(|e| panic!("DP over norm-MLP should refine: {e}"));
    assert!(outcome.output_relation.is_complete_for(gs.outputs()));
    // The norm-weight gradient (the bug 5/9 tensor!) maps to its all-reduce.
    let wln = gs.tensor_by_name("w_ln").unwrap().id;
    let gw = dp.sequential.grad_of(wln).unwrap();
    let maps: Vec<String> = outcome
        .output_relation
        .mappings(gw)
        .unwrap()
        .iter()
        .map(|m| m.to_string())
        .collect();
    assert!(
        maps.iter().any(|m| m.contains("grad_w_ln_allreduce")),
        "w_ln grad maps: {maps:?}"
    );
}

#[test]
fn dp_mean_loss_average_is_a_documented_false_alarm() {
    // With a *mean* loss and gradient averaging, the implementation is
    // numerically correct, but every per-replica gradient differs from the
    // sequential one by a batch-size scale: the paper's assumption 3
    // (§3.3) is violated and ENTANGLE (by design) reports a bug. This test
    // pins that incompleteness so a future change that silently "fixes" it
    // gets a second look.
    let cfg = RegressionConfig::tiny();
    let fwd = entangle_models::regression(&cfg); // mean-semantics MSE
    let loss = fwd.outputs()[0];
    let dp = crate::data_parallel_training(&fwd, loss, &["x", "y"], 2, true).unwrap();
    let gs = &dp.sequential.graph;
    let ri = dp.distributed.relation(gs).unwrap();
    assert!(check_refinement(gs, &dp.distributed.graph, &ri, &CheckOptions::default()).is_err());
}

#[test]
fn generated_dp_training_rejects_bad_batch_inputs() {
    let cfg = RegressionConfig::tiny();
    let fwd = entangle_models::regression(&cfg);
    let loss = fwd.outputs()[0];
    assert!(matches!(
        crate::data_parallel_training(&fwd, loss, &["nonexistent"], 2, true),
        Err(crate::DpError::BadBatchInput(_))
    ));
    // Batch of 8 does not divide by 3.
    assert!(matches!(
        crate::data_parallel_training(&fwd, loss, &["x", "y"], 3, true),
        Err(crate::DpError::BadBatchInput(_))
    ));
}

#[test]
fn pipeline_parallel_refines() {
    let cfg = ModelConfig::tiny();
    for arch in [Arch::Gpt, Arch::Llama] {
        let gs = match arch {
            Arch::Gpt => gpt(&cfg),
            _ => llama3(&cfg),
        };
        let dist = crate::pipeline(&cfg, arch, 2);
        let outcome = verify(&gs, &dist);
        let maps: Vec<String> = outcome
            .output_relation
            .mappings(gs.outputs()[0])
            .unwrap()
            .iter()
            .map(|m| m.to_string())
            .collect();
        assert!(
            maps.contains(&"logits_gather".to_owned()),
            "{arch:?}: {maps:?}"
        );
    }
}

#[test]
fn operator_counts_grow_with_parallelism() {
    let cfg = ModelConfig::tiny();
    let n2 = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2))
        .graph
        .num_nodes();
    let n4 = parallelize(&cfg, Arch::Gpt, &Strategy::tp(4))
        .graph
        .num_nodes();
    assert!(
        n4 > n2,
        "tp4 ({n4}) should have more operators than tp2 ({n2})"
    );
}

#[test]
#[should_panic(expected = "heads must divide")]
fn strategy_validates_divisibility() {
    let mut cfg = ModelConfig::tiny();
    cfg.heads = 3;
    cfg.hidden = 12;
    cfg.ffn = 24;
    // 3 heads do not divide by tp=2 — the Figure 4 footnote situation
    // ("no data for parallelism size 6" on Llama-3).
    parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));
}

#[test]
fn all_nine_bugs_detected() {
    for case in all_bugs(true) {
        let verdict = case.run(&CheckOptions::default());
        assert!(
            verdict.detected(),
            "bug {} ({}) was not detected: {verdict:?}",
            case.id,
            case.name
        );
    }
}

#[test]
fn no_false_alarms_on_fixed_twins() {
    for case in all_bugs(false) {
        let verdict = case.run(&CheckOptions::default());
        assert!(
            !verdict.detected(),
            "fixed twin of bug {} ({}) raised a false alarm: {verdict:?}",
            case.id,
            case.name
        );
    }
}

#[test]
fn bug1_localizes_to_rope_operator() {
    // With shard hints on (the default), the sharding-propagation pass
    // catches the misaligned rotary tables *before* saturation, anchored at
    // the rope operator in G_d.
    let case = bug(1, true);
    match case.run(&CheckOptions::default()) {
        BugVerdict::RefinementBug(entangle::RefinementError::ShardViolation {
            diagnostics,
            ..
        }) => {
            assert_eq!(diagnostics[0].code, "SH02");
            let anchored = case.dist.graph.nodes().iter().any(|n| {
                diagnostics[0].anchor == entangle_lint::Anchor::Node(n.id)
                    && n.name.starts_with("apply_rotary")
            });
            assert!(anchored, "SH02 must anchor at a rope operator");
        }
        other => panic!("expected SH02 rope localization, got {other:?}"),
    }
    // Pure saturation (pre-pass off) still localizes to the same operator.
    let opts = CheckOptions {
        shard: false,
        ..CheckOptions::default()
    };
    match case.run(&opts) {
        BugVerdict::RefinementBug(entangle::RefinementError::OperatorUnmapped {
            operator,
            op,
            ..
        }) => {
            assert_eq!(operator, "apply_rotary");
            assert_eq!(op, "rope");
        }
        other => panic!("expected rope localization, got {other:?}"),
    }
}

#[test]
fn bug2_manifests_as_unscalable_output() {
    // The per-rank auxiliary losses are themselves clean maps of the
    // sequential loss, but the deployed (unscaled) total is 2x too large:
    // the output filter (Listing 1 line 9) rejects it.
    let case = bug(2, true);
    match case.run(&CheckOptions::default()) {
        BugVerdict::RefinementBug(entangle::RefinementError::OutputUnmapped { .. }) => {}
        other => panic!("bug 2: expected OutputUnmapped, got {other:?}"),
    }
}

#[test]
fn bug6_fails_at_the_loss_operator() {
    // "The accumulated loss in G_d cannot cleanly represent the loss in G_s
    // without computation" — the mse_loss operator itself is unmappable
    // because relating it to the unscaled sum needs a (non-clean) scale.
    let case = bug(6, true);
    match case.run(&CheckOptions::default()) {
        BugVerdict::RefinementBug(entangle::RefinementError::OperatorUnmapped {
            operator,
            op,
            ..
        }) => {
            assert_eq!(operator, "loss");
            assert_eq!(op, "mse_loss");
        }
        other => panic!("bug 6: expected OperatorUnmapped at loss, got {other:?}"),
    }
}

#[test]
fn bug7_localizes_to_second_matmul() {
    // Shard propagation flags the second matmul consuming an unreduced
    // partial sum (the missing all-reduce) pre-saturation.
    let case = bug(7, true);
    match case.run(&CheckOptions::default()) {
        BugVerdict::RefinementBug(entangle::RefinementError::ShardViolation {
            diagnostics,
            ..
        }) => {
            assert_eq!(diagnostics[0].code, "SH04");
            let anchored = case.dist.graph.nodes().iter().any(|n| {
                diagnostics[0].anchor == entangle_lint::Anchor::Node(n.id)
                    && n.name.starts_with("y.")
            });
            assert!(anchored, "SH04 must anchor at the per-rank second matmul");
        }
        other => panic!("expected SH04 partial-sum localization, got {other:?}"),
    }
    let opts = CheckOptions {
        shard: false,
        ..CheckOptions::default()
    };
    match case.run(&opts) {
        BugVerdict::RefinementBug(entangle::RefinementError::OperatorUnmapped {
            operator, ..
        }) => assert_eq!(operator, "y"),
        other => panic!("expected localization at y, got {other:?}"),
    }
}

#[test]
fn expectation_bugs_are_expectation_violations() {
    for id in [5, 8, 9] {
        let case = bug(id, true);
        match case.run(&CheckOptions::default()) {
            BugVerdict::ExpectationBug(entangle::ExpectationError::Violated { .. }) => {}
            other => panic!("bug {id}: expected expectation violation, got {other:?}"),
        }
    }
}

#[test]
fn bug_metadata_is_complete() {
    let bugs = all_bugs(true);
    assert_eq!(bugs.len(), 9);
    for (i, b) in bugs.iter().enumerate() {
        assert_eq!(b.id, i + 1);
        assert!(!b.description.is_empty());
        assert!(b.relation().is_ok());
    }
    // Expectation-style bugs are exactly 5, 8, 9 (Table 3 / §4.4).
    let with_expectation: Vec<usize> = bugs
        .iter()
        .filter(|b| b.expectation.is_some())
        .map(|b| b.id)
        .collect();
    assert_eq!(with_expectation, vec![5, 8, 9]);
}

mod differential {
    //! End-to-end differential testing: evaluate `G_s` and `G_d` on inputs
    //! related by `R_i`, reconstruct `G_s`'s outputs through the relation
    //! `R_o` the checker produced, and compare — the executable version of
    //! the §3.3 soundness certificate.

    use std::collections::HashMap;

    use entangle_ir::{DType, Graph, TensorId};
    use entangle_lint::eval_ground;
    use entangle_runtime::{eval_graph, eval_op, random_ids, random_value, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    /// Random inputs for `G_s`, then `G_d` inputs derived through `R_i` by
    /// *inverting* the concat/identity maps (shards = slices of the full
    /// tensors).
    fn related_inputs(
        gs: &Graph,
        dist: &Distributed,
        seed: u64,
    ) -> (HashMap<TensorId, Value>, HashMap<TensorId, Value>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs_env = HashMap::new();
        for &i in gs.inputs() {
            let t = gs.tensor(i);
            let dims: Vec<usize> = t
                .shape
                .as_concrete()
                .unwrap()
                .iter()
                .map(|&d| d as usize)
                .collect();
            let v = match t.dtype {
                DType::I64 => random_ids(&mut rng, &dims, 8),
                _ => random_value(&mut rng, &dims),
            };
            gs_env.insert(i, v);
        }
        // Derive G_d inputs: walk each map; identity or concat-of-shards.
        let mut gd_env = HashMap::new();
        for (gs_name, expr) in &dist.input_maps {
            let gs_t = gs.tensor_by_name(gs_name).unwrap();
            let full = gs_env[&gs_t.id].clone();
            assign_shards(&dist.graph, expr, &full, &mut gd_env);
        }
        (gs_env, gd_env)
    }

    /// Splits `full` according to the concat structure of `expr`, assigning
    /// each leaf its shard.
    fn assign_shards(gd: &Graph, expr: &str, full: &Value, out: &mut HashMap<TensorId, Value>) {
        let parsed: entangle_egraph::RecExpr = expr.parse().unwrap();
        split_rec(gd, &parsed, parsed.root_id(), full, out);
    }

    fn split_rec(
        gd: &Graph,
        expr: &entangle_egraph::RecExpr,
        id: entangle_egraph::Id,
        val: &Value,
        out: &mut HashMap<TensorId, Value>,
    ) {
        match expr.node(id) {
            entangle_egraph::ENode::Op(sym, ch) if ch.is_empty() => {
                let t = gd.tensor_by_name(sym.as_str()).expect("leaf exists");
                out.insert(t.id, val.clone());
            }
            entangle_egraph::ENode::Op(sym, ch) if sym.as_str() == "concat" => {
                let dim = expr.node(ch[2]).as_int().expect("concat dim is concrete") as usize;
                // Left child size: total minus right child leaf count…
                // simpler: recurse by computing the left subtree's dim size
                // from the graph's recorded shapes.
                let left_size = subtree_dim_size(gd, expr, ch[0], dim);
                let n = val.shape()[dim];
                let left = slice_val(val, dim, 0, left_size);
                let right = slice_val(val, dim, left_size, n);
                split_rec(gd, expr, ch[0], &left, out);
                split_rec(gd, expr, ch[1], &right, out);
            }
            other => panic!("unsupported input-map node {other:?}"),
        }
    }

    fn subtree_dim_size(
        gd: &Graph,
        expr: &entangle_egraph::RecExpr,
        id: entangle_egraph::Id,
        dim: usize,
    ) -> usize {
        match expr.node(id) {
            entangle_egraph::ENode::Op(sym, ch) if ch.is_empty() => {
                gd.tensor_by_name(sym.as_str())
                    .unwrap()
                    .shape
                    .dim(dim)
                    .as_const()
                    .unwrap() as usize
            }
            entangle_egraph::ENode::Op(_, ch) => {
                subtree_dim_size(gd, expr, ch[0], dim) + subtree_dim_size(gd, expr, ch[1], dim)
            }
            _ => unreachable!(),
        }
    }

    fn slice_val(v: &Value, dim: usize, lo: usize, hi: usize) -> Value {
        eval_op(
            &entangle_ir::Op::Slice {
                dim,
                start: (lo as i64).into(),
                end: (hi as i64).into(),
            },
            &[v],
        )
        .unwrap()
    }

    fn differential_check(gs: &Graph, dist: &Distributed, seed: u64) {
        let ri = dist.relation(gs).unwrap();
        let outcome = check_refinement(gs, &dist.graph, &ri, &CheckOptions::default()).unwrap();
        let numeric = outcome
            .numeric
            .as_ref()
            .expect("numeric analysis runs by default");
        let (gs_env, gd_in) = related_inputs(gs, dist, seed);
        let gs_out = eval_graph(gs, &gs_env).unwrap();
        let gd_out = eval_graph(&dist.graph, &gd_in).unwrap();
        for &out in gs.outputs() {
            let name = &gs.tensor(out).name;
            let expected = &gs_out[&out];
            // The oracle compares within the tolerance the analysis
            // *derived* for this output — no hard-coded epsilon. A
            // verdict without a sound tolerance fails the check.
            let verdict = numeric
                .output_verdict(name)
                .unwrap_or_else(|| panic!("output {name} has a numeric verdict"));
            let tol = verdict.tolerance().unwrap_or_else(|| {
                panic!("output {name}: no sound tolerance derived ({verdict:?})")
            });
            for mapping in outcome.output_relation.mappings(out).unwrap() {
                let gd = &dist.graph;
                let reconstructed =
                    eval_ground(mapping, |name| gd_out.get(&gd.tensor_by_name(name)?.id))
                        .unwrap_or_else(|why| panic!("{mapping} does not evaluate: {why}"));
                assert!(
                    reconstructed.within(expected, &tol),
                    "output {name} reconstruction {mapping} exceeds its derived \
                     tolerance {tol:?} (max diff {:?})",
                    reconstructed.max_abs_diff(expected)
                );
            }
        }
    }

    #[test]
    fn gpt_tp2_relation_is_numerically_sound() {
        let cfg = ModelConfig::tiny();
        let gs = gpt(&cfg);
        let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));
        differential_check(&gs, &dist, 17);
    }

    #[test]
    fn grad_accum_relation_is_numerically_sound() {
        let cfg = RegressionConfig::tiny();
        let gs = entangle_models::regression(&cfg);
        let dist = grad_accumulation(&cfg, 2, true);
        differential_check(&gs, &dist, 23);
    }
}
