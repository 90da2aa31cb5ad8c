//! Numeric replay of refinement certificates: every mapping the trusted
//! kernel accepted is evaluated through `entangle-runtime` on seeded
//! concrete inputs and compared against the sequential model's output —
//! under the *derived* per-tensor tolerance of the numeric-soundness
//! analysis, never a hard-coded epsilon.
//!
//! Shardings that never split a contraction dimension (relu over row
//! shards, column-sharded matmul) reassociate no floating-point sums; the
//! analysis classifies them bit-exact, so the reconstruction must be
//! *bit-identical* to `G_s`. The zoo workload reduces partial sums in a
//! different order; the analysis derives a finite `(1+ε)^k` relative
//! bound and the replay is held to exactly that bound.
//!
//! Finally, every lemma application of the zoo's certificates (and of the
//! Figure 3 workloads the zoo lacks) is sampled on
//! its own: both sides of each rule step, evaluated over one seeded run of
//! `G_d` at its real shapes, must agree — whatever store the kernel checked
//! the step in.

use std::collections::HashMap;

use entangle::{check_refinement, CertAnalysis, CheckOptions, NumClass};
use entangle_cert::Certificate;
use entangle_egraph::{ENode, Id, Proof, ProofStep, RecExpr};
use entangle_ir::{DType, Graph, GraphBuilder, Op, TensorId};
use entangle_lint::eval_ground;
use entangle_models::{gpt, Arch, ModelConfig};
use entangle_parallel::{parallelize, Strategy};
use entangle_runtime::{eval_graph, eval_op, random_ids, random_value, Tolerance, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Evaluates a clean expression over `G_d` tensor names given `G_d`'s env.
fn reconstruct(expr: &RecExpr, gd: &Graph, env: &HashMap<TensorId, Value>) -> Value {
    eval_ground(expr, |name| env.get(&gd.tensor_by_name(name)?.id))
        .unwrap_or_else(|why| panic!("clean expression {expr} does not evaluate: {why}"))
}

/// Certifies the refinement and replays every certified mapping: the
/// mapping's expression over `G_d`'s env must reproduce the `G_s` tensor it
/// claims, within the tolerance the numeric analysis derived for exactly
/// that mapping — bit-for-bit when classified bit-exact, within the
/// composed `(1+ε)^k` relative bound when reassociation-only. A mapping
/// for which no sound tolerance exists fails the replay outright.
fn replay_certificate(
    gs: &Graph,
    gd: &Graph,
    cert: &Certificate,
    analysis: &CertAnalysis,
    gs_env: &HashMap<TensorId, Value>,
    gd_env: &HashMap<TensorId, Value>,
) {
    assert!(!cert.mappings.is_empty(), "certificate has mappings");
    assert_eq!(
        cert.mappings.len(),
        analysis.mappings.len(),
        "one verdict per certified mapping"
    );
    for (mc, (vt, verdict)) in cert.mappings.iter().zip(&analysis.mappings) {
        assert_eq!(&mc.tensor, vt, "verdicts run in certificate order");
        let t = gs.tensor_by_name(&mc.tensor).expect("certified G_s tensor");
        let expected = &gs_env[&t.id];
        let reconstructed = reconstruct(&mc.expr, gd, gd_env);
        let tol = verdict.tolerance().unwrap_or_else(|| {
            panic!(
                "{}: no sound tolerance derived ({verdict:?}) — outputs must not \
                 be compared within any epsilon",
                mc.tensor
            )
        });
        assert!(
            reconstructed.within(expected, &tol),
            "{}: certified mapping {} exceeds its derived tolerance {tol:?} \
             (max diff {:?})",
            mc.tensor,
            mc.expr,
            reconstructed.max_abs_diff(expected)
        );
    }
    // The output relation entries replay too, under their own verdicts.
    for (name, expr) in &cert.outputs {
        let t = gs.tensor_by_name(name).expect("certified output");
        let reconstructed = reconstruct(expr, gd, gd_env);
        let expected = &gs_env[&t.id];
        let verdict = analysis
            .output_verdict(name)
            .unwrap_or_else(|| panic!("output {name} has a verdict"));
        let tol = verdict
            .tolerance()
            .unwrap_or_else(|| panic!("output {name}: no sound tolerance ({verdict:?})"));
        assert!(
            reconstructed.within(expected, &tol),
            "output {name} exceeds its derived tolerance {tol:?}"
        );
    }
}

fn certify(gs: &Graph, gd: &Graph, ri: entangle::Relation) -> (Certificate, CertAnalysis) {
    let outcome = check_refinement(gs, gd, &ri, &CheckOptions::default())
        .unwrap_or_else(|e| panic!("{} should certify: {e}", gd.name()));
    let cert = outcome
        .certificate
        .expect("certify mode emits a certificate");
    let analysis = outcome.numeric.expect("numeric analysis runs by default");
    (cert, analysis)
}

#[test]
fn certified_relu_sharding_replays_bit_exactly() {
    let mut b = GraphBuilder::new("seq");
    let x = b.input("x", &[4, 4], DType::F32);
    let y = b.apply("y", Op::Relu, &[x]).unwrap();
    b.mark_output(y);
    let gs = b.finish().unwrap();

    let mut b = GraphBuilder::new("dist");
    let x0 = b.input("x0", &[2, 4], DType::F32);
    let x1 = b.input("x1", &[2, 4], DType::F32);
    let y0 = b.apply("y0", Op::Relu, &[x0]).unwrap();
    let y1 = b.apply("y1", Op::Relu, &[x1]).unwrap();
    b.mark_output(y0);
    b.mark_output(y1);
    let gd = b.finish().unwrap();

    let mut ri = entangle::Relation::builder(&gs, &gd);
    ri.map("x", "(concat x0 x1 0)").unwrap();
    let (cert, analysis) = certify(&gs, &gd, ri.build());
    // Pure rearrangement: the analysis must prove every mapping bit-exact.
    for (t, v) in &analysis.mappings {
        assert_eq!(v.class, NumClass::BitExact, "{t}: {v:?}");
    }

    let mut rng = StdRng::seed_from_u64(41);
    let full = random_value(&mut rng, &[4, 4]);
    let shard = |lo: usize, hi: usize| {
        Value::new(vec![2, 4], full.data()[lo * 4..hi * 4].to_vec()).unwrap()
    };
    let gd_in = HashMap::from([(x0, shard(0, 2)), (x1, shard(2, 4))]);
    let gs_env = eval_graph(&gs, &HashMap::from([(x, full)])).unwrap();
    let gd_env = eval_graph(&gd, &gd_in).unwrap();
    replay_certificate(&gs, &gd, &cert, &analysis, &gs_env, &gd_env);
}

#[test]
fn certified_column_matmul_replays_bit_exactly() {
    // Column-sharding the weight splits no contraction dimension: each
    // output element is the same dot product in the same order, so the
    // certified concat reconstruction must be bit-identical.
    let mut b = GraphBuilder::new("seq");
    let x = b.input("x", &[4, 6], DType::F32);
    let w = b.input("w", &[6, 8], DType::F32);
    let y = b.apply("y", Op::Matmul, &[x, w]).unwrap();
    b.mark_output(y);
    let gs = b.finish().unwrap();

    let mut b = GraphBuilder::new("dist");
    let xd = b.input("xd", &[4, 6], DType::F32);
    let w0 = b.input("w0", &[6, 4], DType::F32);
    let w1 = b.input("w1", &[6, 4], DType::F32);
    let y0 = b.apply("y0", Op::Matmul, &[xd, w0]).unwrap();
    let y1 = b.apply("y1", Op::Matmul, &[xd, w1]).unwrap();
    b.mark_output(y0);
    b.mark_output(y1);
    let gd = b.finish().unwrap();

    let mut ri = entangle::Relation::builder(&gs, &gd);
    ri.map("x", "xd").unwrap();
    ri.map("w", "(concat w0 w1 1)").unwrap();
    let (cert, analysis) = certify(&gs, &gd, ri.build());
    // Column sharding splits no contraction: bit-exact end to end.
    for (t, v) in &analysis.mappings {
        assert_eq!(v.class, NumClass::BitExact, "{t}: {v:?}");
    }

    let mut rng = StdRng::seed_from_u64(43);
    let xv = random_value(&mut rng, &[4, 6]);
    let wv = random_value(&mut rng, &[6, 8]);
    let col = |lo: i64, hi: i64| {
        eval_op(
            &Op::Slice {
                dim: 1,
                start: lo.into(),
                end: hi.into(),
            },
            &[&wv],
        )
        .unwrap()
    };
    let gd_in = HashMap::from([(xd, xv.clone()), (w0, col(0, 4)), (w1, col(4, 8))]);
    let gs_env = eval_graph(&gs, &HashMap::from([(x, xv), (w, wv)])).unwrap();
    let gd_env = eval_graph(&gd, &gd_in).unwrap();
    replay_certificate(&gs, &gd, &cert, &analysis, &gs_env, &gd_env);
}

// ----- zoo workload: GPT under TP2 (reductions ⇒ derived relative bound) -----

fn split_by_map(
    gd: &Graph,
    expr: &RecExpr,
    id: Id,
    val: &Value,
    out: &mut HashMap<TensorId, Value>,
) {
    match expr.node(id) {
        ENode::Op(sym, ch) if ch.is_empty() => {
            let t = gd.tensor_by_name(sym.as_str()).expect("leaf exists");
            out.insert(t.id, val.clone());
        }
        ENode::Op(sym, ch) if sym.as_str() == "concat" => {
            let dim = expr.node(ch[2]).as_int().expect("concrete concat dim") as usize;
            let left = subtree_dim_size(gd, expr, ch[0], dim);
            let n = val.shape()[dim];
            let slice = |lo: usize, hi: usize| {
                eval_op(
                    &Op::Slice {
                        dim,
                        start: (lo as i64).into(),
                        end: (hi as i64).into(),
                    },
                    &[val],
                )
                .unwrap()
            };
            split_by_map(gd, expr, ch[0], &slice(0, left), out);
            split_by_map(gd, expr, ch[1], &slice(left, n), out);
        }
        other => panic!("unsupported input-map node {other:?}"),
    }
}

fn subtree_dim_size(gd: &Graph, expr: &RecExpr, id: Id, dim: usize) -> usize {
    match expr.node(id) {
        ENode::Op(sym, ch) if ch.is_empty() => gd
            .tensor_by_name(sym.as_str())
            .unwrap()
            .shape
            .dim(dim)
            .as_const()
            .unwrap() as usize,
        ENode::Op(_, ch) => {
            subtree_dim_size(gd, expr, ch[0], dim) + subtree_dim_size(gd, expr, ch[1], dim)
        }
        _ => unreachable!(),
    }
}

/// One layer and two deep: the derived bound of every mapping holds on a
/// random-input replay at depths 1, 2 and 4.
#[test]
fn certified_gpt_tp2_mappings_replay_numerically() {
    for layers in [1, 2, 4] {
        let cfg = ModelConfig::tiny().with_layers(layers);
        let gs = gpt(&cfg);
        let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp(2));
        let ri = dist.relation(&gs).expect("relation builds");
        let outcome = check_refinement(&gs, &dist.graph, &ri, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("gpt tp2 at {layers} layers does not certify: {e}"));
        let cert = outcome.certificate.expect("certificate emitted");
        let analysis = outcome.numeric.expect("numeric analysis runs by default");
        // Partial-sum reductions are reassociation-only with a finite derived
        // bound — far tighter than the 1e-6 allclose this replay used to use.
        let logits = analysis.output_verdict("logits").expect("logits verdict");
        assert_eq!(logits.class, NumClass::Reassoc, "{layers} layers");
        match logits.tolerance() {
            Some(entangle_runtime::Tolerance::Relative(b)) => {
                assert!(
                    b.is_finite() && b > 0.0 && b < 1e-6,
                    "derived bound {b} at {layers} layers"
                );
            }
            other => panic!("unexpected tolerance {other:?} at {layers} layers"),
        }

        let mut rng = StdRng::seed_from_u64(17);
        let mut gs_in = HashMap::new();
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
            gs_in.insert(i, v);
        }
        let mut gd_in = HashMap::new();
        for (gs_name, expr) in &dist.input_maps {
            let gs_t = gs.tensor_by_name(gs_name).unwrap();
            let parsed: RecExpr = expr.parse().unwrap();
            split_by_map(
                &dist.graph,
                &parsed,
                parsed.root_id(),
                &gs_in[&gs_t.id],
                &mut gd_in,
            );
        }
        let gs_env = eval_graph(&gs, &gs_in).unwrap();
        let gd_env = eval_graph(&dist.graph, &gd_in).unwrap();
        replay_certificate(&gs, &dist.graph, &cert, &analysis, &gs_env, &gd_env);
    }
}

// ----- every lemma application, sampled on its own -----

/// Every rule step of a proof, congruence children included.
fn rule_steps<'a>(proof: &'a Proof, out: &mut Vec<&'a ProofStep>) {
    for step in &proof.steps {
        match step {
            ProofStep::Rule { .. } => out.push(step),
            ProofStep::Congruence { children, .. } => {
                for child in children {
                    rule_steps(child, out);
                }
            }
            ProofStep::Given { .. } => {}
        }
    }
}

/// One seeded f64 run of `G_d` from random inputs at their real shapes
/// (token ids below 8, inside every vocabulary shard).
fn seeded_run(gd: &Graph, seed: u64) -> HashMap<TensorId, Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = HashMap::new();
    for &i in gd.inputs() {
        let t = gd.tensor(i);
        let dims: Vec<usize> = t
            .shape
            .as_concrete()
            .expect("zoo shapes are concrete")
            .iter()
            .map(|&d| d as usize)
            .collect();
        let v = match t.dtype {
            DType::I64 => random_ids(&mut rng, &dims, 8),
            _ => random_value(&mut rng, &dims),
        };
        inputs.insert(i, v);
    }
    eval_graph(gd, &inputs).expect("G_d evaluates")
}

#[test]
fn every_zoo_lemma_application_agrees_on_a_seeded_run_of_g_d() {
    // A lemma may reassociate a sum (a split contraction, a regrouped add
    // chain); in f64 over these sizes that moves a result by ~1e-15 of its
    // magnitude, so 1e-9 admits rounding and nothing else.
    let tol = Tolerance::Relative(1e-9);
    let opts = CheckOptions {
        numeric: false,
        ..CheckOptions::default()
    };
    // The zoo, then the Figure 3 workloads it does not already hold: MoE at
    // two layers, GPT under TP+SP+VP, and the gradient-accumulation
    // regression.
    let zoo = entangle_bench::zoo()
        .into_iter()
        .map(|case| (case.name, case.gs, case.dist));
    let figure3 = [
        entangle_bench::moe_workload(2, true),
        entangle_bench::gpt_workload(2, 1),
        entangle_bench::regression_workload(2),
    ]
    .into_iter()
    .map(|w| (w.name, w.gs, w.dist));
    let mut sampled = 0;
    for (name, gs, dist) in zoo.chain(figure3) {
        let gd = &dist.graph;
        let ri = dist.relation(&gs).expect("relation builds");
        let cert = check_refinement(&gs, gd, &ri, &opts)
            .unwrap_or_else(|e| panic!("{name} should certify: {e}"))
            .certificate
            .expect("certify mode emits a certificate");
        let env = seeded_run(gd, 29);
        let mut steps = Vec::new();
        for mc in &cert.mappings {
            rule_steps(&mc.proof, &mut steps);
        }
        for step in steps {
            let ProofStep::Rule { name: lemma, .. } = step else {
                unreachable!("rule steps only");
            };
            let before = reconstruct(step.before(), gd, &env);
            let after = reconstruct(step.after(), gd, &env);
            assert!(
                after.within(&before, &tol),
                "{}: lemma {} rewrites {} to {}, which differ by {:?}",
                name,
                lemma,
                step.before(),
                step.after(),
                after.max_abs_diff(&before)
            );
            sampled += 1;
        }
    }
    assert!(sampled > 400, "the certificates apply lemmas: {sampled}");
}
