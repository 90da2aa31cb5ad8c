use std::collections::HashMap;

use entangle_ir::{DType, Dim, GraphBuilder, Op};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernels::View;
use crate::{eval_graph, eval_op, random_value, reassoc_rel_bound, Tolerance, Value};

fn v(shape: &[usize], data: &[f64]) -> Value {
    Value::new(shape.to_vec(), data.to_vec()).unwrap()
}

#[test]
fn value_indexing() {
    let t = v(&[2, 3], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    assert_eq!(t.get(&[0, 0]), 0.0);
    assert_eq!(t.get(&[1, 2]), 5.0);
    assert_eq!(t.strides(), vec![3, 1]);
    let s = Value::scalar(7.0);
    assert_eq!(s.as_scalar(), 7.0);
}

#[test]
fn elementwise_with_broadcast() {
    let a = v(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
    let b = v(&[2], &[10.0, 20.0]);
    let out = eval_op(&Op::Add, &[&a, &b]).unwrap();
    assert_eq!(out.data(), &[11.0, 22.0, 13.0, 24.0]);
    let out = eval_op(&Op::Mul, &[&a, &Value::scalar(2.0)]).unwrap();
    assert_eq!(out.data(), &[2.0, 4.0, 6.0, 8.0]);
}

#[test]
fn matmul_2d_matches_manual() {
    let a = v(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let b = v(&[3, 2], &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
    let out = eval_op(&Op::Matmul, &[&a, &b]).unwrap();
    assert_eq!(out.shape(), &[2, 2]);
    assert_eq!(out.data(), &[58.0, 64.0, 139.0, 154.0]);
}

#[test]
fn matmul_batched_broadcast() {
    let a = v(&[2, 1, 2], &[1.0, 2.0, 3.0, 4.0]); // batch 2 of [1,2]
    let b = v(&[2, 2], &[1.0, 0.0, 0.0, 1.0]); // identity, no batch
    let out = eval_op(&Op::Matmul, &[&a, &b]).unwrap();
    assert_eq!(out.shape(), &[2, 1, 2]);
    assert_eq!(out.data(), &[1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn slice_concat_roundtrip() {
    let x = v(&[2, 4], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    let left = eval_op(
        &Op::Slice {
            dim: 1,
            start: Dim::from(0),
            end: Dim::from(2),
        },
        &[&x],
    )
    .unwrap();
    let right = eval_op(
        &Op::Slice {
            dim: 1,
            start: Dim::from(2),
            end: Dim::from(4),
        },
        &[&x],
    )
    .unwrap();
    let back = eval_op(&Op::Concat { dim: 1 }, &[&left, &right]).unwrap();
    assert_eq!(back, x);
}

#[test]
fn transpose_permute() {
    let x = v(&[2, 3], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    let t = eval_op(&Op::Transpose { d0: 0, d1: 1 }, &[&x]).unwrap();
    assert_eq!(t.shape(), &[3, 2]);
    assert_eq!(t.get(&[2, 1]), x.get(&[1, 2]));
    let p = eval_op(&Op::Permute { perm: vec![1, 0] }, &[&x]).unwrap();
    assert_eq!(p, t);
}

#[test]
fn pad_inserts_zeros() {
    let x = v(&[2], &[1.0, 2.0]);
    let p = eval_op(
        &Op::Pad {
            dim: 0,
            before: Dim::from(1),
            after: Dim::from(2),
        },
        &[&x],
    )
    .unwrap();
    assert_eq!(p.data(), &[0.0, 1.0, 2.0, 0.0, 0.0]);
}

#[test]
fn softmax_rows_sum_to_one() {
    let x = v(&[2, 3], &[1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
    let s = eval_op(&Op::Softmax { dim: 1 }, &[&x]).unwrap();
    for r in 0..2 {
        let sum: f64 = (0..3).map(|c| s.get(&[r, c])).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
    // Monotone in the logits.
    assert!(s.get(&[0, 2]) > s.get(&[0, 0]));
}

#[test]
fn reductions() {
    let x = v(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let s = eval_op(
        &Op::SumDim {
            dim: 1,
            keepdim: false,
        },
        &[&x],
    )
    .unwrap();
    assert_eq!(s.data(), &[6.0, 15.0]);
    let m = eval_op(
        &Op::MeanDim {
            dim: 0,
            keepdim: true,
        },
        &[&x],
    )
    .unwrap();
    assert_eq!(m.shape(), &[1, 3]);
    assert_eq!(m.data(), &[2.5, 3.5, 4.5]);
    assert_eq!(eval_op(&Op::SumAll, &[&x]).unwrap().as_scalar(), 21.0);
    assert_eq!(eval_op(&Op::MeanAll, &[&x]).unwrap().as_scalar(), 3.5);
}

#[test]
fn layer_norm_normalizes() {
    let x = v(&[1, 4], &[1.0, 2.0, 3.0, 4.0]);
    let w = v(&[4], &[1.0, 1.0, 1.0, 1.0]);
    let b = v(&[4], &[0.0, 0.0, 0.0, 0.0]);
    let y = eval_op(&Op::LayerNorm, &[&x, &w, &b]).unwrap();
    let mean: f64 = y.data().iter().sum::<f64>() / 4.0;
    assert!(mean.abs() < 1e-9);
    let var: f64 = y.data().iter().map(|v| v * v).sum::<f64>() / 4.0;
    assert!((var - 1.0).abs() < 1e-3);
}

#[test]
fn rms_norm_scales() {
    let x = v(&[1, 2], &[3.0, 4.0]);
    let w = v(&[2], &[1.0, 1.0]);
    let y = eval_op(&Op::RmsNorm, &[&x, &w]).unwrap();
    // rms = sqrt((9+16)/2) = sqrt(12.5)
    let rms = 12.5f64.sqrt();
    assert!((y.get(&[0, 0]) - 3.0 / rms).abs() < 1e-4);
    assert!((y.get(&[0, 1]) - 4.0 / rms).abs() < 1e-4);
}

/// Interleaved rope tables: the pair (2i, 2i+1) shares one angle.
fn rope_tables(s: usize, h: usize) -> (Value, Value) {
    let mut cos = Value::zeros(vec![s, h]);
    let mut sin = Value::zeros(vec![s, h]);
    for t in 0..s {
        for i in 0..h / 2 {
            let angle = (t as f64) / 10f64.powf(2.0 * i as f64 / h as f64);
            for j in [2 * i, 2 * i + 1] {
                cos.set(&[t, j], angle.cos());
                sin.set(&[t, j], angle.sin());
            }
        }
    }
    (cos, sin)
}

#[test]
fn rope_preserves_norm() {
    // Rotary embedding is a rotation: per-pair norms are preserved when
    // cos/sin come from a real angle table.
    let (s, h) = (3, 4);
    let (cos, sin) = rope_tables(s, h);
    let mut rng = StdRng::seed_from_u64(7);
    let x = random_value(&mut rng, &[2, s, h]);
    let y = eval_op(&Op::Rope, &[&x, &cos, &sin]).unwrap();
    let norm = |val: &Value| val.data().iter().map(|v| v * v).sum::<f64>();
    assert!((norm(&x) - norm(&y)).abs() < 1e-9);
}

#[test]
fn rope_commutes_with_even_hidden_split() {
    // The property tensor-parallel head sharding relies on: slicing x and
    // the tables at an even hidden boundary commutes with rope.
    let (s, h) = (4, 8);
    let (cos, sin) = rope_tables(s, h);
    let mut rng = StdRng::seed_from_u64(8);
    let x = random_value(&mut rng, &[2, s, h]);
    let full = eval_op(&Op::Rope, &[&x, &cos, &sin]).unwrap();
    let sl = |v: &Value, dim: usize, lo: i64, hi: i64| {
        eval_op(
            &Op::Slice {
                dim,
                start: Dim::from(lo),
                end: Dim::from(hi),
            },
            &[v],
        )
        .unwrap()
    };
    let left = eval_op(
        &Op::Rope,
        &[&sl(&x, 2, 0, 4), &sl(&cos, 1, 0, 4), &sl(&sin, 1, 0, 4)],
    )
    .unwrap();
    let right = eval_op(
        &Op::Rope,
        &[&sl(&x, 2, 4, 8), &sl(&cos, 1, 4, 8), &sl(&sin, 1, 4, 8)],
    )
    .unwrap();
    let cat = eval_op(&Op::Concat { dim: 2 }, &[&left, &right]).unwrap();
    // Rope rotates each lane with its own table entries; an even split
    // reorders no arithmetic, so the halves must agree bit-for-bit.
    assert!(cat.within(&full, &Tolerance::Exact));
}

#[test]
fn embedding_gathers_rows() {
    let w = v(&[3, 2], &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
    let ids = v(&[2], &[2.0, 0.0]);
    let out = eval_op(&Op::Embedding, &[&w, &ids]).unwrap();
    assert_eq!(out.shape(), &[2, 2]);
    assert_eq!(out.data(), &[20.0, 21.0, 0.0, 1.0]);
}

#[test]
fn losses() {
    let p = v(&[2], &[1.0, 2.0]);
    let t = v(&[2], &[0.0, 0.0]);
    assert_eq!(eval_op(&Op::MseLoss, &[&p, &t]).unwrap().as_scalar(), 2.5);

    let logits = v(&[1, 3], &[0.0, 0.0, 10.0]);
    let targets = v(&[1], &[2.0]);
    let ce = eval_op(&Op::CrossEntropy, &[&logits, &targets]).unwrap();
    assert!(ce.as_scalar() < 0.01, "confident correct prediction");
}

#[test]
fn collectives() {
    let a = v(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
    let b = v(&[2, 2], &[10.0, 20.0, 30.0, 40.0]);
    let ar = eval_op(&Op::AllReduce, &[&a, &b]).unwrap();
    assert_eq!(ar.data(), &[11.0, 22.0, 33.0, 44.0]);

    let ag = eval_op(&Op::AllGather { dim: 0 }, &[&a, &b]).unwrap();
    assert_eq!(ag.shape(), &[4, 2]);

    let rs0 = eval_op(
        &Op::ReduceScatter {
            dim: 0,
            rank: 0,
            world: 2,
        },
        &[&a, &b],
    )
    .unwrap();
    let rs1 = eval_op(
        &Op::ReduceScatter {
            dim: 0,
            rank: 1,
            world: 2,
        },
        &[&a, &b],
    )
    .unwrap();
    assert_eq!(rs0.data(), &[11.0, 22.0]);
    assert_eq!(rs1.data(), &[33.0, 44.0]);
    // reduce_scatter shards concatenate back to the all_reduce.
    let cat = eval_op(&Op::Concat { dim: 0 }, &[&rs0, &rs1]).unwrap();
    assert_eq!(cat, ar);
}

#[test]
fn scalar_mul_rational() {
    let x = v(&[2], &[3.0, 6.0]);
    let out = eval_op(&Op::ScalarMul { numer: 1, denom: 3 }, &[&x]).unwrap();
    assert_eq!(out.data(), &[1.0, 2.0]);
}

#[test]
fn graph_eval_end_to_end() {
    let mut g = GraphBuilder::new("mlp");
    let x = g.input("x", &[1, 4], DType::F32);
    let w1 = g.input("w1", &[4, 8], DType::F32);
    let w2 = g.input("w2", &[8, 2], DType::F32);
    let h = g.apply("h", Op::Matmul, &[x, w1]).unwrap();
    let a = g.apply("a", Op::Gelu, &[h]).unwrap();
    let y = g.apply("y", Op::Matmul, &[a, w2]).unwrap();
    g.mark_output(y);
    let graph = g.finish().unwrap();

    let mut rng = StdRng::seed_from_u64(0);
    let mut inputs = HashMap::new();
    inputs.insert(x, random_value(&mut rng, &[1, 4]));
    inputs.insert(w1, random_value(&mut rng, &[4, 8]));
    inputs.insert(w2, random_value(&mut rng, &[8, 2]));
    let env = eval_graph(&graph, &inputs).unwrap();
    assert_eq!(env[&y].shape(), &[1, 2]);

    // Missing input is an error.
    inputs.remove(&w2);
    assert!(eval_graph(&graph, &inputs).is_err());
}

#[test]
fn tensor_parallel_matmul_identity() {
    // The core TP correctness fact, concretely: column-split B, compute
    // shards, concat == full matmul; row-split with sum == full matmul.
    let mut rng = StdRng::seed_from_u64(42);
    let a = random_value(&mut rng, &[3, 4]);
    let b = random_value(&mut rng, &[4, 6]);
    let full = eval_op(&Op::Matmul, &[&a, &b]).unwrap();

    // Column parallel.
    let b0 = eval_op(
        &Op::Slice {
            dim: 1,
            start: Dim::from(0),
            end: Dim::from(3),
        },
        &[&b],
    )
    .unwrap();
    let b1 = eval_op(
        &Op::Slice {
            dim: 1,
            start: Dim::from(3),
            end: Dim::from(6),
        },
        &[&b],
    )
    .unwrap();
    let c0 = eval_op(&Op::Matmul, &[&a, &b0]).unwrap();
    let c1 = eval_op(&Op::Matmul, &[&a, &b1]).unwrap();
    let cat = eval_op(&Op::Concat { dim: 1 }, &[&c0, &c1]).unwrap();
    // Column sharding splits no contraction: every output element is the
    // same dot product in the same order — bit-exact.
    assert!(cat.within(&full, &Tolerance::Exact));

    // Row parallel.
    let a0 = eval_op(
        &Op::Slice {
            dim: 1,
            start: Dim::from(0),
            end: Dim::from(2),
        },
        &[&a],
    )
    .unwrap();
    let a1 = eval_op(
        &Op::Slice {
            dim: 1,
            start: Dim::from(2),
            end: Dim::from(4),
        },
        &[&a],
    )
    .unwrap();
    let b0 = eval_op(
        &Op::Slice {
            dim: 0,
            start: Dim::from(0),
            end: Dim::from(2),
        },
        &[&b],
    )
    .unwrap();
    let b1 = eval_op(
        &Op::Slice {
            dim: 0,
            start: Dim::from(2),
            end: Dim::from(4),
        },
        &[&b],
    )
    .unwrap();
    let p0 = eval_op(&Op::Matmul, &[&a0, &b0]).unwrap();
    let p1 = eval_op(&Op::Matmul, &[&a1, &b1]).unwrap();
    let sum = eval_op(&Op::Add, &[&p0, &p1]).unwrap();
    // Row sharding splits the width-4 contraction: reassociation-only,
    // with at most 2·4 rounding sites differing between the two orders.
    assert!(sum.within(&full, &Tolerance::Relative(reassoc_rel_bound(8))));
}

#[test]
fn attention_head_split_identity() {
    // The fused-attention lemma, concretely: splitting heads across ranks
    // and concatenating outputs equals full multi-head attention.
    let mut rng = StdRng::seed_from_u64(3);
    let (s, h, heads) = (5, 8, 4);
    let q = random_value(&mut rng, &[2, s, h]);
    let k = random_value(&mut rng, &[2, s, h]);
    let v_ = random_value(&mut rng, &[2, s, h]);
    for causal in [false, true] {
        let full = eval_op(&Op::Attention { heads, causal }, &[&q, &k, &v_]).unwrap();
        let half = Op::Attention {
            heads: heads / 2,
            causal,
        };
        let sl = |x: &Value, lo: i64, hi: i64| {
            eval_op(
                &Op::Slice {
                    dim: 2,
                    start: Dim::from(lo),
                    end: Dim::from(hi),
                },
                &[x],
            )
            .unwrap()
        };
        let o0 = eval_op(&half, &[&sl(&q, 0, 4), &sl(&k, 0, 4), &sl(&v_, 0, 4)]).unwrap();
        let o1 = eval_op(&half, &[&sl(&q, 4, 8), &sl(&k, 4, 8), &sl(&v_, 4, 8)]).unwrap();
        let cat = eval_op(&Op::Concat { dim: 2 }, &[&o0, &o1]).unwrap();
        // Attention is computed head by head; splitting heads across ranks
        // reorders no per-head arithmetic — bit-exact.
        assert!(cat.within(&full, &Tolerance::Exact), "causal={causal}");
    }
}

#[test]
fn attention_causal_masks_future() {
    // With a causal mask, position 0's output depends only on position 0.
    let q = v(&[1, 2, 2], &[1.0, 0.0, 0.0, 1.0]);
    let k = q.clone();
    let v1 = v(&[1, 2, 2], &[5.0, 6.0, 7.0, 8.0]);
    let out = eval_op(
        &Op::Attention {
            heads: 1,
            causal: true,
        },
        &[&q, &k, &v1],
    )
    .unwrap();
    assert_eq!(out.get(&[0, 0, 0]), 5.0);
    assert_eq!(out.get(&[0, 0, 1]), 6.0);
}

/// Input the graph validator would have refused still gets an error, not
/// a panic: too few inputs, and attributes that make a width zero or repeat
/// a dim. (`ScalarMul { denom: 0 }` is refused rather than evaluated to
/// `inf`/`NaN`: the symbolic model has no node for it.)
#[test]
fn malformed_operator_input_is_an_error_not_a_panic() {
    let x = v(&[2, 4], &[1.0; 8]);
    let w = v(&[4], &[1.0; 4]);
    let empty_seq = v(&[0, 4], &[]);
    let cases: [(Op, Vec<&Value>); 6] = [
        (Op::Relu, vec![]),
        (Op::Add, vec![&x]),
        (Op::LayerNorm, vec![&x, &w]),
        (
            Op::ReduceScatter {
                dim: 0,
                rank: 0,
                world: 0,
            },
            vec![&x, &x],
        ),
        (Op::ScalarMul { numer: 1, denom: 0 }, vec![&x]),
        (Op::Permute { perm: vec![0, 0] }, vec![&x]),
    ];
    for (op, inputs) in &cases {
        let got = eval_op(op, inputs);
        assert!(
            matches!(got, Err(crate::EvalError::Shape(_))),
            "{op} on {} inputs: {got:?}",
            inputs.len()
        );
    }
    // A zero-length sequence is a shape like any other: nothing to rotate
    // or attend over, an empty result (and no division by `s · h`).
    let no_rows = [&empty_seq; 3];
    let attention = Op::Attention {
        heads: 2,
        causal: true,
    };
    assert_eq!(eval_op(&Op::Rope, &no_rows), Ok(empty_seq.clone()));
    assert_eq!(eval_op(&attention, &no_rows), Ok(empty_seq.clone()));
    // So is an embedding table without rows, as long as no id reads it.
    let no_ids = v(&[0], &[]);
    assert_eq!(
        eval_op(&Op::Embedding, &[&empty_seq, &no_ids]),
        Ok(empty_seq.clone())
    );
    assert!(eval_op(&Op::Embedding, &[&empty_seq, &v(&[1], &[0.0])]).is_err());
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_value(max_dim: usize) -> impl Strategy<Value = Value> {
        proptest::collection::vec(1usize..=max_dim, 1..=3).prop_flat_map(|shape| {
            let n: usize = shape.iter().product();
            proptest::collection::vec(-5.0f64..5.0, n)
                .prop_map(move |data| Value::new(shape.clone(), data).unwrap())
        })
    }

    proptest! {
        /// concat(slice(x, 0, k), slice(x, k, n)) == x along any dim.
        #[test]
        fn slice_concat_identity(x in arb_value(5), frac in 0.0f64..1.0) {
            for dim in 0..x.rank() {
                let n = x.shape()[dim];
                let k = ((n as f64) * frac) as usize;
                let l = eval_op(&Op::Slice { dim, start: Dim::from(0), end: Dim::from(k as i64) }, &[&x]).unwrap();
                let r = eval_op(&Op::Slice { dim, start: Dim::from(k as i64), end: Dim::from(n as i64) }, &[&x]).unwrap();
                let back = eval_op(&Op::Concat { dim }, &[&l, &r]).unwrap();
                prop_assert_eq!(&back, &x);
            }
        }

        /// Transposing twice is the identity.
        #[test]
        fn transpose_involution(x in arb_value(4)) {
            if x.rank() >= 2 {
                let t = Op::Transpose { d0: 0, d1: x.rank() - 1 };
                let once = eval_op(&t, &[&x]).unwrap();
                let twice = eval_op(&t, &[&once]).unwrap();
                prop_assert_eq!(&twice, &x);
            }
        }

        /// sum_dim distributes over concat along the reduced dim.
        #[test]
        fn sum_dim_of_concat(a in arb_value(4), frac in 0.0f64..1.0) {
            let dim = 0;
            let n = a.shape()[dim];
            let k = ((n as f64) * frac) as usize;
            let l = eval_op(&Op::Slice { dim, start: Dim::from(0), end: Dim::from(k as i64) }, &[&a]).unwrap();
            let r = eval_op(&Op::Slice { dim, start: Dim::from(k as i64), end: Dim::from(n as i64) }, &[&a]).unwrap();
            let sum_full = eval_op(&Op::SumDim { dim, keepdim: false }, &[&a]).unwrap();
            let sl = eval_op(&Op::SumDim { dim, keepdim: false }, &[&l]).unwrap();
            let sr = eval_op(&Op::SumDim { dim, keepdim: false }, &[&r]).unwrap();
            let sum_parts = eval_op(&Op::Add, &[&sl, &sr]).unwrap();
            // Splitting a width-n reduction differs in at most 2n rounding
            // sites from the unsplit fold.
            let tol = Tolerance::Relative(reassoc_rel_bound(2 * n as u64));
            prop_assert!(sum_parts.within(&sum_full, &tol));
        }

        /// Horner over the shape is the strides dot product, on every
        /// shape including size-1 dims and rank 0.
        #[test]
        fn offset_equals_strides_form(
            dims in proptest::collection::vec((1usize..5, 0usize..5), 0..5),
        ) {
            let shape: Vec<usize> = dims.iter().map(|&(d, _)| d).collect();
            let index: Vec<usize> = dims.iter().map(|&(d, i)| i % d).collect();
            let t = Value::zeros(shape);
            let view = View { shape: t.shape(), data: t.data() };
            let by_strides: usize = index.iter().zip(t.strides()).map(|(i, s)| i * s).sum();
            prop_assert_eq!(view.offset(&index), by_strides);
            prop_assert!(by_strides < t.numel());
        }

        /// Matmul distributes over a row-split of the left operand
        /// (the basis of sequence parallelism).
        #[test]
        fn matmul_row_split(m in 2usize..5, k in 1usize..4, n in 1usize..4, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_value(&mut rng, &[m, k]);
            let b = random_value(&mut rng, &[k, n]);
            let full = eval_op(&Op::Matmul, &[&a, &b]).unwrap();
            let split = m / 2;
            let a0 = eval_op(&Op::Slice { dim: 0, start: Dim::from(0), end: Dim::from(split as i64) }, &[&a]).unwrap();
            let a1 = eval_op(&Op::Slice { dim: 0, start: Dim::from(split as i64), end: Dim::from(m as i64) }, &[&a]).unwrap();
            let c0 = eval_op(&Op::Matmul, &[&a0, &b]).unwrap();
            let c1 = eval_op(&Op::Matmul, &[&a1, &b]).unwrap();
            let cat = eval_op(&Op::Concat { dim: 0 }, &[&c0, &c1]).unwrap();
            // A row split of the left operand partitions output rows; each
            // row's dot products are untouched — bit-exact.
            prop_assert!(cat.within(&full, &Tolerance::Exact));
        }
    }
}
