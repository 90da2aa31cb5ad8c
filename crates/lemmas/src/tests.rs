use entangle_egraph::{EGraph, RecExpr, Runner};
use entangle_ir::{DType, Shape};

use crate::{registry, rewrites_of, Category, TensorAnalysis};

fn eg_with(leaves: &[(&str, &[i64])]) -> EGraph<TensorAnalysis> {
    eg_with_typed(leaves, &[])
}

fn eg_with_typed(
    f32_leaves: &[(&str, &[i64])],
    i64_leaves: &[(&str, &[i64])],
) -> EGraph<TensorAnalysis> {
    let mut a = TensorAnalysis::default();
    for (n, dims) in f32_leaves {
        a.register_leaf(n, Shape::of(dims), DType::F32);
    }
    for (n, dims) in i64_leaves {
        a.register_leaf(n, Shape::of(dims), DType::I64);
    }
    EGraph::with_analysis(a)
}

fn prove_equiv(eg: EGraph<TensorAnalysis>, lhs: &str, rhs: &str) -> bool {
    let mut eg = eg;
    let l = eg.add_expr(&lhs.parse::<RecExpr>().unwrap());
    let r = eg.add_expr(&rhs.parse::<RecExpr>().unwrap());
    let mut runner = Runner::new(eg).with_iter_limit(12).with_node_limit(20_000);
    runner.run(&rewrites_of(&registry()));
    runner.egraph.find(l) == runner.egraph.find(r)
}

#[test]
fn registry_sanity() {
    let lemmas = registry();
    assert!(lemmas.len() >= 60, "corpus has {} lemmas", lemmas.len());
    let mut names: Vec<&str> = lemmas.iter().map(|l| l.name.as_str()).collect();
    names.sort();
    let before = names.len();
    names.dedup();
    assert_eq!(before, names.len(), "duplicate lemma names");
    // Ids are the positions.
    for (i, l) in lemmas.iter().enumerate() {
        assert_eq!(l.id, i);
    }
    // All four categories are populated.
    for cat in [
        Category::Clean,
        Category::General,
        Category::Vllm,
        Category::Hlo,
    ] {
        assert!(
            lemmas.iter().any(|l| l.category == cat),
            "category {cat:?} empty"
        );
    }
    // Complexity and LOC are plausible (Figure 5: most lemmas < 40 LOC).
    assert!(lemmas.iter().all(|l| l.loc >= 1 && l.loc <= 40));
    assert!(lemmas.iter().all(|l| l.complexity >= 1));
}

#[test]
fn figure2_block_matmul() {
    // A = [4,8] split into A1,A2 = [4,4] along dim 1;
    // B = [8,4] split into B1,B2 = [4,4] along dim 0.
    let eg = eg_with(&[
        ("A1", &[4, 4]),
        ("A2", &[4, 4]),
        ("B1", &[4, 4]),
        ("B2", &[4, 4]),
    ]);
    assert!(prove_equiv(
        eg,
        "(matmul (concat A1 A2 1) (concat B1 B2 0))",
        "(add (matmul A1 B1) (matmul A2 B2))"
    ));
}

#[test]
fn column_parallel_linear() {
    let eg = eg_with(&[("X", &[2, 8]), ("W1", &[8, 4]), ("W2", &[8, 4])]);
    assert!(prove_equiv(
        eg,
        "(matmul X (concat W1 W2 1))",
        "(concat (matmul X W1) (matmul X W2) 1)"
    ));
}

#[test]
fn mlp_tensor_parallel_end_to_end() {
    // gelu(X·[W1a|W1b]) · [W2a; W2b] == gelu(X·W1a)·W2a + gelu(X·W1b)·W2b
    let eg = eg_with(&[
        ("X", &[2, 8]),
        ("W1a", &[8, 16]),
        ("W1b", &[8, 16]),
        ("W2a", &[16, 8]),
        ("W2b", &[16, 8]),
    ]);
    assert!(prove_equiv(
        eg,
        "(matmul (gelu (matmul X (concat W1a W1b 1))) (concat W2a W2b 0))",
        "(add (matmul (gelu (matmul X W1a)) W2a) (matmul (gelu (matmul X W1b)) W2b))"
    ));
}

#[test]
fn batched_matmul_respects_rank_mapping() {
    // [B,S,K] x [K,N] with the concat on the rhs n-dim: output concat dim
    // must be 2 (not 1).
    let eg = eg_with(&[("X", &[2, 3, 8]), ("Wa", &[8, 4]), ("Wb", &[8, 4])]);
    assert!(prove_equiv(
        eg,
        "(matmul X (concat Wa Wb 1))",
        "(concat (matmul X Wa) (matmul X Wb) 2)"
    ));
    let eg = eg_with(&[("X", &[2, 3, 8]), ("Wa", &[8, 4]), ("Wb", &[8, 4])]);
    assert!(!prove_equiv(
        eg,
        "(matmul X (concat Wa Wb 1))",
        "(concat (matmul X Wa) (matmul X Wb) 1)"
    ));
}

#[test]
fn contraction_split_requires_matching_seams() {
    // A split 6|2 against B split 4|4 must NOT produce the block identity.
    let eg = eg_with(&[
        ("A1", &[4, 6]),
        ("A2", &[4, 2]),
        ("B1", &[4, 4]),
        ("B2", &[4, 4]),
    ]);
    assert!(!prove_equiv(
        eg,
        "(matmul (concat A1 A2 1) (concat B1 B2 0))",
        "(add (matmul A1 B1) (matmul A2 B2))"
    ));
}

#[test]
fn unary_distributes_over_concat() {
    let eg = eg_with(&[("X1", &[2, 4]), ("X2", &[2, 4])]);
    assert!(prove_equiv(
        eg,
        "(gelu (concat X1 X2 0))",
        "(concat (gelu X1) (gelu X2) 0)"
    ));
    let eg = eg_with(&[("X1", &[2, 4]), ("X2", &[2, 4])]);
    assert!(prove_equiv(
        eg,
        "(silu (concat X1 X2 1))",
        "(concat (silu X1) (silu X2) 1)"
    ));
}

#[test]
fn rms_norm_concat_needs_non_last_dim() {
    let eg = eg_with(&[("X1", &[2, 8]), ("X2", &[2, 8]), ("W", &[8])]);
    assert!(prove_equiv(
        eg,
        "(rms_norm (concat X1 X2 0) W)",
        "(concat (rms_norm X1 W) (rms_norm X2 W) 0)"
    ));
    // Concat on the normalized (last) dim must NOT distribute.
    let eg = eg_with(&[("X1", &[2, 4]), ("X2", &[2, 4]), ("W", &[4]), ("W8", &[8])]);
    assert!(!prove_equiv(
        eg,
        "(rms_norm (concat X1 X2 1) W8)",
        "(concat (rms_norm X1 W) (rms_norm X2 W) 1)"
    ));
}

#[test]
fn softmax_concat_other_dim() {
    let eg = eg_with(&[("X1", &[2, 4]), ("X2", &[2, 4])]);
    assert!(prove_equiv(
        eg,
        "(softmax (concat X1 X2 0) 1)",
        "(concat (softmax X1 1) (softmax X2 1) 0)"
    ));
}

#[test]
fn slice_of_concat_cases() {
    // Within the first part.
    let eg = eg_with(&[("A", &[4, 2]), ("B", &[4, 2])]);
    assert!(prove_equiv(
        eg,
        "(slice (concat A B 0) 0 1 3)",
        "(slice A 0 1 3)"
    ));
    // Within the second part, shifted.
    let eg = eg_with(&[("A", &[4, 2]), ("B", &[4, 2])]);
    assert!(prove_equiv(
        eg,
        "(slice (concat A B 0) 0 5 7)",
        "(slice B 0 1 3)"
    ));
    // Across the seam.
    let eg = eg_with(&[("A", &[4, 2]), ("B", &[4, 2])]);
    assert!(prove_equiv(
        eg,
        "(slice (concat A B 0) 0 2 6)",
        "(concat (slice A 0 2 4) (slice B 0 0 2) 0)"
    ));
    // Different dims push inside.
    let eg = eg_with(&[("A", &[4, 2]), ("B", &[4, 2])]);
    assert!(prove_equiv(
        eg,
        "(slice (concat A B 0) 1 0 1)",
        "(concat (slice A 1 0 1) (slice B 1 0 1) 0)"
    ));
}

#[test]
fn slice_merge_and_full_identity() {
    let eg = eg_with(&[("X", &[8, 2])]);
    assert!(prove_equiv(
        eg,
        "(concat (slice X 0 0 3) (slice X 0 3 8) 0)",
        "X"
    ));
    let eg = eg_with(&[("X", &[8, 2])]);
    assert!(prove_equiv(eg, "(slice X 0 0 8)", "X"));
    // Partial coverage must not collapse to X.
    let eg = eg_with(&[("X", &[8, 2])]);
    assert!(!prove_equiv(
        eg,
        "(concat (slice X 0 0 3) (slice X 0 3 7) 0)",
        "X"
    ));
}

#[test]
fn slices_cover_concat_constrained() {
    // The Figure 2 reduce-scatter pattern: D1, D2 are slices of S covering
    // it; S must become equivalent to concat(D1, D2).
    let eg = eg_with(&[("C1", &[4, 4]), ("C2", &[4, 4])]);
    assert!(prove_equiv(
        eg,
        "(add C1 C2)",
        "(concat (slice (add C1 C2) 0 0 2) (slice (add C1 C2) 0 2 4) 0)"
    ));
}

#[test]
fn sequence_parallel_through_matmul() {
    // X sharded on rows (sequence); matmul of a shard == slice of the full
    // product, provided the full product exists (constrained lemma).
    let eg = eg_with(&[("X", &[8, 4]), ("W", &[4, 4])]);
    assert!(prove_equiv(
        eg,
        "(concat (matmul (slice X 0 0 4) W) (matmul (slice X 0 4 8) W) 0)",
        "(matmul X W)"
    ));
}

#[test]
fn rope_sequence_split() {
    let eg = eg_with(&[
        ("X1", &[2, 4, 8]),
        ("X2", &[2, 4, 8]),
        ("COS", &[8, 8]),
        ("SIN", &[8, 8]),
    ]);
    assert!(prove_equiv(
        eg,
        "(rope (concat X1 X2 1) COS SIN)",
        "(concat (rope X1 (slice COS 0 0 4) (slice SIN 0 0 4)) (rope X2 (slice COS 0 4 8) (slice SIN 0 4 8)) 1)"
    ));
    // Wrong offsets on the second shard's tables — Bug 1 — must not verify.
    let eg = eg_with(&[
        ("X1", &[2, 4, 8]),
        ("X2", &[2, 4, 8]),
        ("COS", &[8, 8]),
        ("SIN", &[8, 8]),
    ]);
    assert!(!prove_equiv(
        eg,
        "(rope (concat X1 X2 1) COS SIN)",
        "(concat (rope X1 (slice COS 0 0 4) (slice SIN 0 0 4)) (rope X2 (slice COS 0 0 4) (slice SIN 0 0 4)) 1)"
    ));
}

#[test]
fn attention_head_split() {
    let eg = eg_with(&[
        ("Q1", &[2, 4, 8]),
        ("Q2", &[2, 4, 8]),
        ("K1", &[2, 4, 8]),
        ("K2", &[2, 4, 8]),
        ("V1", &[2, 4, 8]),
        ("V2", &[2, 4, 8]),
    ]);
    assert!(prove_equiv(
        eg,
        "(attention (concat Q1 Q2 2) (concat K1 K2 2) (concat V1 V2 2) 4 1)",
        "(concat (attention Q1 K1 V1 2 1) (attention Q2 K2 V2 2 1) 2)"
    ));
}

#[test]
fn embedding_lemmas() {
    let eg = eg_with_typed(&[("W", &[100, 8])], &[("I1", &[2, 4]), ("I2", &[2, 4])]);
    assert!(prove_equiv(
        eg,
        "(embedding W (concat I1 I2 1))",
        "(concat (embedding W I1) (embedding W I2) 1)"
    ));
}

#[test]
fn scalar_mul_algebra() {
    // Correctly scaled auxiliary loss: two 1/2-scaled replicas sum to the
    // original.
    let eg = eg_with(&[("AUX", &[])]);
    assert!(prove_equiv(
        eg,
        "(add (scalar_mul AUX 1 2) (scalar_mul AUX 1 2))",
        "AUX"
    ));
    // Missing the scaling (Bug 2): the sum is 2·AUX, not AUX.
    let eg = eg_with(&[("AUX", &[])]);
    assert!(!prove_equiv(eg, "(add AUX AUX)", "AUX"));
    // Composition reduces fractions.
    let eg = eg_with(&[("X", &[4])]);
    assert!(prove_equiv(eg, "(scalar_mul (scalar_mul X 2 3) 3 2)", "X"));
}

#[test]
fn gradient_accumulation_identity() {
    // MSE over the full batch == properly scaled sum of microbatch losses.
    let eg = eg_with(&[
        ("P1", &[2, 4]),
        ("P2", &[2, 4]),
        ("T1", &[2, 4]),
        ("T2", &[2, 4]),
    ]);
    assert!(prove_equiv(
        eg,
        "(mse_loss (concat P1 P2 0) (concat T1 T2 0))",
        "(scalar_mul (add (mse_loss P1 T1) (mse_loss P2 T2)) 1 2)"
    ));
    // Unscaled accumulation (Bug 6) is NOT the sequential loss.
    let eg = eg_with(&[
        ("P1", &[2, 4]),
        ("P2", &[2, 4]),
        ("T1", &[2, 4]),
        ("T2", &[2, 4]),
    ]);
    assert!(!prove_equiv(
        eg,
        "(mse_loss (concat P1 P2 0) (concat T1 T2 0))",
        "(add (mse_loss P1 T1) (mse_loss P2 T2))"
    ));
}

#[test]
fn binary_over_concats_needs_aligned_seams() {
    let eg = eg_with(&[
        ("A", &[2, 4]),
        ("B", &[2, 4]),
        ("C", &[2, 4]),
        ("D", &[2, 4]),
    ]);
    assert!(prove_equiv(
        eg,
        "(add (concat A B 0) (concat C D 0))",
        "(concat (add A C) (add B D) 0)"
    ));
    // Misaligned seams (3|1 vs 2|2) must not split.
    let eg = eg_with(&[
        ("A", &[3, 4]),
        ("B", &[1, 4]),
        ("C", &[2, 4]),
        ("D", &[2, 4]),
    ]);
    assert!(!prove_equiv(
        eg,
        "(add (concat A B 0) (concat C D 0))",
        "(concat (add A C) (add B D) 0)"
    ));
}

#[test]
fn broadcast_mul_gate_split() {
    // Expert outputs concatenated on hidden dim times a broadcast gate.
    let eg = eg_with(&[("H1", &[2, 3, 4]), ("H2", &[2, 3, 4]), ("G", &[2, 3, 1])]);
    assert!(prove_equiv(
        eg,
        "(mul (concat H1 H2 2) G)",
        "(concat (mul H1 G) (mul H2 G) 2)"
    ));
}

#[test]
fn transpose_lemmas() {
    let eg = eg_with(&[("X", &[4, 6])]);
    assert!(prove_equiv(eg, "(transpose (transpose X 0 1) 0 1)", "X"));
    let eg = eg_with(&[("A", &[2, 6]), ("B", &[2, 6])]);
    assert!(prove_equiv(
        eg,
        "(transpose (concat A B 0) 0 1)",
        "(concat (transpose A 0 1) (transpose B 0 1) 1)"
    ));
}

#[test]
fn pad_slice_roundtrip() {
    let eg = eg_with(&[("X", &[6, 2])]);
    assert!(prove_equiv(eg, "(slice (pad X 0 2 3) 0 2 8)", "X"));
    // Mismatched offsets (Bug 3's shape-preserving fault) do not collapse.
    let eg = eg_with(&[("X", &[6, 2])]);
    assert!(!prove_equiv(eg, "(slice (pad X 0 2 3) 0 1 7)", "X"));
}

#[test]
fn scale_rules_decline_a_fraction_past_i64() {
    // `i64::MIN / -1` overflows a remainder, and the products of composing
    // or adding the second pair's scales leave `i64`: each rule declines.
    let min = i64::MIN;
    for (lhs, rhs) in [
        (format!("(scalar_mul X {min} -1)"), "(scalar_mul X 1 1)"),
        (
            format!("(add (scalar_mul X {min} -1) (scalar_mul X 1 2))"),
            "(scalar_mul X 3 2)",
        ),
        (
            "(scalar_mul (scalar_mul X 4611686018427387904 3) 4 5)".to_owned(),
            "(scalar_mul X 1 1)",
        ),
    ] {
        let eg = eg_with(&[("X", &[4, 4])]);
        assert!(!prove_equiv(eg, &lhs, rhs), "{lhs}");
    }
}

#[test]
fn decode_op_roundtrip() {
    use crate::analysis::Meta;
    use entangle_ir::Op;
    use entangle_symbolic::SymExpr;

    let t = Meta::tensor(Shape::of(&[2, 4]), DType::F32);
    let s = |v: i64| Meta::scalar(SymExpr::constant(v));

    let (op, n) = crate::decode_op("matmul", &[&t, &t]).unwrap();
    assert_eq!(op, Op::Matmul);
    assert_eq!(n, 2);

    let (op, n) = crate::decode_op("slice", &[&t, &s(1), &s(0), &s(2)]).unwrap();
    assert_eq!(
        op,
        Op::Slice {
            dim: 1,
            start: entangle_ir::Dim::from(0),
            end: entangle_ir::Dim::from(2)
        }
    );
    assert_eq!(n, 1);

    let (op, _) = crate::decode_op("attention", &[&t, &t, &t, &s(4), &s(1)]).unwrap();
    assert_eq!(
        op,
        Op::Attention {
            heads: 4,
            causal: true
        }
    );

    assert!(crate::decode_op("unknown_op", &[&t]).is_none());
    // Missing scalar attrs fail gracefully.
    assert!(crate::decode_op("slice", &[&t, &t, &s(0), &s(2)]).is_none());
}

#[test]
fn analysis_infers_shapes_through_expressions() {
    let mut eg = eg_with(&[("X", &[2, 8]), ("W", &[8, 4])]);
    let id = eg.add_expr(&"(gelu (matmul X W))".parse::<RecExpr>().unwrap());
    let meta = &eg[id].data;
    assert_eq!(meta.shape, Some(Shape::of(&[2, 4])));
    assert_eq!(meta.dtype, Some(DType::F32));
    // Unknown leaves stay unknown.
    let u = eg.add_expr(&"(gelu MYSTERY)".parse::<RecExpr>().unwrap());
    assert_eq!(eg[u].data.shape, None);
}

#[test]
fn vocabulary_matches_decode_op() {
    use crate::{decode_op, Meta};
    use entangle_ir::{Attr, AttrKind, AttrValues, Dim, Op, OPS};
    use entangle_symbolic::{SymExpr, SymVar};
    // The term form is the tensor children, then `attr_scalars`; the
    // collectives are lowered before they become terms.
    let tensor = Meta::tensor(Shape::of(&[4, 4]), DType::F32);
    let symbolic = Dim(SymExpr::from_terms(3, [(SymVar::from_index(0), 2)]));
    for row in OPS {
        let mut values = AttrValues::default();
        for (value, &(_, kind)) in values.iter_mut().zip(row.attrs) {
            *value = Some(match kind {
                AttrKind::Index => Attr::Index(1),
                AttrKind::Int => Attr::Int(-3),
                AttrKind::Flag => Attr::Flag(true),
                AttrKind::Dim => Attr::Dim(symbolic.clone()),
                AttrKind::Dims => Attr::Dims(vec![Dim::from(2), symbolic.clone()]),
                AttrKind::Indices => Attr::Indices(vec![1, 0]),
            });
        }
        let op = Op::from_attrs(row, values);
        let tensors = row.arity.unwrap_or(2);
        let scalars: Vec<Meta> = op.attr_scalars().into_iter().map(Meta::scalar).collect();
        let metas: Vec<&Meta> = std::iter::repeat_n(&tensor, tensors)
            .chain(&scalars)
            .collect();
        let want = (!op.is_collective()).then(|| (op.clone(), tensors));
        assert_eq!(decode_op(row.name, &metas), want, "{}", row.name);
    }
    assert_eq!(OPS.iter().filter(|row| row.op.is_collective()).count(), 3);
}

mod condition_gating {
    //! Negative tests: conditioned lemmas must NOT fire when their side
    //! conditions fail — each case here is a soundness bug if it flips.

    use super::*;

    #[test]
    fn attention_head_split_needs_head_boundary() {
        // Hidden 8 with 4 heads has head_dim 2; a 3|5 split does not land
        // on a head boundary and must not split.
        let eg = eg_with(&[
            ("Q1", &[2, 4, 3]),
            ("Q2", &[2, 4, 5]),
            ("K1", &[2, 4, 3]),
            ("K2", &[2, 4, 5]),
            ("V1", &[2, 4, 3]),
            ("V2", &[2, 4, 5]),
        ]);
        assert!(!prove_equiv(
            eg,
            "(attention (concat Q1 Q2 2) (concat K1 K2 2) (concat V1 V2 2) 4 1)",
            "(concat (attention Q1 K1 V1 2 1) (attention Q2 K2 V2 2 1) 2)"
        ));
    }

    #[test]
    fn attention_head_split_needs_matching_kv_seams() {
        // q split 4|4 but k/v split 2|6: outputs must not be equated.
        let eg = eg_with(&[
            ("Q1", &[2, 4, 4]),
            ("Q2", &[2, 4, 4]),
            ("K1", &[2, 4, 2]),
            ("K2", &[2, 4, 6]),
            ("V1", &[2, 4, 2]),
            ("V2", &[2, 4, 6]),
        ]);
        assert!(!prove_equiv(
            eg,
            "(attention (concat Q1 Q2 2) (concat K1 K2 2) (concat V1 V2 2) 4 1)",
            "(concat (attention Q1 K1 V1 2 1) (attention Q2 K2 V2 2 1) 2)"
        ));
    }

    #[test]
    fn rope_hidden_split_needs_even_boundary() {
        // A 3|5 hidden split breaks the interleaved pairs.
        let eg = eg_with(&[
            ("X1", &[2, 4, 3]),
            ("X2", &[2, 4, 5]),
            ("C1", &[4, 3]),
            ("C2", &[4, 5]),
            ("S1", &[4, 3]),
            ("S2", &[4, 5]),
        ]);
        assert!(!prove_equiv(
            eg,
            "(rope (concat X1 X2 2) (concat C1 C2 1) (concat S1 S2 1))",
            "(concat (rope X1 C1 S1) (rope X2 C2 S2) 2)"
        ));
    }

    #[test]
    fn matmul_lhs_split_never_fires_on_contraction_dim() {
        // Splitting only the contraction dim of the left operand is wrong.
        let eg = eg_with(&[("A1", &[4, 2]), ("A2", &[4, 2]), ("B", &[4, 4])]);
        assert!(!prove_equiv(
            eg,
            "(matmul (concat A1 A2 1) B)",
            "(concat (matmul A1 B) (matmul A2 B) 1)"
        ));
    }

    #[test]
    fn matmul_batch_split_needs_broadcastable_other() {
        // Both operands carry a real batch dim; splitting only one is wrong.
        let eg = eg_with(&[("A1", &[1, 4, 4]), ("A2", &[1, 4, 4]), ("B", &[2, 4, 4])]);
        assert!(!prove_equiv(
            eg,
            "(matmul (concat A1 A2 0) B)",
            "(concat (matmul A1 B) (matmul A2 B) 0)"
        ));
    }

    #[test]
    fn broadcast_mul_needs_size_one_axis() {
        // The gate has a real (non-1) dim along the split axis.
        let eg = eg_with(&[("H1", &[2, 3, 4]), ("H2", &[2, 3, 4]), ("G", &[2, 3, 8])]);
        assert!(!prove_equiv(
            eg,
            "(mul (concat H1 H2 2) G)",
            "(concat (mul H1 G) (mul H2 G) 2)"
        ));
    }

    #[test]
    fn softmax_does_not_distribute_over_its_own_dim() {
        let eg = eg_with(&[("X1", &[2, 4]), ("X2", &[2, 4])]);
        assert!(!prove_equiv(
            eg,
            "(softmax (concat X1 X2 1) 1)",
            "(concat (softmax X1 1) (softmax X2 1) 1)"
        ));
    }

    #[test]
    fn scalar_mul_one_requires_nonzero() {
        let eg = eg_with(&[("X", &[4])]);
        assert!(!prove_equiv(eg, "(scalar_mul X 0 0)", "X"));
    }

    #[test]
    fn unknown_shapes_block_conditioned_lemmas() {
        // Leaves without registered metadata: shape conditions cannot be
        // proved, so conditioned lemmas stay silent (completeness loss,
        // never a soundness loss).
        let eg = eg_with(&[]); // nothing registered
        assert!(!prove_equiv(
            eg,
            "(rms_norm (concat U1 U2 0) W)",
            "(concat (rms_norm U1 W) (rms_norm U2 W) 0)"
        ));
    }

    #[test]
    fn sum_dim_reindexes_concat_axis() {
        // Reducing dim 0 (no keepdim) shifts a dim-1 concat down to dim 0.
        let eg = eg_with(&[("A", &[3, 2, 5]), ("B", &[3, 4, 5])]);
        assert!(prove_equiv(
            eg,
            "(sum_dim (concat A B 1) 0 0)",
            "(concat (sum_dim A 0 0) (sum_dim B 0 0) 0)"
        ));
        // With keepdim the axis stays put.
        let eg = eg_with(&[("A", &[3, 2, 5]), ("B", &[3, 4, 5])]);
        assert!(prove_equiv(
            eg,
            "(sum_dim (concat A B 1) 0 1)",
            "(concat (sum_dim A 0 1) (sum_dim B 0 1) 1)"
        ));
    }

    #[test]
    fn mean_all_weights_by_numel() {
        let eg = eg_with(&[("A", &[2, 3]), ("B", &[6, 3])]);
        assert!(prove_equiv(
            eg,
            "(mean_all (concat A B 0))",
            "(add (scalar_mul (mean_all A) 1 4) (scalar_mul (mean_all B) 3 4))"
        ));
    }

    #[test]
    fn mean_dim_distributes_over_other_dims_only() {
        // Mean over the last dim distributes over a batch concat.
        let eg = eg_with(&[("A", &[2, 4]), ("B", &[3, 4])]);
        assert!(prove_equiv(
            eg,
            "(mean_dim (concat A B 0) 1 1)",
            "(concat (mean_dim A 1 1) (mean_dim B 1 1) 0)"
        ));
        // Mean over the concat dim itself must NOT distribute (weighted!).
        let eg = eg_with(&[("A", &[2, 4]), ("B", &[6, 4])]);
        assert!(!prove_equiv(
            eg,
            "(mean_dim (concat A B 0) 0 0)",
            "(concat (mean_dim A 0 0) (mean_dim B 0 0) 0)"
        ));
    }

    #[test]
    fn binary_concat_split_allows_broadcast_on_other_axes() {
        // [2,6] x [2,1] parts: seams on dim 0 align; dim 1 broadcasts.
        let eg = eg_with(&[
            ("A", &[2, 6]),
            ("B", &[2, 6]),
            ("C", &[2, 1]),
            ("D", &[2, 1]),
        ]);
        assert!(prove_equiv(
            eg,
            "(mul (concat A B 0) (concat C D 0))",
            "(concat (mul A C) (mul B D) 0)"
        ));
        // But a size-1 axis cannot be the concat seam itself.
        let eg = eg_with(&[
            ("A", &[2, 6]),
            ("B", &[2, 6]),
            ("C", &[1, 6]),
            ("D", &[1, 6]),
        ]);
        assert!(!prove_equiv(
            eg,
            "(mul (concat A B 0) (concat C D 0))",
            "(concat (mul A C) (mul B D) 0)"
        ));
    }

    #[test]
    fn aligned_concat_requires_bigger_first_operand() {
        // The comm-swapped order (smaller-rank concat first) must NOT fire
        // with the smaller operand's axis as the output dim — the
        // regression test for the soundness bug the harness caught.
        let eg = eg_with(&[
            ("E1", &[2, 8, 4]),
            ("E2", &[2, 8, 4]),
            ("P1", &[8, 4]),
            ("P2", &[8, 4]),
        ]);
        // Correct direction: rank-3 concat (dim 2? no—dim aligning): the
        // canonical use is bias add: [B,S,Ha|Hb] + [Ha|Hb].
        let eg2 = eg_with(&[
            ("X1", &[2, 8, 4]),
            ("X2", &[2, 8, 4]),
            ("B1", &[4]),
            ("B2", &[4]),
        ]);
        assert!(prove_equiv(
            eg2,
            "(add (concat X1 X2 2) (concat B1 B2 0))",
            "(concat (add X1 B1) (add X2 B2) 2)"
        ));
        // Swapped operands must not produce a dim-0 concat of rank-3 sums.
        assert!(!prove_equiv(
            eg,
            "(add (concat P1 P2 0) (concat E1 E2 1))",
            "(concat (add P1 E1) (add P2 E2) 0)"
        ));
    }

    #[test]
    fn ones_like_canonicalization_unifies_seeds() {
        let eg = eg_with(&[("L1", &[]), ("L2", &[])]);
        assert!(prove_equiv(eg, "(ones_like L1)", "(ones_like L2)"));
        // Different shapes stay apart.
        let eg = eg_with(&[("A", &[2]), ("B", &[3])]);
        assert!(!prove_equiv(eg, "(ones_like A)", "(ones_like B)"));
    }

    #[test]
    fn scalar_linearity_family() {
        let eg = eg_with(&[("A", &[2, 4]), ("B", &[4, 3])]);
        assert!(prove_equiv(
            eg,
            "(matmul A (scalar_mul B 2 3))",
            "(scalar_mul (matmul A B) 2 3)"
        ));
        let eg = eg_with(&[("X", &[4])]);
        assert!(prove_equiv(eg, "(neg X)", "(scalar_mul X -1 1)"));
        let eg = eg_with(&[("X", &[2, 4])]);
        assert!(prove_equiv(
            eg,
            "(sum_dim (scalar_mul X 3 2) 0 0)",
            "(scalar_mul (sum_dim X 0 0) 3 2)"
        ));
    }

    #[test]
    fn multiway_slices_cover() {
        // Four adjacent slices of X must stitch back to X (the world-size-4
        // reduce-scatter shape).
        let eg = eg_with(&[("X", &[8, 2])]);
        assert!(prove_equiv(
            eg,
            "(concat (concat (concat (slice X 0 0 2) (slice X 0 2 4) 0) (slice X 0 4 6) 0) (slice X 0 6 8) 0)",
            "X"
        ));
    }

    #[test]
    fn scalar_mul_normalization() {
        let eg = eg_with(&[("X", &[4])]);
        assert!(prove_equiv(eg, "(scalar_mul X 2 8)", "(scalar_mul X 1 4)"));
        let eg = eg_with(&[("X", &[4])]);
        assert!(!prove_equiv(eg, "(scalar_mul X 2 8)", "(scalar_mul X 1 2)"));
    }
}

mod concrete_validation {
    //! Randomized lemma validation against the runtime — the reproduction's
    //! version of §5's lemma checking.

    use entangle_ir::{Dim, Op};
    use entangle_runtime::{eval_op, random_value, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sl(x: &Value, dim: usize, lo: i64, hi: i64) -> Value {
        eval_op(
            &Op::Slice {
                dim,
                start: Dim::from(lo),
                end: Dim::from(hi),
            },
            &[x],
        )
        .unwrap()
    }

    fn cat(a: &Value, b: &Value, dim: usize) -> Value {
        eval_op(&Op::Concat { dim }, &[a, b]).unwrap()
    }

    #[test]
    fn validate_unary_concat_lemmas() {
        let mut rng = StdRng::seed_from_u64(11);
        for op in [
            Op::Gelu,
            Op::Silu,
            Op::Relu,
            Op::Tanh,
            Op::Exp,
            Op::Neg,
            Op::Sigmoid,
        ] {
            let a = random_value(&mut rng, &[3, 4]);
            let b = random_value(&mut rng, &[2, 4]);
            let lhs = eval_op(&op, &[&cat(&a, &b, 0)]).unwrap();
            let rhs = cat(
                &eval_op(&op, &[&a]).unwrap(),
                &eval_op(&op, &[&b]).unwrap(),
                0,
            );
            assert!(lhs.allclose(&rhs, 1e-12), "{op} over concat");
        }
    }

    #[test]
    fn validate_matmul_block_lemmas() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = random_value(&mut rng, &[5, 6]);
        let b = random_value(&mut rng, &[6, 7]);
        let full = eval_op(&Op::Matmul, &[&a, &b]).unwrap();
        // Contraction split.
        let lhs = eval_op(
            &Op::Add,
            &[
                &eval_op(&Op::Matmul, &[&sl(&a, 1, 0, 3), &sl(&b, 0, 0, 3)]).unwrap(),
                &eval_op(&Op::Matmul, &[&sl(&a, 1, 3, 6), &sl(&b, 0, 3, 6)]).unwrap(),
            ],
        )
        .unwrap();
        assert!(lhs.allclose(&full, 1e-9));
        // Column split.
        let cols = cat(
            &eval_op(&Op::Matmul, &[&a, &sl(&b, 1, 0, 4)]).unwrap(),
            &eval_op(&Op::Matmul, &[&a, &sl(&b, 1, 4, 7)]).unwrap(),
            1,
        );
        assert!(cols.allclose(&full, 1e-9));
    }

    #[test]
    fn validate_rms_norm_concat() {
        let mut rng = StdRng::seed_from_u64(13);
        let x1 = random_value(&mut rng, &[2, 8]);
        let x2 = random_value(&mut rng, &[3, 8]);
        let w = random_value(&mut rng, &[8]);
        let lhs = eval_op(&Op::RmsNorm, &[&cat(&x1, &x2, 0), &w]).unwrap();
        let rhs = cat(
            &eval_op(&Op::RmsNorm, &[&x1, &w]).unwrap(),
            &eval_op(&Op::RmsNorm, &[&x2, &w]).unwrap(),
            0,
        );
        assert!(lhs.allclose(&rhs, 1e-12));
    }

    #[test]
    fn validate_rope_seq_split() {
        let mut rng = StdRng::seed_from_u64(14);
        let (s, h) = (6, 4);
        let x = random_value(&mut rng, &[2, s, h]);
        let cos = random_value(&mut rng, &[s, h]);
        let sin = random_value(&mut rng, &[s, h]);
        let full = eval_op(&Op::Rope, &[&x, &cos, &sin]).unwrap();
        let part = cat(
            &eval_op(
                &Op::Rope,
                &[&sl(&x, 1, 0, 3), &sl(&cos, 0, 0, 3), &sl(&sin, 0, 0, 3)],
            )
            .unwrap(),
            &eval_op(
                &Op::Rope,
                &[&sl(&x, 1, 3, 6), &sl(&cos, 0, 3, 6), &sl(&sin, 0, 3, 6)],
            )
            .unwrap(),
            1,
        );
        assert!(part.allclose(&full, 1e-12));
        // And the buggy offsets really do differ numerically.
        let buggy = cat(
            &eval_op(
                &Op::Rope,
                &[&sl(&x, 1, 0, 3), &sl(&cos, 0, 0, 3), &sl(&sin, 0, 0, 3)],
            )
            .unwrap(),
            &eval_op(
                &Op::Rope,
                &[&sl(&x, 1, 3, 6), &sl(&cos, 0, 0, 3), &sl(&sin, 0, 0, 3)],
            )
            .unwrap(),
            1,
        );
        assert!(!buggy.allclose(&full, 1e-6));
    }

    #[test]
    fn validate_mse_weighted_split() {
        let mut rng = StdRng::seed_from_u64(15);
        let p1 = random_value(&mut rng, &[2, 3]);
        let p2 = random_value(&mut rng, &[4, 3]);
        let t1 = random_value(&mut rng, &[2, 3]);
        let t2 = random_value(&mut rng, &[4, 3]);
        let full = eval_op(&Op::MseLoss, &[&cat(&p1, &p2, 0), &cat(&t1, &t2, 0)]).unwrap();
        let l1 = eval_op(&Op::MseLoss, &[&p1, &t1]).unwrap().as_scalar();
        let l2 = eval_op(&Op::MseLoss, &[&p2, &t2]).unwrap().as_scalar();
        let weighted = (6.0 * l1 + 12.0 * l2) / 18.0;
        assert!((full.as_scalar() - weighted).abs() < 1e-12);
    }

    #[test]
    fn validate_softmax_concat_other_dim() {
        let mut rng = StdRng::seed_from_u64(16);
        let a = random_value(&mut rng, &[2, 5]);
        let b = random_value(&mut rng, &[3, 5]);
        let lhs = eval_op(&Op::Softmax { dim: 1 }, &[&cat(&a, &b, 0)]).unwrap();
        let rhs = cat(
            &eval_op(&Op::Softmax { dim: 1 }, &[&a]).unwrap(),
            &eval_op(&Op::Softmax { dim: 1 }, &[&b]).unwrap(),
            0,
        );
        assert!(lhs.allclose(&rhs, 1e-12));
    }
}

#[test]
#[should_panic(expected = "duplicate lemma name registered")]
fn registry_rejects_duplicate_names() {
    let mut b = crate::corpus::Builder::new_for_tests();
    b.uni(
        "dup-name",
        "(add ?a ?b)",
        "(add ?b ?a)",
        Category::Clean,
        &[],
    );
    b.uni(
        "dup-name",
        "(mul ?a ?b)",
        "(mul ?b ?a)",
        Category::Clean,
        &[],
    );
}

mod term_semantics {
    use entangle_egraph::Symbol;
    use entangle_ir::{DType, IrError, Shape};
    use proptest::prelude::*;

    use crate::{infer_application, mint_ones_leaf, parse_ones_leaf, ApplyError, Meta};

    proptest! {
        #[test]
        fn a_minted_leaf_parses_back_to_its_shape(
            dims in proptest::collection::vec(0i64..100_000, 0..5),
        ) {
            let name = mint_ones_leaf(&Shape::of(&dims));
            let parsed: Vec<i64> = parse_ones_leaf(&name)
                .expect("well-formed")
                .expect("synthetic")
                .iter()
                .map(|&d| d as i64)
                .collect();
            prop_assert_eq!(parsed, dims, "{}", name);
        }
    }

    #[test]
    fn the_leaf_grammar_rejects_what_its_three_predecessors_rejected() {
        assert_eq!(mint_ones_leaf(&Shape::of(&[2, 3])), "~ones[2, 3]");
        assert_eq!(mint_ones_leaf(&Shape::scalar()), "~ones[]");
        // Lenient exactly where they were: spacing, an explicit plus.
        for (name, dims) in [
            ("~ones[]", vec![]),
            ("~ones[ ]", vec![]),
            ("~ones[2,3]", vec![2, 3]),
            ("~ones[ 2 , +3 ]", vec![2, 3]),
        ] {
            assert_eq!(parse_ones_leaf(name), Ok(Some(dims)), "{name}");
        }
        for ordinary in ["x", "ones[2]", "x~ones[2]"] {
            assert_eq!(parse_ones_leaf(ordinary), Ok(None), "{ordinary}");
        }
        let n = entangle_symbolic::SymCtx::default().var("n");
        let symbolic = Shape(vec![n.into(), 3.into()]);
        for malformed in [
            "~",
            "~twos[2]",
            "~ones",
            "~ones2, 3]",
            "~ones[2, 3",
            "~ones[2,]",
            "~ones[2 3]",
            "~ones[-2]",
            "~ones[-0]",
            "~ones[9223372036854775808]",
            mint_ones_leaf(&symbolic).as_str(),
        ] {
            assert!(parse_ones_leaf(malformed).is_err(), "{malformed}");
        }
    }

    #[test]
    fn the_shape_rule_says_why_it_has_no_answer() {
        let t = |dims: &[i64]| Meta::tensor(Shape::of(dims), DType::F32);
        let int = |v: i64| Meta::scalar(v.into());
        let apply = |head: &str, children: &[Meta]| {
            infer_application(Symbol::new(head), &children.iter().collect::<Vec<_>>())
        };
        assert_eq!(apply("matmul", &[t(&[2, 3]), t(&[3, 5])]), Ok(t(&[2, 5])));
        assert_eq!(apply("sum_dim", &[t(&[2, 3]), int(1), int(0)]), Ok(t(&[2])));
        let no_dtype = Meta {
            dtype: None,
            ..t(&[2])
        };
        for (head, children, message) in [
            ("frobnicate", vec![t(&[2])], "unknown operator frobnicate"),
            // An attribute position fed a tensor does not decode either.
            (
                "sum_dim",
                vec![t(&[2, 3]), t(&[1])],
                "unknown operator sum_dim",
            ),
            // Nor does an application short of its tensor operands (a typo
            // in a `--map` used to index past the children and panic).
            ("add", vec![t(&[2])], "unknown operator add"),
            ("neg", vec![Meta::unknown()], "tensor operand lacks shape"),
            ("neg", vec![no_dtype], "tensor operand lacks dtype"),
        ] {
            let e = apply(head, &children).unwrap_err();
            assert_eq!(e.to_string(), message);
        }
        let mismatch = apply("matmul", &[t(&[2, 3]), t(&[4, 5])]).unwrap_err();
        let text = mismatch.to_string();
        assert!(text.starts_with("shape error: matmul"), "{text}");
        // The relation builder's rendering: inference errors pass through,
        // the rest are `Invalid`.
        assert!(matches!(IrError::from(mismatch), IrError::Shape(_)));
        assert_eq!(
            IrError::from(ApplyError::OperandLacksShape),
            IrError::Invalid("tensor operand lacks shape".to_owned())
        );
    }
}
