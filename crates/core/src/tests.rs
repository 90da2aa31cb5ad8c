use entangle_ir::{DType, Dim, GraphBuilder, Op, TensorId};

use crate::{
    append_expr, check_expectation, check_refinement, CheckOptions, ExpectationError,
    RefinementError, Relation,
};

/// The paper's Figure 1/2 graphs: sequential `F = (A x B) - E` vs the
/// 2-rank contraction-split + reduce-scatter implementation.
fn figure1() -> (
    entangle_ir::Graph,
    entangle_ir::Graph,
    TensorId,
    TensorId,
    TensorId,
) {
    let mut gs = GraphBuilder::new("seq");
    let a = gs.input("A", &[4, 8], DType::F32);
    let b = gs.input("B", &[8, 4], DType::F32);
    let e = gs.input("E", &[4, 4], DType::F32);
    let c = gs.apply("C", Op::Matmul, &[a, b]).unwrap();
    let f = gs.apply("F", Op::Sub, &[c, e]).unwrap();
    gs.mark_output(f);
    let gs = gs.finish().unwrap();

    let mut gd = GraphBuilder::new("dist");
    let a1 = gd.input("A1", &[4, 4], DType::F32);
    let a2 = gd.input("A2", &[4, 4], DType::F32);
    let b1 = gd.input("B1", &[4, 4], DType::F32);
    let b2 = gd.input("B2", &[4, 4], DType::F32);
    let e1 = gd.input("E1", &[2, 4], DType::F32);
    let e2 = gd.input("E2", &[2, 4], DType::F32);
    let c1 = gd.apply("C1", Op::Matmul, &[a1, b1]).unwrap();
    let c2 = gd.apply("C2", Op::Matmul, &[a2, b2]).unwrap();
    let d1 = gd
        .apply(
            "D1",
            Op::ReduceScatter {
                dim: 0,
                rank: 0,
                world: 2,
            },
            &[c1, c2],
        )
        .unwrap();
    let d2 = gd
        .apply(
            "D2",
            Op::ReduceScatter {
                dim: 0,
                rank: 1,
                world: 2,
            },
            &[c1, c2],
        )
        .unwrap();
    let f1 = gd.apply("F1", Op::Sub, &[d1, e1]).unwrap();
    let f2 = gd.apply("F2", Op::Sub, &[d2, e2]).unwrap();
    gd.mark_output(f1);
    gd.mark_output(f2);
    let gd = gd.finish().unwrap();
    (gs, gd, f, c, e)
}

fn figure1_relation(gs: &entangle_ir::Graph, gd: &entangle_ir::Graph) -> Relation {
    let mut ri = Relation::builder(gs, gd);
    ri.map("A", "(concat A1 A2 1)").unwrap();
    ri.map("B", "(concat B1 B2 0)").unwrap();
    ri.map("E", "(concat E1 E2 0)").unwrap();
    ri.build()
}

#[test]
fn figure1_refines() {
    let (gs, gd, f, c, _) = figure1();
    let ri = figure1_relation(&gs, &gd);
    let outcome = check_refinement(&gs, &gd, &ri, &CheckOptions::default()).unwrap();
    // The output relation is complete and maps F to concat(F1, F2).
    assert!(outcome.output_relation.is_complete_for(gs.outputs()));
    let f_maps: Vec<String> = outcome
        .output_relation
        .mappings(f)
        .unwrap()
        .iter()
        .map(|m| m.to_string())
        .collect();
    assert!(
        f_maps.iter().any(|m| m == "(concat F1 F2 0)"),
        "F mappings: {f_maps:?}"
    );
    // The intermediate C gets both the reduce-sum form and the
    // reduce-scatter concat form, as in §4's walkthrough.
    let c_maps: Vec<String> = outcome
        .full_relation
        .mappings(c)
        .unwrap()
        .iter()
        .map(|m| m.to_string())
        .collect();
    assert!(
        c_maps.iter().any(|m| m == "(add C1 C2)"),
        "C mappings: {c_maps:?}"
    );
    assert!(
        c_maps.iter().any(|m| m == "(concat D1 D2 0)"),
        "C mappings: {c_maps:?}"
    );
    // Lemmas were actually applied.
    assert!(outcome.lemma_stats.total() > 0);
    assert_eq!(outcome.op_reports.len(), gs.num_nodes());
}

#[test]
fn figure1_bug4_sharded_instead_of_replicated() {
    // §2.2's SP-vs-sharding bug: the off-diagonal blocks are never
    // computed. Map A and B as if they were *compatibly* partitioned when
    // the implementation actually computes X1×A1 and X2×A2 only. Here we
    // model it by lying in the input relation the way the buggy config did:
    // the sharded weights cannot reconstruct the full matmul.
    let mut gs = GraphBuilder::new("seq");
    let x = gs.input("X", &[4, 8], DType::F32);
    let a = gs.input("A", &[8, 8], DType::F32);
    let c = gs.apply("C", Op::Matmul, &[x, a]).unwrap();
    gs.mark_output(c);
    let gs = gs.finish().unwrap();

    let mut gd = GraphBuilder::new("dist");
    let x1 = gd.input("X1", &[2, 8], DType::F32);
    let x2 = gd.input("X2", &[2, 8], DType::F32);
    // BUG: weights sharded on the contraction dim while inputs are
    // sequence-sharded; each rank computes X_i × A_i with A_i: [8, 8]
    // replicated-shape slices that don't cover the contraction.
    let a1 = gd.input("A1", &[8, 8], DType::F32);
    let a2 = gd.input("A2", &[8, 8], DType::F32);
    let c1 = gd.apply("C1", Op::Matmul, &[x1, a1]).unwrap();
    let c2 = gd.apply("C2", Op::Matmul, &[x2, a2]).unwrap();
    gd.mark_output(c1);
    gd.mark_output(c2);
    let gd = gd.finish().unwrap();

    let mut ri = Relation::builder(&gs, &gd);
    ri.map("X", "(concat X1 X2 0)").unwrap();
    // The buggy configuration: A is NOT replicated; the ranks hold
    // different halves stacked where a replica was expected. There is no
    // clean expression reconstructing A from A1/A2 that also makes the
    // matmul work out, so we model what the config actually gave each rank.
    ri.map("A", "A1").unwrap();
    let ri = ri.build();

    // C2 = X2 × A2 is unrelated to X2 × A, so the matmul cannot be mapped:
    // only rank 0's shard is derivable, and concat needs both.
    let err = check_refinement(&gs, &gd, &ri, &CheckOptions::default());
    // With A ↦ A1 only, C maps to concat(C1, slice...)? No: C's rows 2..4
    // require X2 × A1 which G_d never computes. Refinement must fail at C.
    match err {
        Err(RefinementError::OperatorUnmapped { operator, .. }) => {
            assert_eq!(operator, "C");
        }
        other => panic!("expected OperatorUnmapped at C, got {other:?}"),
    }
}

#[test]
fn missing_input_mapping_is_reported() {
    let (gs, gd, ..) = figure1();
    let mut ri = Relation::builder(&gs, &gd);
    ri.map("A", "(concat A1 A2 1)").unwrap();
    ri.map("B", "(concat B1 B2 0)").unwrap();
    let ri = ri.build(); // E missing
    match check_refinement(&gs, &gd, &ri, &CheckOptions::default()) {
        Err(RefinementError::MissingInputMapping { tensor }) => assert_eq!(tensor, "E"),
        other => panic!("expected MissingInputMapping, got {other:?}"),
    }
}

#[test]
fn relation_builder_validates() {
    let (gs, gd, ..) = figure1();
    let mut ri = Relation::builder(&gs, &gd);
    // Unknown names.
    assert!(ri.map("NOPE", "A1").is_err());
    assert!(ri.map("A", "NOPE").is_err());
    // Shape mismatch: A is [4,8], A1 is [4,4].
    assert!(ri.map("A", "A1").is_err());
    // Wrong concat dim.
    assert!(ri.map("A", "(concat A1 A2 0)").is_err());
    // An operator short of its operands is an error, not an index panic.
    assert!(ri.map("A", "(add A1)").is_err());
    // Correct.
    assert!(ri.map("A", "(concat A1 A2 1)").is_ok());
}

#[test]
fn relation_builder_helpers() {
    let (gs, gd, ..) = figure1();
    let mut ri = Relation::builder(&gs, &gd);
    ri.sharded("A", &["A1", "A2"], 1).unwrap();
    ri.sharded("B", &["B1", "B2"], 0).unwrap();
    ri.sharded("E", &["E1", "E2"], 0).unwrap();
    let rel = ri.build();
    assert_eq!(rel.len(), 3);
    let outcome = check_refinement(&gs, &gd, &rel, &CheckOptions::default()).unwrap();
    assert!(outcome.output_relation.is_complete_for(gs.outputs()));
}

#[test]
fn replicated_inputs() {
    // A sequential identity over a replicated tensor: both replicas map it.
    let mut gs = GraphBuilder::new("seq");
    let x = gs.input("X", &[4], DType::F32);
    let y = gs.apply("Y", Op::Relu, &[x]).unwrap();
    gs.mark_output(y);
    let gs = gs.finish().unwrap();

    let mut gd = GraphBuilder::new("dist");
    let xa = gd.input("Xa", &[4], DType::F32);
    let xb = gd.input("Xb", &[4], DType::F32);
    let ya = gd.apply("Ya", Op::Relu, &[xa]).unwrap();
    let yb = gd.apply("Yb", Op::Relu, &[xb]).unwrap();
    gd.mark_output(ya);
    gd.mark_output(yb);
    let gd = gd.finish().unwrap();

    let mut ri = Relation::builder(&gs, &gd);
    ri.replicated("X", &["Xa", "Xb"]).unwrap();
    let outcome = check_refinement(&gs, &gd, &ri.build(), &CheckOptions::default()).unwrap();
    let maps: Vec<String> = outcome
        .output_relation
        .mappings(y)
        .unwrap()
        .iter()
        .map(|m| m.to_string())
        .collect();
    assert!(maps.contains(&"Ya".to_owned()) && maps.contains(&"Yb".to_owned()));
}

#[test]
fn column_parallel_mlp_with_all_reduce() {
    // Row-parallel second matmul with an explicit all_reduce: the Megatron
    // TP MLP shape.
    let mut gs = GraphBuilder::new("mlp");
    let x = gs.input("X", &[2, 8], DType::F32);
    let w1 = gs.input("W1", &[8, 16], DType::F32);
    let w2 = gs.input("W2", &[16, 8], DType::F32);
    let h = gs.apply("H", Op::Matmul, &[x, w1]).unwrap();
    let g = gs.apply("G", Op::Gelu, &[h]).unwrap();
    let y = gs.apply("Y", Op::Matmul, &[g, w2]).unwrap();
    gs.mark_output(y);
    let gs = gs.finish().unwrap();

    let mut gd = GraphBuilder::new("mlp-tp2");
    let x0 = gd.input("X0", &[2, 8], DType::F32); // replicated input
    let w1a = gd.input("W1a", &[8, 8], DType::F32);
    let w1b = gd.input("W1b", &[8, 8], DType::F32);
    let w2a = gd.input("W2a", &[8, 8], DType::F32);
    let w2b = gd.input("W2b", &[8, 8], DType::F32);
    let ha = gd.apply("Ha", Op::Matmul, &[x0, w1a]).unwrap();
    let hb = gd.apply("Hb", Op::Matmul, &[x0, w1b]).unwrap();
    let ga = gd.apply("Ga", Op::Gelu, &[ha]).unwrap();
    let gb = gd.apply("Gb", Op::Gelu, &[hb]).unwrap();
    let ya = gd.apply("Ya", Op::Matmul, &[ga, w2a]).unwrap();
    let yb = gd.apply("Yb", Op::Matmul, &[gb, w2b]).unwrap();
    let y0 = gd.apply("Y0", Op::AllReduce, &[ya, yb]).unwrap();
    gd.mark_output(y0);
    let gd = gd.finish().unwrap();

    let mut ri = Relation::builder(&gs, &gd);
    ri.map("X", "X0").unwrap();
    ri.sharded("W1", &["W1a", "W1b"], 1).unwrap();
    ri.sharded("W2", &["W2a", "W2b"], 0).unwrap();
    let outcome = check_refinement(&gs, &gd, &ri.build(), &CheckOptions::default()).unwrap();
    let maps: Vec<String> = outcome
        .output_relation
        .mappings(y)
        .unwrap()
        .iter()
        .map(|m| m.to_string())
        .collect();
    assert!(maps.contains(&"Y0".to_owned()), "Y mappings: {maps:?}");
}

#[test]
fn missing_all_reduce_detected_at_consumer() {
    // Bug 7's shape: drop the all_reduce after the row-parallel matmul and
    // feed the partial sums onward; the subsequent operator cannot be
    // mapped.
    let mut gs = GraphBuilder::new("seq");
    let x = gs.input("X", &[2, 8], DType::F32);
    let w = gs.input("W", &[8, 4], DType::F32);
    let b = gs.input("Bias", &[4], DType::F32);
    let h = gs.apply("H", Op::Matmul, &[x, w]).unwrap();
    let y = gs.apply("Y", Op::Add, &[h, b]).unwrap();
    gs.mark_output(y);
    let gs = gs.finish().unwrap();

    let mut gd = GraphBuilder::new("buggy");
    let xa = gd.input("Xa", &[2, 4], DType::F32);
    let xb = gd.input("Xb", &[2, 4], DType::F32);
    let wa = gd.input("Wa", &[4, 4], DType::F32);
    let wb = gd.input("Wb", &[4, 4], DType::F32);
    let bias = gd.input("Bias_d", &[4], DType::F32);
    let ha = gd.apply("Ha", Op::Matmul, &[xa, wa]).unwrap();
    let hb = gd.apply("Hb", Op::Matmul, &[xb, wb]).unwrap();
    // BUG: no all_reduce; each rank adds the bias to its partial product.
    let ya = gd.apply("Ya", Op::Add, &[ha, bias]).unwrap();
    let yb = gd.apply("Yb", Op::Add, &[hb, bias]).unwrap();
    gd.mark_output(ya);
    gd.mark_output(yb);
    let gd = gd.finish().unwrap();

    let mut ri = Relation::builder(&gs, &gd);
    ri.map("X", "(concat Xa Xb 1)").unwrap();
    ri.map("W", "(concat Wa Wb 0)").unwrap();
    ri.map("Bias", "Bias_d").unwrap();
    match check_refinement(&gs, &gd, &ri.build(), &CheckOptions::default()) {
        // H still maps (add of partials is the clean reduce-sum), and Y has
        // clean mappings too — but only over G_d *intermediates* (Ha/Hb mixed
        // with Ya/Yb). Listing 1 line 9 restricts R_o to O(G_d), so the
        // output cannot be reconstructed from what the deployment emits.
        Err(RefinementError::OutputUnmapped {
            tensor,
            operator,
            intermediate_mappings,
        }) => {
            assert_eq!(tensor, "Y");
            assert_eq!(operator, "Y");
            assert!(!intermediate_mappings.is_empty());
        }
        other => panic!("expected failure at Y, got {other:?}"),
    }
}

#[test]
fn expectation_checking() {
    let (gs, gd, ..) = figure1();
    let ri = figure1_relation(&gs, &gd);
    // Expected combiner: F == concat(F1, F2, 0). Holds.
    let fs: entangle_egraph::RecExpr = "F".parse().unwrap();
    let fd: entangle_egraph::RecExpr = "(concat F1 F2 0)".parse().unwrap();
    check_expectation(&gs, &gd, &ri, &fs, &fd, &CheckOptions::default()).unwrap();

    // Wrong combiner: F == concat(F2, F1, 0) (shards swapped). Violated.
    let fd_bad: entangle_egraph::RecExpr = "(concat F2 F1 0)".parse().unwrap();
    match check_expectation(&gs, &gd, &ri, &fs, &fd_bad, &CheckOptions::default()) {
        Err(ExpectationError::Violated { .. }) => {}
        other => panic!("expected violation, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn append_expr_builds_combiner_nodes() {
    let (_, gd, ..) = figure1();
    let expr: entangle_egraph::RecExpr = "(concat F1 F2 0)".parse().unwrap();
    let (g2, out) = append_expr(&gd, &expr, "combined").unwrap();
    assert_eq!(g2.num_nodes(), gd.num_nodes() + 1);
    assert_eq!(g2.tensor(out).shape, entangle_ir::Shape::of(&[4, 4]));
    assert!(g2.outputs().contains(&out));
    // Unknown names and scalar misuse fail.
    assert!(append_expr(&gd, &"(concat NOPE F2 0)".parse().unwrap(), "x").is_err());
    assert!(append_expr(&gd, &"7".parse().unwrap(), "x").is_err());
}

#[test]
fn sequence_parallel_elementwise_chain() {
    // SP over an elementwise chain with an all_gather at the end.
    let mut gs = GraphBuilder::new("seq");
    let x = gs.input("X", &[8, 4], DType::F32);
    let g = gs.apply("G", Op::Gelu, &[x]).unwrap();
    let y = gs.apply("Y", Op::Silu, &[g]).unwrap();
    gs.mark_output(y);
    let gs = gs.finish().unwrap();

    let mut gd = GraphBuilder::new("sp2");
    let x0 = gd.input("X0", &[4, 4], DType::F32);
    let x1 = gd.input("X1", &[4, 4], DType::F32);
    let g0 = gd.apply("G0", Op::Gelu, &[x0]).unwrap();
    let g1 = gd.apply("G1", Op::Gelu, &[x1]).unwrap();
    let y0 = gd.apply("Y0", Op::Silu, &[g0]).unwrap();
    let y1 = gd.apply("Y1", Op::Silu, &[g1]).unwrap();
    let full = gd
        .apply("Yfull", Op::AllGather { dim: 0 }, &[y0, y1])
        .unwrap();
    gd.mark_output(full);
    let gd = gd.finish().unwrap();

    let mut ri = Relation::builder(&gs, &gd);
    ri.map("X", "(concat X0 X1 0)").unwrap();
    let outcome = check_refinement(&gs, &gd, &ri.build(), &CheckOptions::default()).unwrap();
    let maps: Vec<String> = outcome
        .output_relation
        .mappings(y)
        .unwrap()
        .iter()
        .map(|m| m.to_string())
        .collect();
    assert!(maps.contains(&"Yfull".to_owned()), "Y mappings: {maps:?}");
}

#[test]
fn frontier_closure_prunes_unrelated_subgraph() {
    // Listing 3 on Figure 1's matmul `C = A x B`: the closure pulls in the
    // rank-local matmuls and the reduce-scatters they feed. The E1/E2
    // branch (`F1 = D1 - E1`, `F2 = D2 - E2`) consumes tensors unrelated to
    // C's inputs, so its definitions and leaves never enter the problem.
    let (gs, gd, ..) = figure1();
    let per_input: Vec<Vec<entangle_egraph::RecExpr>> = vec![
        vec!["(concat A1 A2 1)".parse().unwrap()],
        vec!["(concat B1 B2 0)".parse().unwrap()],
    ];
    let (problem, back) = crate::memo::build_problem(
        &gs,
        &gd,
        &gs.nodes()[0],
        &per_input,
        &crate::memo::GdConsumers::new(&gd),
    );
    let real = |canon: &str| {
        back.rename_leaf(entangle_egraph::Symbol::new(canon))
            .as_str()
            .to_owned()
    };
    let rounds: Vec<Vec<String>> = problem
        .def_rounds
        .iter()
        .map(|defs| defs.iter().map(|d| real(&d.output)).collect())
        .collect();
    assert_eq!(rounds, [["C1", "C2", "D1", "D2"]]);
    let leaves: Vec<String> = problem.leaves.iter().map(|l| real(&l.name)).collect();
    assert_eq!(leaves, ["A1", "A2", "B1", "B2", "C1", "C2", "D1", "D2"]);
}

#[test]
fn symbolic_shapes_check() {
    // Sequence length is symbolic; the SP split still verifies because the
    // symbolic solver proves the seam arithmetic.
    let mut ctx = entangle_symbolic::SymCtx::new();
    let n = ctx.var("n");
    ctx.assume(
        n.clone(),
        entangle_symbolic::Rel::Ge,
        entangle_symbolic::SymExpr::constant(1),
    );
    let two_n = n.clone() * 2;

    let mut gs = GraphBuilder::new("seq");
    let x = gs.input_shaped(
        "X",
        entangle_ir::Shape(vec![Dim(two_n.clone()), Dim::from(4)]),
        DType::F32,
    );
    let y = gs.apply("Y", Op::Gelu, &[x]).unwrap();
    gs.mark_output(y);
    let gs = gs.finish().unwrap();

    let mut gd = GraphBuilder::new("sp");
    let x0 = gd.input_shaped(
        "X0",
        entangle_ir::Shape(vec![Dim(n.clone()), Dim::from(4)]),
        DType::F32,
    );
    let x1 = gd.input_shaped(
        "X1",
        entangle_ir::Shape(vec![Dim(n.clone()), Dim::from(4)]),
        DType::F32,
    );
    let y0 = gd.apply("Y0", Op::Gelu, &[x0]).unwrap();
    let y1 = gd.apply("Y1", Op::Gelu, &[x1]).unwrap();
    gd.mark_output(y0);
    gd.mark_output(y1);
    let gd = gd.finish().unwrap();

    let mut ri = Relation::builder(&gs, &gd);
    ri.map("X", "(concat X0 X1 0)").unwrap();
    let opts = CheckOptions {
        sym_ctx: ctx,
        ..CheckOptions::default()
    };
    let outcome = check_refinement(&gs, &gd, &ri.build(), &opts).unwrap();
    let maps: Vec<String> = outcome
        .output_relation
        .mappings(y)
        .unwrap()
        .iter()
        .map(|m| m.to_string())
        .collect();
    assert!(
        maps.iter().any(|m| m == "(concat Y0 Y1 0)"),
        "Y mappings: {maps:?}"
    );
}

#[test]
fn custom_clean_ops_tighten_the_check() {
    // With `add` removed from the clean set, the reduce-sum mapping
    // sum(C1, C2) for Figure 2's C disappears; only the reduce-scatter
    // concat form remains, and the output still verifies through it.
    let (gs, gd, f, c, _) = figure1();
    let ri = figure1_relation(&gs, &gd);
    let opts = CheckOptions {
        clean: crate::CleanOps::new(vec!["slice", "concat", "transpose", "permute", "identity"]),
        ..CheckOptions::default()
    };
    let outcome = check_refinement(&gs, &gd, &ri, &opts).unwrap();
    let c_maps: Vec<String> = outcome
        .full_relation
        .mappings(c)
        .unwrap()
        .iter()
        .map(|m| m.to_string())
        .collect();
    assert!(c_maps.iter().all(|m| !m.starts_with("(add")), "{c_maps:?}");
    assert!(c_maps.iter().any(|m| m == "(concat D1 D2 0)"), "{c_maps:?}");
    let f_maps: Vec<String> = outcome
        .output_relation
        .mappings(f)
        .unwrap()
        .iter()
        .map(|m| m.to_string())
        .collect();
    assert!(f_maps.iter().any(|m| m == "(concat F1 F2 0)"));
}

#[test]
fn relation_display_uses_gs_names() {
    let (gs, gd, ..) = figure1();
    let ri = figure1_relation(&gs, &gd);
    let outcome = check_refinement(&gs, &gd, &ri, &CheckOptions::default()).unwrap();
    let shown = outcome.output_relation.display(&gs).to_string();
    assert!(shown.contains("F -> "), "{shown}");
    assert!(shown.contains("(concat F1 F2 0)"), "{shown}");
}

#[test]
fn lemma_stats_accumulate_and_iterate() {
    let (gs, gd, ..) = figure1();
    let ri = figure1_relation(&gs, &gd);
    let outcome = check_refinement(&gs, &gd, &ri, &CheckOptions::default()).unwrap();
    let total: u64 = outcome.lemma_stats.iter().map(|(_, c)| c).sum();
    assert_eq!(total, outcome.lemma_stats.total());
    assert!(outcome.lemma_stats.count("matmul-concat-contraction") >= 1);
    assert_eq!(outcome.lemma_stats.count("no-such-lemma"), 0);
}

#[test]
fn op_reports_track_processing_order() {
    let (gs, gd, ..) = figure1();
    let ri = figure1_relation(&gs, &gd);
    let outcome = check_refinement(&gs, &gd, &ri, &CheckOptions::default()).unwrap();
    let names: Vec<&str> = outcome.op_reports.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, vec!["C", "F"]);
    assert!(outcome.op_reports.iter().all(|r| r.mappings >= 1));
    assert!(outcome.op_reports.iter().all(|r| r.egraph_nodes > 0));
}

#[test]
fn max_mappings_prunes_but_preserves_verdict() {
    let (gs, gd, f, ..) = figure1();
    let ri = figure1_relation(&gs, &gd);
    for max in [1usize, 2, 8] {
        let opts = CheckOptions {
            max_mappings: max,
            ..CheckOptions::default()
        };
        let outcome = check_refinement(&gs, &gd, &ri, &opts).unwrap();
        let maps = outcome.full_relation.mappings(f).unwrap();
        assert!(maps.len() <= max);
        assert!(!maps.is_empty());
    }
}

#[test]
fn synthetic_leaves_never_appear_in_relations() {
    // ones_like canonicalization mints `~ones…` leaves inside the e-graph;
    // relations must only ever reference real G_d tensors.
    let mut gs = GraphBuilder::new("seq");
    let x = gs.input("x", &[4], DType::F32);
    let ones = gs.apply("ones", Op::OnesLike, &[x]).unwrap();
    let y = gs.apply("y", Op::Mul, &[x, ones]).unwrap();
    gs.mark_output(y);
    let gs = gs.finish().unwrap();

    let mut gd = GraphBuilder::new("dist");
    let x0 = gd.input("x.0", &[2], DType::F32);
    let x1 = gd.input("x.1", &[2], DType::F32);
    let o0 = gd.apply("ones.0", Op::OnesLike, &[x0]).unwrap();
    let o1 = gd.apply("ones.1", Op::OnesLike, &[x1]).unwrap();
    let y0 = gd.apply("y.0", Op::Mul, &[x0, o0]).unwrap();
    let y1 = gd.apply("y.1", Op::Mul, &[x1, o1]).unwrap();
    gd.mark_output(y0);
    gd.mark_output(y1);
    let gd = gd.finish().unwrap();

    let mut ri = Relation::builder(&gs, &gd);
    ri.map("x", "(concat x.0 x.1 0)").unwrap();
    let outcome = check_refinement(&gs, &gd, &ri.build(), &CheckOptions::default()).unwrap();
    for (_, exprs) in outcome.full_relation.iter() {
        for e in exprs {
            for leaf in e.leaf_symbols() {
                assert!(
                    !leaf.as_str().starts_with('~'),
                    "synthetic leaf leaked into a relation: {e}"
                );
            }
        }
    }
}

#[test]
fn error_display_is_actionable() {
    let (gs, gd, ..) = figure1();
    let mut ri = Relation::builder(&gs, &gd);
    ri.map("A", "(concat A1 A2 1)").unwrap();
    // Swap the B shards: the matmul contraction no longer lines up.
    ri.map("B", "(concat B2 B1 0)").unwrap();
    ri.map("E", "(concat E1 E2 0)").unwrap();
    let err = check_refinement(&gs, &gd, &ri.build(), &CheckOptions::default()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("could not map outputs for operator \"C\""),
        "{msg}"
    );
    assert!(msg.contains("(concat A1 A2 1)"), "{msg}");
    assert!(msg.contains("localize"), "{msg}");
}

mod lint_prepass {
    use super::*;
    use crate::check_lint;
    use entangle_egraph::Rewrite;

    /// A well-formed `G_s` next to a `G_d` whose slice sharding of `X`
    /// leaves rows `[4, 5)` covered by no shard — a distribution bug the
    /// lint pre-pass catches statically.
    fn gap_sharded_pair() -> (entangle_ir::Graph, entangle_ir::Graph) {
        let mut gs = GraphBuilder::new("seq");
        let a = gs.input("A", &[8, 4], DType::F32);
        let r = gs.apply("R", Op::Relu, &[a]).unwrap();
        gs.mark_output(r);
        let gs = gs.finish().unwrap();

        let mut gd = GraphBuilder::new("dist");
        let x = gd.input("X", &[8, 4], DType::F32);
        let s1 = gd
            .apply(
                "S1",
                Op::Slice {
                    dim: 0,
                    start: Dim::from(0),
                    end: Dim::from(4),
                },
                &[x],
            )
            .unwrap();
        let s2 = gd
            .apply(
                "S2",
                Op::Slice {
                    dim: 0,
                    start: Dim::from(5),
                    end: Dim::from(8),
                },
                &[x],
            )
            .unwrap();
        let r1 = gd.apply("R1", Op::Relu, &[s1]).unwrap();
        let r2 = gd.apply("R2", Op::Relu, &[s2]).unwrap();
        gd.mark_output(r1);
        gd.mark_output(r2);
        (gs, gd.finish().unwrap())
    }

    /// Checks `A ↦ X` with a booby-trapped rewrite set: the searcher
    /// matches *every* e-class, so the applier panics the moment a single
    /// saturation step runs. The check must fail with the lint diagnostic
    /// instead, proving the pre-pass short-circuits before any e-graph
    /// work; returns that error and its `G_d` diagnostic codes.
    fn lint_failure(
        gs: &entangle_ir::Graph,
        gd: &entangle_ir::Graph,
    ) -> (RefinementError, Vec<&'static str>) {
        let mut ri = Relation::builder(gs, gd);
        ri.map("A", "X").unwrap();
        let trap: Rewrite<entangle_lemmas::TensorAnalysis> =
            Rewrite::parse_dyn("boobytrap", "?x", |_, _, _| {
                panic!("saturation ran despite lint errors")
            })
            .unwrap();
        let opts = CheckOptions {
            rewrites: Some(vec![trap]),
            ..CheckOptions::default()
        };
        let err = check_refinement(gs, gd, &ri.build(), &opts).unwrap_err();
        let RefinementError::Lint {
            graph, diagnostics, ..
        } = &err
        else {
            panic!("expected lint error, got: {err}");
        };
        assert_eq!(graph, "G_d");
        let codes = diagnostics.iter().map(|d| d.code).collect();
        (err, codes)
    }

    #[test]
    fn missharded_gd_fails_lint_before_any_saturation() {
        let (gs, gd) = gap_sharded_pair();
        let (err, codes) = lint_failure(&gs, &gd);
        assert!(
            codes.contains(&entangle_lint::codes::SHARDING_TILE),
            "expected an E009 sharding diagnostic: {codes:?}"
        );
        // The rendered message names the shard after the gap.
        let msg = err.to_string();
        assert!(msg.contains("G_d failed static lint"), "{msg}");
        assert!(msg.contains("S2"), "{msg}");
        assert!(msg.contains("gap"), "{msg}");
    }

    /// An unvalidated `G_d` whose node reads tensor id 7 of 2: past the
    /// lint pre-pass, the sharding pass would index out of bounds.
    #[test]
    fn dangling_tensor_id_fails_lint_instead_of_panicking() {
        use entangle_ir::{Node, NodeId, Shape, Tensor};
        let (gs, _) = gap_sharded_pair();
        let tensor = |id: u32, name: &str, producer: Option<NodeId>| Tensor {
            id: TensorId(id),
            name: name.to_owned(),
            shape: Shape::of(&[8, 4]),
            dtype: DType::F32,
            producer,
        };
        let gd = entangle_ir::Graph::from_parts_unchecked(
            "dangling".into(),
            vec![tensor(0, "X", None), tensor(1, "Y", Some(NodeId(0)))],
            vec![Node {
                id: NodeId(0),
                name: "R".into(),
                op: Op::Relu,
                inputs: vec![TensorId(7)],
                output: TensorId(1),
            }],
            vec![TensorId(0)],
            vec![TensorId(1)],
        );
        let (_, codes) = lint_failure(&gs, &gd);
        assert!(
            codes.contains(&entangle_lint::codes::DANGLING_REF),
            "expected a dangling-reference diagnostic: {codes:?}"
        );
    }

    #[test]
    fn check_lint_accepts_well_formed_pair() {
        let (gs, gd, ..) = super::figure1();
        check_lint(&gs, &gd).unwrap();
    }
}

/// The scheduler's inline rule, the `stage:setup` span and the fresh/replayed
/// tally, read off the trace and the outcome.
mod scheduler {
    use super::*;
    use entangle_trace::{TraceReport, Tracer};

    /// `X → G → Y` (a chain), or `X → {A, B} → C` (a two-wide wave, then a
    /// join), sequence-split in two with an all-gather on the output.
    fn split_pair(wide: bool) -> (entangle_ir::Graph, entangle_ir::Graph, Relation) {
        let mut gs = GraphBuilder::new(if wide { "wave" } else { "chain" });
        let x = gs.input("X", &[8, 4], DType::F32);
        let a = gs.apply("A", Op::Gelu, &[x]).unwrap();
        let out = if wide {
            let b = gs.apply("B", Op::Silu, &[x]).unwrap();
            gs.apply("C", Op::Add, &[a, b]).unwrap()
        } else {
            gs.apply("B", Op::Silu, &[a]).unwrap()
        };
        gs.mark_output(out);
        let gs = gs.finish().unwrap();

        let mut gd = GraphBuilder::new("sp2");
        let mut shards = Vec::new();
        for r in 0..2 {
            let x = gd.input(&format!("X{r}"), &[4, 4], DType::F32);
            let a = gd.apply(&format!("A{r}"), Op::Gelu, &[x]).unwrap();
            shards.push(if wide {
                let b = gd.apply(&format!("B{r}"), Op::Silu, &[x]).unwrap();
                gd.apply(&format!("C{r}"), Op::Add, &[a, b]).unwrap()
            } else {
                gd.apply(&format!("B{r}"), Op::Silu, &[a]).unwrap()
            });
        }
        let full = gd.apply("full", Op::AllGather { dim: 0 }, &shards).unwrap();
        gd.mark_output(full);
        let gd = gd.finish().unwrap();

        let mut ri = Relation::builder(&gs, &gd);
        ri.map("X", "(concat X0 X1 0)").unwrap();
        let ri = ri.build();
        (gs, gd, ri)
    }

    /// `(operator, worker)` per `op:` span of a verified check at `jobs`.
    fn workers(wide: bool, jobs: usize) -> Vec<(String, usize)> {
        let (gs, gd, ri) = split_pair(wide);
        let (tracer, sink) = Tracer::collect();
        let opts = CheckOptions {
            jobs,
            trace: tracer.clone(),
            ..CheckOptions::default()
        };
        check_refinement(&gs, &gd, &ri, &opts).expect("the split pair verifies");
        drop((opts, tracer));
        let report = TraceReport::from_records(&sink.records()).expect("trace balances");
        let ops = report.spans.iter().filter(|s| s.name.starts_with("op:"));
        ops.map(|s| {
            let worker = s.attr("worker").expect("op span names its worker");
            (s.name.clone(), worker.parse().expect("a number"))
        })
        .collect()
    }

    #[test]
    fn a_chain_never_leaves_the_coordinator() {
        for jobs in [1, 2, 4] {
            let on = workers(false, jobs);
            assert_eq!(on.len(), 2);
            assert!(on.iter().all(|(_, w)| *w == 0), "jobs={jobs}: {on:?}");
        }
    }

    #[test]
    fn a_wide_wave_goes_to_the_pool_and_its_join_stays() {
        let on = workers(true, 4);
        let worker = |op: &str| on.iter().find(|(n, _)| n == op).expect("op traced").1;
        // A and B are ready together: both are handed to pool threads
        // (numbered from 1). C is ready alone with nothing in flight.
        assert!((1..=4).contains(&worker("op:A")), "{on:?}");
        assert!((1..=4).contains(&worker("op:B")), "{on:?}");
        assert_eq!(worker("op:C"), 0, "{on:?}");
        // One job: the same graph, all on the calling thread.
        assert!(workers(true, 1).iter().all(|(_, w)| *w == 0));
    }

    #[test]
    fn setup_is_a_stage_with_its_counts_and_closes_on_failure() {
        // Verified: between shard and map, under the root.
        let (gs, gd, ri) = split_pair(false);
        let (tracer, sink) = Tracer::collect();
        let opts = CheckOptions {
            trace: tracer.clone(),
            ..CheckOptions::default()
        };
        check_refinement(&gs, &gd, &ri, &opts).unwrap();
        let report = TraceReport::from_records(&sink.records()).unwrap();
        let root = report.find("check_refinement").unwrap();
        let setup = report.find("stage:setup").expect("setup is a stage");
        assert_eq!(setup.parent, Some(root.id));
        assert!(report.find("stage:shard").unwrap().start_us <= setup.start_us);
        assert!(setup.start_us <= report.find("stage:map").unwrap().start_us);
        let count = |key: &str| -> u64 {
            let v = setup
                .attr(key)
                .unwrap_or_else(|| panic!("setup has no {key}"));
            v.parse().unwrap()
        };
        assert_eq!(count("rules"), entangle_lemmas::registry().len() as u64);
        assert_eq!(count("throttled"), 4);
        assert!(count("trie_nodes") > 0);
        assert!((1..=3_000).contains(&count("unifications")));
        // Without the schedule nothing is unified or throttled.
        let (tracer, sink) = Tracer::collect();
        let opts = CheckOptions {
            trace: tracer.clone(),
            rule_backoff: false,
            ..CheckOptions::default()
        };
        check_refinement(&gs, &gd, &ri, &opts).unwrap();
        let report = TraceReport::from_records(&sink.records()).unwrap();
        let setup = report.find("stage:setup").unwrap();
        assert_eq!(setup.attr("throttled"), Some("0"));
        assert_eq!(setup.attr("unifications"), Some("0"));

        // A failed check (no outcome): the span is there, closed.
        let mut wrong = Relation::builder(&gs, &gd);
        wrong.map("X", "(concat X1 X0 0)").unwrap();
        let (tracer, sink) = Tracer::collect();
        let opts = CheckOptions {
            trace: tracer.clone(),
            ..CheckOptions::default()
        };
        let err = check_refinement(&gs, &gd, &wrong.build(), &opts).unwrap_err();
        assert_eq!(err.kind(), "output-unmapped", "{err}");
        let report = TraceReport::from_records(&sink.records()).expect("failure trace balances");
        assert!(report.find("stage:setup").is_some());
    }

    /// Four isomorphic rank pairs of one operator: solved once, replayed
    /// three times. The per-operator tally counts four runs, the fresh
    /// tally one, and exactly the replays are marked in the trace.
    #[test]
    fn replays_are_counted_per_operator_but_not_as_work() {
        let mut gs = GraphBuilder::new("seq");
        let mut gd = GraphBuilder::new("sp2");
        let mut ri = Vec::new();
        for k in 0..4 {
            let x = gs.input(&format!("X{k}"), &[8, 4], DType::F32);
            let y = gs.apply(&format!("Y{k}"), Op::Gelu, &[x]).unwrap();
            gs.mark_output(y);
            let halves: Vec<_> = (0..2)
                .map(|r| {
                    let x = gd.input(&format!("X{k}_{r}"), &[4, 4], DType::F32);
                    gd.apply(&format!("Y{k}_{r}"), Op::Gelu, &[x]).unwrap()
                })
                .collect();
            let full = gd
                .apply(&format!("Y{k}_full"), Op::AllGather { dim: 0 }, &halves)
                .unwrap();
            gd.mark_output(full);
            ri.push((format!("X{k}"), format!("(concat X{k}_0 X{k}_1 0)")));
        }
        let (gs, gd) = (gs.finish().unwrap(), gd.finish().unwrap());
        let mut b = Relation::builder(&gs, &gd);
        for (name, expr) in &ri {
            b.map(name, expr).unwrap();
        }
        let ri = b.build();
        for jobs in [1, 4] {
            let (tracer, sink) = Tracer::collect();
            let opts = CheckOptions {
                jobs,
                trace: tracer.clone(),
                ..CheckOptions::default()
            };
            let outcome = check_refinement(&gs, &gd, &ri, &opts).unwrap();
            let sat = &outcome.saturation;
            assert_eq!((sat.runs(), sat.fresh_runs()), (4, 1), "jobs={jobs}");
            assert_eq!(sat.iterations(), 4 * sat.fresh_iterations());
            let matches = |r: &entangle_egraph::SaturationReport| -> u64 {
                r.rules.values().map(|rule| rule.matches).sum()
            };
            assert_eq!(matches(&sat.telemetry), 4 * matches(&sat.fresh));
            // Figure 6 counts per operator, replays included.
            assert_eq!(
                outcome.lemma_stats.total(),
                sat.telemetry
                    .rules
                    .values()
                    .map(|r| r.applications)
                    .sum::<u64>()
            );
            let report = TraceReport::from_records(&sink.records()).unwrap();
            let replayed: Vec<bool> = report
                .spans_named("saturate")
                .map(|s| s.attr("replayed").is_some())
                .collect();
            assert_eq!(replayed, [false, true, true, true], "jobs={jobs}");
        }
    }
}
