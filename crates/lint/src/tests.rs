use entangle_egraph::Rewrite;
use entangle_ir::{DType, Dim, Graph, GraphBuilder, Node, NodeId, Op, Shape, Tensor, TensorId};
use entangle_lemmas::{registry, Category, Lemma, TensorAnalysis};

use crate::audit::{audit_lemmas, AuditOptions};
use crate::{codes, lint_graph, Anchor, Diagnostic, LintReport, Severity};

fn has_code(report: &crate::LintReport, code: &str) -> bool {
    report.diagnostics.iter().any(|d| d.code == code)
}

fn tensor(id: u32, name: &str, dims: &[i64], producer: Option<u32>) -> Tensor {
    Tensor {
        id: TensorId(id),
        name: name.to_owned(),
        shape: Shape::of(dims),
        dtype: DType::F32,
        producer: producer.map(NodeId),
    }
}

#[test]
fn clean_graph_is_clean() {
    let mut g = GraphBuilder::new("clean");
    let x = g.input("x", &[2, 8], DType::F32);
    let w = g.input("w", &[8, 4], DType::F32);
    let y = g.apply("y", Op::Matmul, &[x, w]).unwrap();
    g.mark_output(y);
    let report = lint_graph(&g.finish().unwrap());
    assert!(report.is_clean(), "{}", report.render(None));
    assert_eq!(report.warning_count(), 0);
    assert_eq!(report.summary(), "0 errors / 0 warnings");
}

#[test]
fn dangling_and_duplicate_references() {
    // Node consumes t7 which does not exist; two tensors share a name.
    let g = Graph::from_parts_unchecked(
        "broken".into(),
        vec![
            tensor(0, "x", &[2, 2], None),
            tensor(1, "x", &[2, 2], Some(0)),
        ],
        vec![Node {
            id: NodeId(0),
            name: "y".into(),
            op: Op::Relu,
            inputs: vec![TensorId(7)],
            output: TensorId(1),
        }],
        vec![TensorId(0)],
        vec![TensorId(1)],
    );
    let report = lint_graph(&g);
    assert!(
        has_code(&report, codes::DANGLING_REF),
        "{}",
        report.render(None)
    );
    assert!(has_code(&report, codes::DUPLICATE_NAME));
}

#[test]
fn cycle_is_reported_as_non_topological() {
    // n0 consumes n1's output and vice versa.
    let g = Graph::from_parts_unchecked(
        "cycle".into(),
        vec![
            tensor(0, "a", &[2, 2], Some(0)),
            tensor(1, "b", &[2, 2], Some(1)),
        ],
        vec![
            Node {
                id: NodeId(0),
                name: "f".into(),
                op: Op::Relu,
                inputs: vec![TensorId(1)],
                output: TensorId(0),
            },
            Node {
                id: NodeId(1),
                name: "g".into(),
                op: Op::Relu,
                inputs: vec![TensorId(0)],
                output: TensorId(1),
            },
        ],
        vec![],
        vec![TensorId(0)],
    );
    let report = lint_graph(&g);
    assert!(
        has_code(&report, codes::NOT_TOPOLOGICAL),
        "{}",
        report.render(None)
    );
}

#[test]
fn stale_shape_metadata_is_cross_checked() {
    // Output tensor recorded as [2, 2] but relu of [2, 4] is [2, 4].
    let g = Graph::from_parts_unchecked(
        "stale".into(),
        vec![
            tensor(0, "x", &[2, 4], None),
            tensor(1, "y", &[2, 2], Some(0)),
        ],
        vec![Node {
            id: NodeId(0),
            name: "y".into(),
            op: Op::Relu,
            inputs: vec![TensorId(0)],
            output: TensorId(1),
        }],
        vec![TensorId(0)],
        vec![TensorId(1)],
    );
    let report = lint_graph(&g);
    assert!(
        has_code(&report, codes::SHAPE_MISMATCH),
        "{}",
        report.render(None)
    );
}

#[test]
fn dead_node_and_unused_input_warn() {
    let mut g = GraphBuilder::new("liveness");
    let x = g.input("x", &[2, 2], DType::F32);
    let unused = g.input("unused", &[3], DType::F32);
    let y = g.apply("y", Op::Relu, &[x]).unwrap();
    let _dead = g.apply("dead", Op::Neg, &[x]).unwrap();
    g.mark_output(y);
    let _ = unused;
    let report = lint_graph(&g.finish().unwrap());
    assert!(report.is_clean());
    assert!(
        has_code(&report, codes::DEAD_NODE),
        "{}",
        report.render(None)
    );
    assert!(has_code(&report, codes::UNUSED_INPUT));
}

/// The ISSUE's acceptance case: a mis-sharded distributed graph whose rank-1
/// shard starts at the wrong offset, leaving a gap (and an overlap when the
/// bounds collide) — lint must flag the offending slice node.
#[test]
fn missharded_slice_gap_is_flagged_with_anchor() {
    let mut g = GraphBuilder::new("gd-missharded");
    let x = g.input("x", &[8, 4], DType::F32);
    let s0 = g
        .apply(
            "shard0",
            Op::Slice {
                dim: 0,
                start: Dim::from(0),
                end: Dim::from(4),
            },
            &[x],
        )
        .unwrap();
    // Wrong: should start at 4; [5, 8) leaves row 4 uncovered.
    let s1 = g
        .apply(
            "shard1",
            Op::Slice {
                dim: 0,
                start: Dim::from(5),
                end: Dim::from(8),
            },
            &[x],
        )
        .unwrap();
    g.mark_output(s0);
    g.mark_output(s1);
    let graph = g.finish().unwrap();
    let report = lint_graph(&graph);
    assert!(!report.is_clean());
    let diag = report
        .errors()
        .find(|d| d.code == codes::SHARDING_TILE)
        .expect("sharding diagnostic");
    // Anchored at the node after the gap: shard1.
    assert_eq!(
        diag.anchor,
        Anchor::Node(graph.tensor_by_name("shard1").unwrap().producer.unwrap())
    );
    assert!(diag.message.contains("gap"), "{}", diag.message);
}

#[test]
fn overlapping_shards_are_flagged() {
    let mut g = GraphBuilder::new("gd-overlap");
    let x = g.input("x", &[8, 4], DType::F32);
    let s0 = g
        .apply(
            "shard0",
            Op::Slice {
                dim: 0,
                start: Dim::from(0),
                end: Dim::from(5),
            },
            &[x],
        )
        .unwrap();
    let s1 = g
        .apply(
            "shard1",
            Op::Slice {
                dim: 0,
                start: Dim::from(4),
                end: Dim::from(8),
            },
            &[x],
        )
        .unwrap();
    g.mark_output(s0);
    g.mark_output(s1);
    let report = lint_graph(&g.finish().unwrap());
    let diag = report
        .errors()
        .find(|d| d.code == codes::SHARDING_TILE)
        .expect("sharding diagnostic");
    assert!(diag.message.contains("overlap"), "{}", diag.message);
}

#[test]
fn exact_tiling_passes_and_lone_slice_is_projection() {
    // Proper 2-way shard: clean.
    let mut g = GraphBuilder::new("gd-ok");
    let x = g.input("x", &[8, 4], DType::F32);
    for (name, lo, hi) in [("shard0", 0, 4), ("shard1", 4, 8)] {
        let s = g
            .apply(
                name,
                Op::Slice {
                    dim: 0,
                    start: Dim::from(lo),
                    end: Dim::from(hi),
                },
                &[x],
            )
            .unwrap();
        g.mark_output(s);
    }
    assert!(lint_graph(&g.finish().unwrap()).is_clean());

    // A single partial slice is not sharding; no diagnostic.
    let mut g = GraphBuilder::new("projection");
    let x = g.input("x", &[8, 4], DType::F32);
    let s = g
        .apply(
            "head",
            Op::Slice {
                dim: 0,
                start: Dim::from(0),
                end: Dim::from(2),
            },
            &[x],
        )
        .unwrap();
    g.mark_output(s);
    assert!(lint_graph(&g.finish().unwrap()).is_clean());
}

/// Unpad-style projections slice *interior* windows out of a padded tensor
/// ([0, 3) and [4, 7) of 8 rows, dropping the pad rows). They never claim to
/// tile the dimension — the group stops short of the extent — so E009 must
/// stay silent. Regression test for a false alarm on Table 3's fixed bug 3.
#[test]
fn unpad_projection_is_not_missharding() {
    let mut g = GraphBuilder::new("gd-unpad");
    let x = g.input("gather", &[8, 4], DType::F32);
    for (name, lo, hi) in [("unpad.0", 0, 3), ("unpad.1", 4, 7)] {
        let s = g
            .apply(
                name,
                Op::Slice {
                    dim: 0,
                    start: Dim::from(lo),
                    end: Dim::from(hi),
                },
                &[x],
            )
            .unwrap();
        g.mark_output(s);
    }
    assert!(lint_graph(&g.finish().unwrap()).is_clean());
}

#[test]
fn reduce_scatter_rank_reuse_is_flagged() {
    let mut g = GraphBuilder::new("gd-rs");
    let a = g.input("a", &[8, 4], DType::F32);
    let b = g.input("b", &[8, 4], DType::F32);
    let r0 = g
        .apply(
            "rs0",
            Op::ReduceScatter {
                dim: 0,
                rank: 0,
                world: 2,
            },
            &[a, b],
        )
        .unwrap();
    // Both shards claim rank 0.
    let r1 = g
        .apply(
            "rs1",
            Op::ReduceScatter {
                dim: 0,
                rank: 0,
                world: 2,
            },
            &[a, b],
        )
        .unwrap();
    g.mark_output(r0);
    g.mark_output(r1);
    let report = lint_graph(&g.finish().unwrap());
    let diag = report
        .errors()
        .find(|d| d.code == codes::COLLECTIVE_MISMATCH)
        .expect("collective diagnostic");
    assert!(diag.message.contains("rank 0"), "{}", diag.message);
}

#[test]
fn mismatched_collectives_over_same_inputs_are_flagged() {
    let mut g = GraphBuilder::new("gd-mixed");
    let a = g.input("a", &[8, 4], DType::F32);
    let b = g.input("b", &[8, 4], DType::F32);
    let r0 = g.apply("ag0", Op::AllGather { dim: 0 }, &[a, b]).unwrap();
    let r1 = g.apply("ag1", Op::AllGather { dim: 1 }, &[a, b]).unwrap();
    g.mark_output(r0);
    g.mark_output(r1);
    let report = lint_graph(&g.finish().unwrap());
    assert!(
        has_code(&report, codes::COLLECTIVE_MISMATCH),
        "{}",
        report.render(None)
    );
}

#[test]
fn render_resolves_anchors() {
    let mut g = GraphBuilder::new("named");
    let x = g.input("x", &[2, 2], DType::F32);
    let _dead = g.apply("deadbeef", Op::Neg, &[x]).unwrap();
    let graph = g.finish().unwrap();
    let report = lint_graph(&graph);
    let rendered = report.render(Some(&graph));
    assert!(rendered.contains("deadbeef"), "{rendered}");
    assert!(rendered.contains("W001"), "{rendered}");
}

// ---- lemma audit ----

fn quick_audit() -> AuditOptions {
    AuditOptions {
        max_matches_per_lemma: 4,
        ..AuditOptions::default()
    }
}

#[test]
fn full_registry_is_sound() {
    let report = audit_lemmas(&registry(), &quick_audit());
    assert!(report.is_clean(), "{}", report.render());
    // The seed corpus must exercise a solid majority of the registry and
    // produce real numeric comparisons, or the audit is vacuous.
    let covered = report.entries.iter().filter(|e| e.matches > 0).count();
    assert!(
        covered * 2 > report.entries.len(),
        "only {covered}/{} lemmas covered",
        report.entries.len()
    );
    assert!(
        report.numeric_checked() > 20,
        "only {} numeric checks",
        report.numeric_checked()
    );
}

fn fake_lemma(rewrite: Rewrite<TensorAnalysis>) -> Lemma {
    Lemma {
        id: 0,
        name: rewrite.name().to_owned(),
        category: Category::General,
        loc: 1,
        complexity: 1,
        models: vec![],
        rewrite,
    }
}

#[test]
fn audit_catches_shape_unsound_lemma() {
    // "concat of two parts equals the first part" — drops half the tensor.
    let broken =
        fake_lemma(Rewrite::parse("broken-concat-drop", "(concat ?a ?b 0)", "?a").unwrap());
    let report = audit_lemmas(&[broken], &quick_audit());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::LEMMA_SHAPE_UNSOUND),
        "{}",
        report.render()
    );
}

#[test]
fn audit_catches_numerically_unsound_lemma() {
    // Matmul is not commutative; on square seeds the shapes agree but the
    // values do not — only the numeric validation can catch this.
    let broken = fake_lemma(
        Rewrite::parse("broken-matmul-comm", "(matmul ?a ?b)", "(matmul ?b ?a)").unwrap(),
    );
    let report = audit_lemmas(&[broken], &quick_audit());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::LEMMA_NUMERIC_UNSOUND),
        "{}",
        report.render()
    );
}

#[test]
fn audit_reports_uncovered_lemma() {
    let exotic = fake_lemma(
        Rewrite::parse(
            "never-matches",
            "(pad (pad ?x 0 1 1) 0 1 1)",
            "(pad ?x 0 2 2)",
        )
        .unwrap(),
    );
    let report = audit_lemmas(&[exotic], &quick_audit());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::LEMMA_UNCOVERED && d.severity == Severity::Warning),
        "{}",
        report.render()
    );
}

#[test]
fn audit_derived_tolerance_catches_sub_epsilon_drift() {
    // Scales by 1 + 1e-9: the old fixed 1e-6 absolute epsilon on (-1, 1)
    // leaves would have waved this through. The derived relative bound
    // (~1.8e-12 for two rounding ops) rejects it.
    let broken = fake_lemma(
        Rewrite::parse(
            "broken-tiny-scale",
            "(slice ?x 0 0 1)",
            "(scalar_mul (slice ?x 0 0 1) 1000000001 1000000000)",
        )
        .unwrap(),
    );
    let report = audit_lemmas(&[broken], &quick_audit());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::LEMMA_NUMERIC_UNSOUND),
        "{}",
        report.render()
    );
}

#[test]
fn audit_demands_bit_exactness_from_pure_movement_lemmas() {
    // Reorders two concat operands: pure data movement on both sides, so
    // the derived tolerance is bit-exact and any element swap is an error.
    let broken = fake_lemma(
        Rewrite::parse("broken-concat-swap", "(concat ?a ?b 0)", "(concat ?b ?a 0)").unwrap(),
    );
    let report = audit_lemmas(&[broken], &quick_audit());
    let hit = report
        .diagnostics
        .iter()
        .find(|d| d.code == codes::LEMMA_NUMERIC_UNSOUND)
        .unwrap_or_else(|| panic!("swap not flagged: {}", report.render()));
    assert!(
        hit.message.contains("bit-exact"),
        "expected a bit-exact demand in {:?}",
        hit.message
    );
}

#[test]
fn audit_is_panic_free_on_width_zero_reductions() {
    // The corpus carries degenerate `(sum_all (slice X1 0 0 0))`-style
    // seeds; a sound lemma matching them must audit cleanly (sum over an
    // empty slice is 0 on both sides) without panicking anywhere in
    // matching, extraction or ground evaluation.
    let degenerate = fake_lemma(
        Rewrite::parse(
            "sum-of-empty-is-zero",
            "(sum_all (slice ?x 0 0 0))",
            "(scalar_mul (sum_all ?x) 0 1)",
        )
        .unwrap(),
    );
    let report = audit_lemmas(&[degenerate], &quick_audit());
    assert!(report.is_clean(), "{}", report.render());
    assert!(
        report.entries[0].matches > 0,
        "width-0 seed never matched: {}",
        report.render()
    );
    assert!(
        report.entries[0].numeric_checked > 0,
        "no numeric check ran"
    );
}

#[test]
fn diagnostics_render_as_stable_json() {
    let d = Diagnostic::error(
        codes::SHAPE_MISMATCH,
        Anchor::Node(NodeId(3)),
        "stored shape [2, \"x\"] disagrees",
    )
    .with_suggestion("re-run inference");
    let json = d.to_json(None);
    assert_eq!(
        json,
        "{\"code\":\"E006\",\"severity\":\"error\",\"anchor\":\"n3\",\
         \"message\":\"stored shape [2, \\\"x\\\"] disagrees\",\
         \"suggestion\":\"re-run inference\"}"
    );

    let report = LintReport {
        diagnostics: vec![d],
    };
    let json = report.to_json(None);
    assert!(json.starts_with("{\"errors\":1,\"warnings\":0,\"clean\":false,\"diagnostics\":["));

    // Control characters and quotes survive the hand-rolled escaper.
    assert_eq!(
        crate::json_str("a\"b\\c\nd\te\u{1}"),
        "\"a\\\"b\\\\c\\nd\\te\\u0001\""
    );
}
