use super::*;
use entangle_ir::{DType, GraphBuilder, Op};

fn slice(dim: usize, lo: i64, hi: i64) -> Op {
    Op::Slice {
        dim,
        start: lo.into(),
        end: hi.into(),
    }
}

/// Per-expert gate slices differ only in integer bounds — one class.
#[test]
fn expert_slices_share_one_class() {
    let mut b = GraphBuilder::new("experts");
    let gates = b.input("gates", &[1, 4, 8], DType::F32);
    for ex in 0..4 {
        b.apply(&format!("gate{ex}"), slice(2, ex, ex + 1), &[gates])
            .unwrap();
    }
    let g = b.finish().unwrap();
    let a = analyze(&g);
    assert_eq!(a.class_count(), 1);
    assert_eq!(a.classes[0].members, vec![0, 1, 2, 3]);
    assert_eq!(a.classes[0].representative(), 0);
    assert_eq!(a.largest_class(), 4);
    assert_eq!(a.covered(), 4);
    assert_eq!(a.report.error_count(), 0);
}

/// A slice along a *different dim* is a different template — and close
/// enough to warrant the IS02 near-miss warning.
#[test]
fn off_dim_slice_is_a_near_miss_singleton() {
    let mut b = GraphBuilder::new("near-miss");
    let x = b.input("x", &[4, 4, 8], DType::F32);
    for ex in 0..3 {
        b.apply(&format!("s{ex}"), slice(2, ex, ex + 1), &[x])
            .unwrap();
    }
    b.apply("odd", slice(1, 0, 1), &[x]).unwrap();
    let g = b.finish().unwrap();
    let a = analyze(&g);
    assert_eq!(a.class_count(), 1);
    assert_eq!(a.classes[0].members.len(), 3);
    let is02: Vec<_> = a
        .report
        .diagnostics
        .iter()
        .filter(|d| d.code == codes::IS02)
        .collect();
    assert_eq!(is02.len(), 1, "exactly the off-dim slice is a near miss");
    assert_eq!(a.report.error_count(), 0);
}

/// Repeated layers group per-position; coverage counts all grouped ops.
#[test]
fn repeated_layers_group_positionwise() {
    let mut b = GraphBuilder::new("layers");
    let mut x = b.input("x", &[4, 8], DType::F32);
    for l in 0..4 {
        let w = b.input(&format!("w{l}"), &[8, 8], DType::F32);
        let h = b.apply(&format!("mm{l}"), Op::Matmul, &[x, w]).unwrap();
        x = b.apply(&format!("act{l}"), Op::Relu, &[h]).unwrap();
    }
    b.mark_output(x);
    let g = b.finish().unwrap();
    let a = analyze(&g);
    // The first layers still see the graph input inside their radius-2
    // cone and the last relu carries the !out marker, so the steady-state
    // middle groups: matmuls of layers 2 and 3, relus of layers 1 and 2.
    assert_eq!(a.class_count(), 2);
    for c in &a.classes {
        assert_eq!(c.members.len(), 2);
    }
}

/// Tied vs distinct leaves: same canonical form, non-bijective alignment.
#[test]
fn tied_weights_trigger_is03() {
    let mut b = GraphBuilder::new("tied");
    let w = b.input("w", &[4, 4], DType::F32);
    let w1 = b.input("w1", &[4, 4], DType::F32);
    let w2 = b.input("w2", &[4, 4], DType::F32);
    b.apply("tied", Op::Add, &[w, w]).unwrap();
    b.apply("free", Op::Add, &[w1, w2]).unwrap();
    let g = b.finish().unwrap();
    let a = analyze(&g);
    assert_eq!(a.class_count(), 1);
    let is03 = a
        .report
        .diagnostics
        .iter()
        .filter(|d| d.code == codes::IS03)
        .count();
    assert_eq!(is03, 1);
    assert_eq!(a.report.error_count(), 0);
}

/// The graph-output marker splits otherwise identical operators.
#[test]
fn output_marker_splits_classes() {
    let mut b = GraphBuilder::new("out-marker");
    let x = b.input("x", &[4, 4], DType::F32);
    let a1 = b.apply("a1", Op::Relu, &[x]).unwrap();
    let _a2 = b.apply("a2", Op::Relu, &[x]).unwrap();
    let _a3 = b.apply("a3", Op::Relu, &[x]).unwrap();
    b.mark_output(a1);
    let g = b.finish().unwrap();
    let a = analyze(&g);
    // a2/a3 group; a1 (a graph output) stands alone.
    assert_eq!(a.class_count(), 1);
    assert_eq!(a.classes[0].members, vec![1, 2]);
}

/// Radius matters: identical at depth 1, distinguishable at depth 2.
#[test]
fn radius_controls_discrimination() {
    let mut b = GraphBuilder::new("radius");
    let x = b.input("x", &[4, 4], DType::F32);
    let r = b.apply("r", Op::Relu, &[x]).unwrap();
    let e = b.apply("e", Op::Exp, &[x]).unwrap();
    let n1 = b.apply("n1", Op::Neg, &[r]).unwrap();
    let n2 = b.apply("n2", Op::Neg, &[e]).unwrap();
    b.apply("t1", Op::Tanh, &[n1]).unwrap();
    b.apply("t2", Op::Tanh, &[n2]).unwrap();
    let g = b.finish().unwrap();
    // At radius 1 the tanhs see only (neg cut) — grouped.
    let shallow = analyze_with(&g, 1);
    assert!(shallow
        .classes
        .iter()
        .any(|c| c.op == "tanh" && c.members.len() == 2));
    // At radius 2 they see relu vs exp — split.
    let deep = analyze_with(&g, 2);
    assert!(!deep.classes.iter().any(|c| c.op == "tanh"));
}

/// Symbolic dims are masked: shapes that differ only in a symbol still
/// produce one template (the `Renamer`'s generalization, per subgraph).
#[test]
fn json_is_stable_and_complete() {
    let mut b = GraphBuilder::new("j");
    let gates = b.input("gates", &[1, 4, 8], DType::F32);
    for ex in 0..2 {
        b.apply(&format!("gate{ex}"), slice(2, ex, ex + 1), &[gates])
            .unwrap();
    }
    let g = b.finish().unwrap();
    let a = analyze(&g);
    let json = a.to_json(&g);
    assert!(json.starts_with("{\"version\":1,\"graph\":\"j\",\"radius\":2,\"operators\":2,"));
    assert!(json.contains("\"classes\":[{\"id\":0,\"fingerprint\":\""));
    assert!(json.contains("\"representative\":\"gate0\",\"members\":[\"gate0\",\"gate1\"]"));
    assert!(json.contains("\"coverage\":{\"covered\":2,\"total\":2,\"percent\":100.0}"));
    assert!(json.ends_with("\"diagnostics\":[]}"));
}

#[test]
fn summary_reads_like_the_info_line() {
    let mut b = GraphBuilder::new("s");
    let x = b.input("x", &[4, 4], DType::F32);
    b.apply("a1", Op::Relu, &[x]).unwrap();
    b.apply("a2", Op::Relu, &[x]).unwrap();
    b.apply("b1", Op::Exp, &[x]).unwrap();
    let g = b.finish().unwrap();
    let a = analyze(&g);
    assert_eq!(
        a.summary(),
        "1 template classes, largest 2, 2/3 operators covered (66.7%)"
    );
}
