//! Integration of §4.4 user-expectation checking through the public API.

use entangle::{check_expectation, CheckOptions, ExpectationError, Relation};
use entangle_ir::{DType, GraphBuilder, Op};

/// A data-parallel-style gradient aggregation scenario.
fn scenario(with_aggregation: bool) -> (entangle_ir::Graph, entangle_ir::Graph, Relation) {
    let mut gs = GraphBuilder::new("seq");
    let x = gs.input("x", &[8, 4], DType::F32);
    let g = gs
        .apply(
            "grad",
            Op::SumDim {
                dim: 0,
                keepdim: false,
            },
            &[x],
        )
        .unwrap();
    gs.mark_output(g);
    let gs = gs.finish().unwrap();

    let mut gd = GraphBuilder::new("dist");
    let x0 = gd.input("x.0", &[4, 4], DType::F32);
    let x1 = gd.input("x.1", &[4, 4], DType::F32);
    let g0 = gd
        .apply(
            "grad.0",
            Op::SumDim {
                dim: 0,
                keepdim: false,
            },
            &[x0],
        )
        .unwrap();
    let g1 = gd
        .apply(
            "grad.1",
            Op::SumDim {
                dim: 0,
                keepdim: false,
            },
            &[x1],
        )
        .unwrap();
    gd.mark_output(g0);
    gd.mark_output(g1);
    if with_aggregation {
        let agg = gd.apply("grad_agg", Op::AllReduce, &[g0, g1]).unwrap();
        gd.mark_output(agg);
    }
    let gd = gd.finish().unwrap();

    let mut ri = Relation::builder(&gs, &gd);
    ri.map("x", "(concat x.0 x.1 0)").unwrap();
    let ri = ri.build();
    (gs, gd, ri)
}

#[test]
fn expectation_met_when_aggregated() {
    let (gs, gd, ri) = scenario(true);
    let fs = "grad".parse().unwrap();
    let fd = "grad_agg".parse().unwrap();
    check_expectation(&gs, &gd, &ri, &fs, &fd, &CheckOptions::default())
        .expect("aggregated gradient meets the expectation");
}

#[test]
fn expectation_violated_without_aggregation() {
    let (gs, gd, ri) = scenario(false);
    let fs = "grad".parse().unwrap();
    // The developer believed the rank-local gradient was already global.
    let fd = "grad.0".parse().unwrap();
    match check_expectation(&gs, &gd, &ri, &fs, &fd, &CheckOptions::default()) {
        Err(ExpectationError::Violated { found, expected }) => {
            assert_eq!(expected, "grad.0");
            // The report shows what the output actually is.
            assert!(found.iter().any(|m| m.contains("grad.")));
        }
        other => panic!("expected violation, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn expectation_with_explicit_combiner_expression() {
    let (gs, gd, ri) = scenario(false);
    // The user may state the combiner inline: grad == grad.0 + grad.1.
    let fs = "grad".parse().unwrap();
    let fd = "(add grad.0 grad.1)".parse().unwrap();
    check_expectation(&gs, &gd, &ri, &fs, &fd, &CheckOptions::default())
        .expect("explicit sum combiner is a valid expectation");
}

#[test]
fn malformed_expectations_are_rejected() {
    let (gs, gd, ri) = scenario(true);
    let fs = "grad".parse().unwrap();
    // An unknown leaf, and an operator short of its operands.
    for fd in ["(concat grad.0 nonexistent 0)", "(add grad.0)"] {
        let fd = fd.parse().unwrap();
        match check_expectation(&gs, &gd, &ri, &fs, &fd, &CheckOptions::default()) {
            Err(ExpectationError::Invalid(_)) => {}
            other => panic!(
                "expected invalid-expectation error, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}
