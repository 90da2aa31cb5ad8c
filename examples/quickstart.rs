//! Quickstart: the paper's Figure 1/2 running example.
//!
//! A sequential model `F = (A × B) − E` is distributed across two ranks by
//! splitting the matmul along its contraction dimension and reduce-
//! scattering the partial products. ENTANGLE proves the implementation
//! refines the model and prints the clean output relation.
//!
//! Run with: `cargo run --example quickstart`

use entangle::{check_refinement, CheckOptions, Relation};
use entangle_ir::{DType, GraphBuilder, Op};

fn main() {
    // ---- the sequential specification G_s ----
    let mut gs = GraphBuilder::new("sequential");
    let a = gs.input("A", &[4, 8], DType::F32);
    let b = gs.input("B", &[8, 4], DType::F32);
    let e = gs.input("E", &[4, 4], DType::F32);
    let c = gs.apply("C", Op::Matmul, &[a, b]).unwrap();
    let f = gs.apply("F", Op::Sub, &[c, e]).unwrap();
    gs.mark_output(f);
    let gs = gs.finish().unwrap();

    // ---- the distributed implementation G_d (2 ranks) ----
    let mut gd = GraphBuilder::new("distributed");
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

    // ---- the user-provided clean input relation R_i ----
    let mut ri = Relation::builder(&gs, &gd);
    ri.map("A", "(concat A1 A2 1)").unwrap();
    ri.map("B", "(concat B1 B2 0)").unwrap();
    ri.map("E", "(concat E1 E2 0)").unwrap();
    let ri = ri.build();

    // ---- check refinement ----
    match check_refinement(&gs, &gd, &ri, &CheckOptions::default()) {
        Ok(outcome) => {
            println!("Refinement verification succeeded for {}!", gd.name());
            println!("\nOutput relation R_o:");
            print!("{}", outcome.output_relation.display(&gs));
            println!("\nFull relation (including intermediates):");
            print!("{}", outcome.full_relation.display(&gs));
            println!(
                "\n{} lemma applications across {} operators",
                outcome.saturation.lemma_total(),
                outcome.op_reports.len()
            );
        }
        Err(err) => {
            eprintln!("Refinement FAILED:\n{err}");
            std::process::exit(1);
        }
    }
}
