//! ENTANGLE: static model-refinement checking for distributed ML models.
//!
//! This crate is the reproduction of the paper's primary contribution. Given
//! a *sequential* model `G_s`, a *distributed* implementation `G_d` (both
//! [`entangle_ir::Graph`]s), and a user-provided clean **input relation**
//! `R_i` mapping `G_s`'s input tensors to expressions over `G_d`'s inputs,
//! [`check_refinement`] searches for a complete clean **output relation**
//! `R_o` that reconstructs every `G_s` output from `G_d`'s tensors using only
//! rearrangement (slice / concat / transpose / …) and reduction (element-wise
//! sum) operators. Failure to find one indicates a distribution bug, and the
//! returned [`RefinementError`] names the first sequential operator whose
//! outputs could not be mapped — the paper's bug-localization story (§6.2).
//!
//! The algorithm is the paper's Listing 1–3:
//!
//! - operators of `G_s` are processed one at a time in topological order,
//!   which keeps runtime linear in model depth (§4);
//! - for each operator, a fresh e-graph is seeded with the operator's output
//!   expressed over `G_d` tensors (via the relation so far), saturated with
//!   the lemma corpus, and enriched with `G_d` operator definitions restricted
//!   to the *frontier* of related tensors (the Listing 3 optimization);
//! - clean mappings are extracted with an infinite-cost extractor over
//!   non-clean operators, and only the simplest representatives are kept
//!   (§4.3.2 pruning).
//!
//! §4.4's user-expectation checks are provided by [`check_expectation`].
//!
//! # Examples
//!
//! The paper's Figure 1/2 example end to end:
//!
//! ```
//! use entangle::{check_refinement, CheckOptions, Relation};
//! use entangle_ir::{DType, GraphBuilder, Op};
//!
//! // Sequential: F = (A x B) - E
//! let mut gs = GraphBuilder::new("seq");
//! let a = gs.input("A", &[4, 8], DType::F32);
//! let b = gs.input("B", &[8, 4], DType::F32);
//! let e = gs.input("E", &[4, 4], DType::F32);
//! let c = gs.apply("C", Op::Matmul, &[a, b]).unwrap();
//! let f = gs.apply("F", Op::Sub, &[c, e]).unwrap();
//! gs.mark_output(f);
//! let gs = gs.finish().unwrap();
//!
//! // Distributed on 2 ranks: contraction-split matmul + reduce-scatter.
//! let mut gd = GraphBuilder::new("dist");
//! let a1 = gd.input("A1", &[4, 4], DType::F32);
//! let a2 = gd.input("A2", &[4, 4], DType::F32);
//! let b1 = gd.input("B1", &[4, 4], DType::F32);
//! let b2 = gd.input("B2", &[4, 4], DType::F32);
//! let e1 = gd.input("E1", &[2, 4], DType::F32);
//! let e2 = gd.input("E2", &[2, 4], DType::F32);
//! let c1 = gd.apply("C1", Op::Matmul, &[a1, b1]).unwrap();
//! let c2 = gd.apply("C2", Op::Matmul, &[a2, b2]).unwrap();
//! let d1 = gd.apply("D1", Op::ReduceScatter { dim: 0, rank: 0, world: 2 }, &[c1, c2]).unwrap();
//! let d2 = gd.apply("D2", Op::ReduceScatter { dim: 0, rank: 1, world: 2 }, &[c1, c2]).unwrap();
//! let f1 = gd.apply("F1", Op::Sub, &[d1, e1]).unwrap();
//! let f2 = gd.apply("F2", Op::Sub, &[d2, e2]).unwrap();
//! gd.mark_output(f1);
//! gd.mark_output(f2);
//! let gd = gd.finish().unwrap();
//!
//! let mut ri = Relation::builder(&gs, &gd);
//! ri.map("A", "(concat A1 A2 1)").unwrap();
//! ri.map("B", "(concat B1 B2 0)").unwrap();
//! ri.map("E", "(concat E1 E2 0)").unwrap();
//!
//! let outcome = check_refinement(&gs, &gd, &ri.build(), &CheckOptions::default()).unwrap();
//! let f_maps = outcome.output_relation.mappings(f).unwrap();
//! assert!(f_maps.iter().any(|m| m.to_string() == "(concat F1 F2 0)"));
//! ```

#![forbid(unsafe_code)]

mod checker;
mod encode;
mod expect;
mod memo;
mod relation;

pub use checker::{
    check_lint, check_refinement, check_refinement_counted, problem_fingerprint, CheckOptions,
    CheckOutcome, OpReport, ParStats, RefinementError, SaturationSummary,
};
pub use encode::{clean_cost, encode_def, encode_node, CleanOps};
pub use entangle_egraph::{SaturationReport, StopReason};
pub use entangle_num::{
    analyze_certificate, analyze_registry, describe_verdict, CertAnalysis, CorpusNumAnalysis,
    NumClass, OutputVerdict, Verdict, K_LOOSE,
};
pub use expect::{append_expr, check_expectation, ExpectationError};
pub use relation::{Relation, RelationBuilder};

/// Parses a universal rewrite over the checker's analysis type — a helper
/// for benchmarks that swap individual corpus lemmas (e.g. the constrained-
/// associativity ablation).
///
/// # Panics
///
/// Panics on unparsable patterns (benchmark inputs are literals).
pub fn __bench_parse_rewrite(
    name: &str,
    lhs: &str,
    rhs: &str,
) -> entangle_egraph::Rewrite<entangle_lemmas::TensorAnalysis> {
    entangle_egraph::Rewrite::parse(name, lhs, rhs).expect("benchmark rewrite parses")
}

#[cfg(test)]
mod tests;
