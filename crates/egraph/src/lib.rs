//! An e-graph and equality-saturation engine: the `egg` stand-in for ENTANGLE.
//!
//! The paper's relation-inference core "uses EGraphs (and the egg library) to
//! implement rewriting: we represent expressions as ENodes and lemmas as
//! rewrite rules; we run saturation, and then use the resulting EClasses in
//! our rewriting functions" (§4.2.2). This crate reimplements that machinery
//! from scratch:
//!
//! - [`EGraph`]: hash-consed e-nodes, a union-find over e-classes, and the
//!   deferred *rebuilding* algorithm that restores congruence closure after a
//!   batch of unions.
//! - [`Analysis`]: per-e-class semilattice data (the checker attaches tensor
//!   shapes and const-folded scalars).
//! - [`Pattern`] / [`Rewrite`]: an s-expression pattern DSL matching the
//!   paper's lemma syntax (Listing 4), with unconditional rewrites,
//!   conditional rewrites, and fully dynamic appliers.
//! - [`CompiledMatcher`]: the whole rule corpus compiled into one shared
//!   discrimination tree executed by a small abstract machine, so a single
//!   traversal of the candidate e-nodes serves every rule at once (the
//!   only search path saturation takes; the recursive per-rule searcher
//!   remains as the reference the oracle tests hold it to).
//! - [`TermStore`]: the primitives lemma conditions and dynamic appliers
//!   read and write, so they run on an e-graph or on a proof checker's
//!   term table alike.
//! - [`Runner`]: equality saturation with node/iteration/time limits and
//!   per-rule application counts (the raw data behind the paper's Figure 6
//!   lemma-usage heatmap).
//! - [`Extractor`]: cost-based term extraction, used both for "pick the
//!   simplest representative" pruning (§4.3.2) and for *clean-expression*
//!   extraction (assign infinite cost to non-clean operators).
//!
//! # Examples
//!
//! Proving the block-matmul identity from the paper's running example
//! (Figure 2): `matmul(concat(A₁,A₂,1), concat(B₁,B₂,0)) = add(matmul(A₁,B₁),
//! matmul(A₂,B₂))`.
//!
//! ```
//! use entangle_egraph::{EGraph, RecExpr, Rewrite, Runner};
//!
//! let lemma: Rewrite<()> = Rewrite::parse(
//!     "matmul-of-concat",
//!     "(matmul (concat ?a0 ?a1 1) (concat ?b0 ?b1 0))",
//!     "(add (matmul ?a0 ?b0) (matmul ?a1 ?b1))",
//! ).unwrap();
//!
//! let mut egraph = EGraph::<()>::default();
//! let lhs: RecExpr = "(matmul (concat A1 A2 1) (concat B1 B2 0))".parse().unwrap();
//! let rhs: RecExpr = "(add (matmul A1 B1) (matmul A2 B2))".parse().unwrap();
//! let l = egraph.add_expr(&lhs);
//! let r = egraph.add_expr(&rhs);
//!
//! let mut runner = Runner::new(egraph);
//! runner.run(&[lemma]);
//! assert_eq!(runner.egraph.find(l), runner.egraph.find(r));
//! ```

#![forbid(unsafe_code)]

mod egraph;
mod explain;
mod extract;
pub mod hashing;
mod machine;
mod node;
mod pattern;
mod rewrite;
mod runner;
mod store;
mod symbol;
mod unionfind;

pub use egraph::{Analysis, EClass, EGraph};
pub use explain::{Justification, Proof, ProofStep};
pub use extract::{AstSize, CostFunction, Extractor};
pub use machine::{CompiledMatcher, RuleMatches, SharedSearch, MATCHER_GENERATION};
pub use node::{ENode, ParseExprError, RecExpr, MAX_TERM_DEPTH};
pub use pattern::{Pattern, PatternAst, SearchMatches, Subst, Var};
pub use rewrite::{Condition, Rewrite};
pub use runner::{
    IterationReport, RuleReport, RunReport, Runner, SaturationReport, StopReason,
    DEFAULT_BAN_LENGTH, DEFAULT_MATCH_BUDGET,
};
pub use store::{Parents, TermStore};
pub use symbol::Symbol;
pub use unionfind::{Id, UnionFind};

#[cfg(test)]
mod tests;
