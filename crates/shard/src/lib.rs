//! Abstract sharding-propagation analysis for ENTANGLE (`entangle-shard`).
//!
//! ENTANGLE's refinement checker discovers a distribution bug only after
//! equality saturation fails to extend the output relation — expensive, and
//! the failure is a *symptom* (an unmappable operator), not a cause. This
//! crate front-loads a whole-graph dataflow pass in the style of
//! production graph verifiers: every tensor of the distributed program is
//! assigned an abstract layout — replicated, a window of slices and
//! padding along one dimension, a partial sum, or unknown — seeded from the
//! input relation and pushed through per-operator transfer functions for
//! the full operator vocabulary, collectives included.
//!
//! Two products come out of one pass:
//!
//! 1. **Localized diagnostics** (`SH##` codes, [`codes`]): provable layout
//!    violations — misaligned element-wise/fused combinations, partial-sum
//!    groups that fail to tile, slices straddling padding, unreduced
//!    partials consumed by a contraction — anchored at the *first*
//!    inconsistent operator, through the `entangle-lint` diagnostic
//!    machinery. Most of the paper's Table-3 bug suite is decidable here,
//!    before any e-graph exists.
//! 2. **Relation hints** ([`Hint`]): when layouts *prove* a mapping (shards
//!    tile a dimension, partials tile a range, a tensor is an exact
//!    replica), the proof is exported as a candidate mapping: the
//!    `entangle shard` report and the `benchmark/` row
//!    `shard.hinted_tensors`. The checker consumes none of them — a hint
//!    carries no rewrite derivation the trusted kernel could re-check.
//!
//! Soundness: the analysis only ever *claims* something when the claim is
//! forced (hash-consed logical terms built over `G_s` names must coincide);
//! anything unprovable widens to `Unknown`, over which the saturation
//! checker retains full authority. Unseeded inputs get opaque fresh terms
//! that match nothing.
//!
//! # Examples
//!
//! Localizing the paper's bug 1 (rope applied with rank-0's rotary tables
//! on every rank) without saturation:
//!
//! ```
//! use entangle_parallel::bugs::all_bugs;
//! use entangle_shard::analyze_pair;
//!
//! let bug = all_bugs(true).remove(0); // "bug1-rope-offset"
//! let maps: Vec<(String, entangle_egraph::RecExpr)> = bug
//!     .dist
//!     .input_maps
//!     .iter()
//!     .map(|(gs, expr)| (gs.clone(), expr.parse().unwrap()))
//!     .collect();
//! let analysis = analyze_pair(&bug.gs, &bug.dist.graph, &maps, &bug.dist.declared);
//! assert!(!analysis.is_clean());
//! let first = analysis.report.errors().next().unwrap();
//! assert_eq!(first.code, entangle_shard::codes::WINDOW_MISALIGNED);
//! ```

#![forbid(unsafe_code)]

mod analyze;
mod domain;
mod hints;
mod transfer;

pub use analyze::{analyze_graph, analyze_pair, ShardAnalysis};
pub use domain::{AbsVal, Head, TermId, TermNode, TermTable, CONTRACTION_AXIS};
pub use hints::Hint;

/// The `SH##` diagnostic-code catalogue (stable, like `entangle_lint::codes`).
pub mod codes {
    /// A collective combines partial sums whose pieces do not tile the
    /// reduced range (gap, overlap, or missing addend).
    pub const PARTIAL_TILE: &str = "SH01";
    /// An element-wise or fused operator combines windows of different
    /// tensors with mismatched slices (misaligned shards).
    pub const WINDOW_MISALIGNED: &str = "SH02";
    /// A slice straddles a padding boundary, mixing padding zeros with
    /// data.
    pub const SLICE_STRADDLES_PAD: &str = "SH03";
    /// A matrix multiply consumes an unreduced partial sum together with a
    /// sharded operand.
    pub const PARTIAL_CONSUMED: &str = "SH04";
    /// An input reachable from the outputs appears in no input mapping.
    pub const UNMAPPED_INPUT: &str = "SH05";
    /// A strategy-declared layout disagrees with the layout the input
    /// relation implies.
    pub const DECLARED_MISMATCH: &str = "SH06";
}

#[cfg(test)]
mod tests;
