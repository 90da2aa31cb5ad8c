//! The ENTANGLE lemma corpus.
//!
//! Lemmas are the rewrite rules the checker saturates with (§4.2.1): each
//! states that under a condition `C`, an expression `p_m` can be rewritten to
//! an equivalent `p_n`. The paper's implementation devotes ~4,100 lines of
//! Rust to lemmas for PyTorch's ATen library (plus per-model additions for
//! fused vLLM kernels and HLO operators, §6.5); this crate is that corpus
//! for the reproduction's operator vocabulary.
//!
//! Three kinds of lemma, matching §5 "Writing Lemmas":
//!
//! - **universal** — `lhs => rhs` pattern pairs, one line each (e.g.
//!   `gelu-of-concat`);
//! - **conditioned** — gated on shape/dimension facts resolved through the
//!   class analysis and, for symbolic scalars, the
//!   [`entangle_symbolic::SymCtx`] decision procedure (e.g.
//!   `slice-of-concat`, the paper's Listing 4 example);
//! - **dynamic** — the right-hand side is computed from the matched
//!   bindings (`|egraph, subst| { ... }`), e.g. `rope-seq-concat`, which
//!   must slice the `cos`/`sin` tables at the sequence seam (the lemma that
//!   catches Bug 1).
//!
//! Generative lemmas are *constrained* per §4.3.2: they only fire when their
//! target subterm already exists as an e-node, which keeps saturation from
//! blowing up without sacrificing the rewrites refinement proofs need.
//!
//! Every lemma carries metadata — category (`c`lean-op / `v`LLM-style fused
//! / `h`LO-style / general), lines of code, operator-count complexity, and
//! the models that required it — which is exactly the data behind the
//! paper's Figures 5 and 6.
//!
//! # Examples
//!
//! ```
//! use entangle_lemmas::{registry, Category};
//!
//! let lemmas = registry();
//! assert!(lemmas.len() >= 60);
//! let clean = lemmas.iter().filter(|l| l.category == Category::Clean).count();
//! assert!(clean >= 8);
//! // Every lemma has a unique name.
//! let mut names: Vec<_> = lemmas.iter().map(|l| l.name.as_str()).collect();
//! names.sort();
//! names.dedup();
//! assert_eq!(names.len(), lemmas.len());
//! ```

#![forbid(unsafe_code)]

mod analysis;
mod corpus;
mod term;

pub use analysis::{cond, decode_op, Meta, TensorAnalysis};
pub use corpus::{registry, rewrites_of, Category, Lemma};
pub use term::{
    infer_application, mint_ones_leaf, parse_ones_leaf, ApplyError, MalformedLeaf,
    SYNTHETIC_LEAF_PREFIX,
};

#[cfg(test)]
mod tests;
