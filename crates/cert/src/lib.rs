//! Proof-carrying refinement: rewrite certificates and the trusted kernel
//! that re-checks them.
//!
//! `check_refinement`'s verdict rests on ~4k lines of from-scratch e-graph
//! engine. Translation-validation style checkers re-establish trust by
//! making the *search* untrusted and re-checking its output with a small,
//! independent kernel — the approach of production graph verifiers and
//! GPUVerify-style equivalence checkers. This crate is that kernel for
//! ENTANGLE:
//!
//! - [`Certificate`]: everything the checker claimed — the input relation
//!   `R_i` it started from, one [`MappingCert`] per derived mapping (with a
//!   step-by-step [`Proof`] extracted from the saturation e-graph), and the
//!   output relation `R_o` it returned.
//! - [`verify`]: the trusted kernel. No union-find and no search during
//!   validation — each proof step is checked by *term* matching,
//!   substitution and shape/dtype re-inference over one hash-consed term
//!   table per verification (a term is interned once, after which equality
//!   is id equality and inference a memo per id); symbolic side conditions
//!   are discharged through `entangle-symbolic`. Only registered lemmas,
//!   `G_d` operator definitions and already-accepted mappings may justify a
//!   step.
//! - [`to_json`] / [`from_json`]: a JSON interchange format so certificates
//!   can be shipped and audited out-of-process (`entangle certify`): one
//!   table of distinct subterms per document, every term position an index
//!   into it.
//!
//! The trusted computing base deliberately excludes the saturation engine:
//! see DESIGN.md ("Certificates and the trusted kernel") for the exact
//! boundary.

#![forbid(unsafe_code)]

mod cert;
mod instantiate;
mod json;
mod kernel;
mod table;

#[cfg(test)]
mod tests;

pub use cert::{exprs_eq, term_eq, CertError, Certificate, MappingCert, NumericVerdict};
pub use instantiate::{retarget_proof, retarget_slice_bounds};
pub use json::{from_json, from_json_counting, to_json, MAX_TERM_DEPTH};
pub use kernel::{verify, verify_mapping, verify_reporting, KernelReport};
