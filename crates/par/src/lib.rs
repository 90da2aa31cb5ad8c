//! Canonical renaming for the refinement checker's saturation memo.
//!
//! [`Renamer`] is the bijective leaf/fact renaming that moves a
//! per-operator problem into canonical name space (`$t0, $t1, …`) and its
//! results — mappings, proofs, given facts — back out, so two operators
//! that pose the same problem up to tensor names share one memo entry. It
//! knows nothing about graphs or relations.

#![forbid(unsafe_code)]

mod canon;

pub use canon::Renamer;
