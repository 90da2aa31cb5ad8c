//! Certificate data model and structural term utilities.

use std::fmt;

use entangle_egraph::{Proof, RecExpr};

/// One certified `R_o` mapping: the checker's claim that `G_s` tensor
/// `tensor` (produced by operator `operator`) is computed by the clean
/// expression `expr` over `G_d` tensors, together with the rewrite chain
/// proving it.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingCert {
    /// The `G_s` tensor this mapping is for (the operator's output).
    pub tensor: String,
    /// The `G_s` operator node whose encoding the proof starts from.
    pub operator: String,
    /// The accepted mapping chosen for each of the operator's inputs, in
    /// operator order. The proof's start term is the operator applied to
    /// exactly these expressions (with collectives lowered).
    pub inputs: Vec<RecExpr>,
    /// The clean expression over `G_d` tensors being certified.
    pub expr: RecExpr,
    /// Rewrite chain from the encoded operator application to `expr`.
    pub proof: Proof,
}

/// Advisory numeric verdict for one `R_o` output, embedded in the
/// interchange so downstream consumers know how strictly the
/// differential oracle may compare. Stored as plain tags: the trusted
/// kernel ignores this section entirely (it is derived, not certified),
/// and the cert crate must not depend on the analysis that derives it.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericVerdict {
    /// The `G_s` tensor this verdict is for.
    pub tensor: String,
    /// Numeric class tag: `bit-exact`, `reassoc`, `unknown` or
    /// `value-changing`.
    pub class: String,
    /// Statically derived rounding-site count (meaningful for `reassoc`).
    pub k: u64,
}

/// A refinement certificate: the full derivation `check_refinement`
/// performed, re-checkable by [`crate::verify`] without trusting the
/// saturation engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Certificate {
    /// Name of the sequential graph `G_s`.
    pub gs: String,
    /// Name of the distributed graph `G_d`.
    pub gd: String,
    /// The input relation `R_i` the derivation started from, as
    /// `(G_s tensor name, mappings)` sorted by `G_s` tensor id. These are
    /// the certificate's axioms: the kernel validates their shapes but
    /// takes their correctness as given, exactly as the paper does.
    pub inputs: Vec<(String, Vec<RecExpr>)>,
    /// One certificate per derived mapping, in derivation (topological)
    /// order — a mapping may only reference inputs accepted earlier.
    pub mappings: Vec<MappingCert>,
    /// The output relation `R_o`, as `(G_s tensor name, expression)`
    /// sorted by `G_s` tensor id. Every entry must be an accepted mapping
    /// whose leaves are all `G_d` *outputs* (Listing 1, line 9).
    pub outputs: Vec<(String, RecExpr)>,
    /// Advisory per-output numeric verdicts (may be empty). Not part of
    /// the certified claim: [`crate::verify`] never reads this section.
    pub numeric: Vec<NumericVerdict>,
}

impl Certificate {
    /// Total number of proof steps across all mappings (including
    /// congruence sub-proofs).
    pub fn total_steps(&self) -> usize {
        self.mappings.iter().map(|m| m.proof.size()).sum()
    }
}

/// Why the kernel refused a certificate.
#[derive(Debug, Clone, PartialEq)]
pub enum CertError {
    /// The certificate is structurally unusable: unknown tensor or
    /// operator names, unserializable terms, malformed JSON.
    Malformed(String),
    /// A mapping's proof failed validation.
    Rejected {
        /// The `G_s` tensor whose mapping was refused (empty for failures
        /// in the output relation).
        tensor: String,
        /// What the kernel could not validate.
        reason: String,
    },
}

impl CertError {
    pub(crate) fn rejected(tensor: &str, reason: impl Into<String>) -> CertError {
        CertError::Rejected {
            tensor: tensor.to_owned(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Malformed(what) => write!(f, "malformed certificate: {what}"),
            CertError::Rejected { tensor, reason } if tensor.is_empty() => {
                write!(f, "certificate rejected: {reason}")
            }
            CertError::Rejected { tensor, reason } => {
                write!(f, "certificate rejected for {tensor}: {reason}")
            }
        }
    }
}

impl std::error::Error for CertError {}
