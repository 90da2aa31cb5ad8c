//! What a term means whoever walks it (DESIGN.md, *Term language*): the
//! shape rule of an application and the grammar of synthetic leaf names.
//! Callers bring their own leaf policy and their own error policy.

use std::fmt;

use entangle_egraph::Symbol;
use entangle_ir::{infer_output, DType, IrError, Shape};

use crate::analysis::{decode_op, Meta};

/// Why [`infer_application`] has no answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ApplyError {
    /// The head is outside [`crate::OP_VOCABULARY`], or an attribute child
    /// is not the scalar the operator's encoding puts there.
    UnknownOperator(Symbol),
    /// A leading (tensor) child has no known shape.
    OperandLacksShape,
    /// A leading (tensor) child has no known dtype.
    OperandLacksDtype,
    /// The operator rejects these operands.
    Infer(IrError),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::UnknownOperator(head) => write!(f, "unknown operator {head}"),
            ApplyError::OperandLacksShape => f.write_str("tensor operand lacks shape"),
            ApplyError::OperandLacksDtype => f.write_str("tensor operand lacks dtype"),
            ApplyError::Infer(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<ApplyError> for IrError {
    fn from(e: ApplyError) -> IrError {
        match e {
            ApplyError::Infer(e) => e,
            other => IrError::Invalid(other.to_string()),
        }
    }
}

/// The shape rule: what the application `(head children…)` denotes, given
/// what its children do — [`decode_op`], then the operator's own inference
/// over the leading tensor children. The error owns nothing but what
/// `infer_output` built, so folding it to [`Meta::unknown`] allocates nothing.
pub fn infer_application(head: Symbol, children: &[Meta]) -> Result<Meta, ApplyError> {
    let (op, tensor_count) =
        decode_op(head.as_str(), children).ok_or(ApplyError::UnknownOperator(head))?;
    let inputs = children[..tensor_count]
        .iter()
        .map(|m| {
            let shape = m.shape.clone().ok_or(ApplyError::OperandLacksShape)?;
            Ok((shape, m.dtype.ok_or(ApplyError::OperandLacksDtype)?))
        })
        .collect::<Result<Vec<(Shape, DType)>, ApplyError>>()?;
    let (shape, dtype) = infer_output(&op, &inputs).map_err(ApplyError::Infer)?;
    Ok(Meta::tensor(shape, dtype))
}

/// Prefix of *synthetic* leaf names minted by canonicalization lemmas
/// (e.g. the shape-keyed ones-tensor representative `~ones[2, 3]`). These
/// leaves unify e-classes but denote no `G_d` tensor, so the checker's
/// clean-expression extraction must exclude them.
pub const SYNTHETIC_LEAF_PREFIX: char = '~';

/// A name under [`SYNTHETIC_LEAF_PREFIX`] that [`mint_ones_leaf`] does not
/// write for a concrete shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalformedLeaf;

/// The leaf standing for every `F32` all-ones tensor of `shape`.
pub fn mint_ones_leaf(shape: &Shape) -> String {
    format!("{SYNTHETIC_LEAF_PREFIX}ones{shape}")
}

/// Reads a leaf name back: `Ok(None)` for an ordinary name, the dims of the
/// ones tensor for a synthetic one, [`MalformedLeaf`] for anything else
/// under the prefix (a symbolic dim included).
pub fn parse_ones_leaf(name: &str) -> Result<Option<Vec<usize>>, MalformedLeaf> {
    let Some(rest) = name.strip_prefix(SYNTHETIC_LEAF_PREFIX) else {
        return Ok(None);
    };
    let body = rest.strip_prefix("ones[").and_then(|r| r.strip_suffix(']'));
    let body = body.ok_or(MalformedLeaf)?.trim();
    if body.is_empty() {
        return Ok(Some(Vec::new()));
    }
    // A dim is what `Shape` can hold and a tensor can have: no sign, an `i64`.
    let dim = |text: &str| {
        text.trim()
            .parse()
            .ok()
            .filter(|&d| i64::try_from(d).is_ok())
    };
    body.split(',')
        .map(|text| dim(text).ok_or(MalformedLeaf))
        .collect::<Result<_, _>>()
        .map(Some)
}
