//! User-expectation checking (§4.4).
//!
//! Users sometimes want to check not just that *a* refinement exists, but
//! that a *particular* combiner works: `f_s(O(G_s)) == f_d(O(G_d))`. The
//! check reduces to model refinement: both graphs are extended with the
//! combiner expressions, refinement is checked as usual, and the extended
//! `G_s` output must map to the extended `G_d` output by the *identity*.
//! Bugs 5, 8 and 9 in the paper's evaluation are caught this way.

use std::fmt;

use entangle_egraph::{ENode, RecExpr};
use entangle_ir::{Graph, IrError, TensorId};
use entangle_lemmas::{decode_op, Meta};

use crate::checker::{check_refinement, CheckOptions, CheckOutcome, RefinementError};
use crate::relation::Relation;

/// Expectation-check failure.
#[derive(Debug)]
pub enum ExpectationError {
    /// The combiner expression could not be appended to a graph.
    Invalid(IrError),
    /// Refinement itself failed while checking the extended graphs.
    Refinement(RefinementError),
    /// Refinement holds, but not through the expected combiner: the
    /// extended outputs are not identical. Mirrors the artifact's
    /// `FailedImplyingEquivalence: User expectation violated`.
    Violated {
        /// The mappings that *were* found for the combined `G_s` output.
        found: Vec<String>,
        /// The name of the combined `G_d` output it was expected to equal.
        expected: String,
    },
}

impl fmt::Display for ExpectationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpectationError::Invalid(e) => write!(f, "invalid expectation: {e}"),
            ExpectationError::Refinement(e) => {
                write!(f, "refinement failed while checking expectation: {e}")
            }
            ExpectationError::Violated { found, expected } => {
                writeln!(
                    f,
                    "user expectation violated: combined outputs are not equal"
                )?;
                writeln!(f, "expected identity with {expected}, found mappings:")?;
                for m in found {
                    writeln!(f, "  {m}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ExpectationError {}

impl From<IrError> for ExpectationError {
    fn from(e: IrError) -> Self {
        ExpectationError::Invalid(e)
    }
}

/// Appends an expression (s-expression over the graph's tensor names) as new
/// operator nodes, returning the extended graph and the expression's output
/// tensor.
///
/// # Errors
///
/// Rejects unknown tensor names, unknown operators, and shape violations.
pub fn append_expr(
    graph: &Graph,
    expr: &RecExpr,
    name: &str,
) -> Result<(Graph, TensorId), IrError> {
    let mut g = graph.clone();
    let mut slots: Vec<Option<TensorId>> = Vec::with_capacity(expr.len());
    let mut metas: Vec<Meta> = Vec::with_capacity(expr.len());
    for (i, node) in expr.nodes().iter().enumerate() {
        let (tensor, meta) = match node {
            ENode::Int(v) => (None, Meta::scalar(entangle_symbolic::SymExpr::constant(*v))),
            ENode::Sym(e) => (None, Meta::scalar(e.clone())),
            ENode::Op(sym, ch) if ch.is_empty() => {
                let t = g
                    .tensor_by_name(sym.as_str())
                    .ok_or_else(|| IrError::UnknownTensor(sym.as_str().to_owned()))?;
                (Some(t.id), Meta::tensor(t.shape.clone(), t.dtype))
            }
            ENode::Op(sym, ch) => {
                let child_metas: Vec<&Meta> = ch.iter().map(|c| &metas[c.index()]).collect();
                let (op, tensor_count) = decode_op(sym.as_str(), &child_metas)
                    .ok_or_else(|| IrError::Invalid(format!("unknown operator {sym}")))?;
                let inputs: Result<Vec<TensorId>, IrError> = ch[..tensor_count]
                    .iter()
                    .map(|c| {
                        slots[c.index()]
                            .ok_or_else(|| IrError::Invalid("scalar used as tensor operand".into()))
                    })
                    .collect();
                let out = g.append(&format!("{name}.{i}"), op, &inputs?)?;
                let t = g.tensor(out);
                (Some(out), Meta::tensor(t.shape.clone(), t.dtype))
            }
        };
        slots.push(tensor);
        metas.push(meta);
    }
    let root = slots
        .last()
        .copied()
        .flatten()
        .ok_or_else(|| IrError::Invalid("expression is not a tensor".into()))?;
    g.add_output(root);
    g.validate()?;
    Ok((g, root))
}

/// Checks the user expectation `f_s(O(G_s)) == f_d(O(G_d))` (§4.4).
///
/// `fs` is an s-expression over `G_s` tensor names; `fd` over `G_d` tensor
/// names. Both graphs are extended with the combiners, refinement is
/// checked, and the extended `G_s` output must map to the extended `G_d`
/// output *identically* (no further rearrangement allowed).
///
/// # Errors
///
/// Returns [`ExpectationError`] when the combiners are malformed, when
/// refinement fails outright, or when refinement holds but not through the
/// expected combiner.
pub fn check_expectation(
    gs: &Graph,
    gd: &Graph,
    ri: &Relation,
    fs: &RecExpr,
    fd: &RecExpr,
    opts: &CheckOptions,
) -> Result<CheckOutcome, ExpectationError> {
    let (gs2, out_s) = append_expr(gs, fs, "expected_s")?;
    let (gd2, out_d) = append_expr(gd, fd, "expected_d")?;
    let outcome = check_refinement(&gs2, &gd2, ri, opts).map_err(ExpectationError::Refinement)?;
    let expected_name = gd2.tensor(out_d).name.clone();
    let mappings = outcome
        .output_relation
        .mappings(out_s)
        .unwrap_or(&[])
        .to_vec();
    let identity = mappings.iter().any(|m| {
        m.len() == 1 && matches!(m.root(), ENode::Op(sym, ch) if ch.is_empty() && sym.as_str() == expected_name)
    });
    if identity {
        Ok(outcome)
    } else {
        Err(ExpectationError::Violated {
            found: mappings.iter().map(|m| m.to_string()).collect(),
            expected: expected_name,
        })
    }
}
