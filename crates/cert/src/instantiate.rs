//! Substitution-based certificate instantiation.
//!
//! The checker's per-template memo stores one solved representative per
//! repeated structure class; other members differ from it only in the
//! integer slice bounds the template key abstracted to `$b{i}`
//! placeholders. Instantiating the representative's certificate for a
//! member is a *value substitution*: rewrite each bound through the
//! `representative value → member value` map, everywhere a slice bound
//! can syntactically occur — child positions 2 and 3 of a 4-argument
//! `slice` application — and nowhere else (a dim or scale that happens to
//! share a value with a bound must not move).
//!
//! Recorded rule substitutions cannot be retargeted the same way: a
//! binding `?d → 2` does not say whether the 2 was a dim or a bound, and
//! guessing wrong would forge evidence. Instead the substitution is
//! *re-derived* by matching the lemma's searcher pattern against the
//! retargeted source term — the exact check the kernel itself performs —
//! so the instantiated proof carries bindings that are correct by
//! construction or fail closed.
//!
//! Nothing here extends the trusted computing base: an instantiated
//! mapping is only admitted after [`crate::verify_mapping`] re-validates
//! the full chain in the kernel, and a rejection simply sends the checker
//! back to a concrete saturation run.

use std::collections::HashMap;

use entangle_egraph::{ENode, Id, Proof, ProofStep, RecExpr, Rewrite, Subst};
use entangle_lemmas::TensorAnalysis;

use crate::kernel::match_term;

/// Rewrites every integer slice bound in `expr` through `map`; values
/// without an entry (and integers in non-bound positions) pass through.
pub fn retarget_slice_bounds(expr: &RecExpr, map: &HashMap<i64, i64>) -> RecExpr {
    let mut out = RecExpr::new();
    copy_retargeted(expr, expr.root_id(), false, map, &mut out);
    out
}

fn copy_retargeted(
    e: &RecExpr,
    at: Id,
    bound_pos: bool,
    map: &HashMap<i64, i64>,
    out: &mut RecExpr,
) -> Id {
    match e.node(at) {
        ENode::Int(v) => {
            let v = if bound_pos {
                *map.get(v).unwrap_or(v)
            } else {
                *v
            };
            out.add(ENode::Int(v))
        }
        ENode::Sym(s) => out.add(ENode::Sym(s.clone())),
        ENode::Op(sym, ch) => {
            let slice_bounds = sym.as_str() == "slice" && ch.len() == 4;
            let ch: Vec<Id> = ch
                .iter()
                .enumerate()
                .map(|(i, &c)| copy_retargeted(e, c, slice_bounds && i >= 2, map, out))
                .collect();
            out.add(ENode::Op(*sym, ch))
        }
    }
}

/// Instantiates a proof chain for new slice-bound values: every step term
/// is retargeted through `map`, and each rule step's recorded substitution
/// is re-derived by matching the lemma's searcher against the retargeted
/// source term.
///
/// # Errors
///
/// Returns a message when a rule step names an unregistered lemma or its
/// searcher no longer matches the retargeted term — the caller treats any
/// error as "fall back to a concrete solve".
pub fn retarget_proof(
    proof: &Proof,
    map: &HashMap<i64, i64>,
    lemmas: &[Rewrite<TensorAnalysis>],
) -> Result<Proof, String> {
    let index: HashMap<&str, &Rewrite<TensorAnalysis>> =
        lemmas.iter().map(|r| (r.name(), r)).collect();
    retarget_chain(proof, map, &index)
}

fn retarget_chain(
    proof: &Proof,
    map: &HashMap<i64, i64>,
    index: &HashMap<&str, &Rewrite<TensorAnalysis>>,
) -> Result<Proof, String> {
    let steps = proof
        .steps
        .iter()
        .map(|s| retarget_step(s, map, index))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Proof { steps })
}

fn retarget_step(
    step: &ProofStep,
    map: &HashMap<i64, i64>,
    index: &HashMap<&str, &Rewrite<TensorAnalysis>>,
) -> Result<ProofStep, String> {
    match step {
        ProofStep::Given {
            fact,
            before,
            after,
        } => Ok(ProofStep::Given {
            fact: fact.clone(),
            before: retarget_slice_bounds(before, map),
            after: retarget_slice_bounds(after, map),
        }),
        ProofStep::Congruence {
            before,
            after,
            children,
        } => Ok(ProofStep::Congruence {
            before: retarget_slice_bounds(before, map),
            after: retarget_slice_bounds(after, map),
            children: children
                .iter()
                .map(|p| retarget_chain(p, map, index))
                .collect::<Result<Vec<_>, _>>()?,
        }),
        ProofStep::Rule {
            name,
            forward,
            subst: _,
            before,
            after,
        } => {
            let before = retarget_slice_bounds(before, map);
            let after = retarget_slice_bounds(after, map);
            let rw = index
                .get(name.as_str())
                .ok_or_else(|| format!("instantiation names unregistered lemma {name}"))?;
            // Rule steps apply at term roots (subterm rewrites arrive
            // congruence-wrapped), so the searcher must match the whole
            // retargeted source term.
            let source = if *forward { &before } else { &after };
            let mut sigma = Subst::new();
            if !match_term(rw.searcher().ast(), source, source.root_id(), &mut sigma) {
                return Err(format!(
                    "lemma {name} no longer matches the retargeted source term"
                ));
            }
            let subst = sigma
                .iter()
                .map(|(v, id)| (v.as_str().to_owned(), source.extract_subtree(id)))
                .collect();
            Ok(ProofStep::Rule {
                name: name.clone(),
                forward: *forward,
                subst,
                before,
                after,
            })
        }
    }
}
