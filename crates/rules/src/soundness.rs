//! Abstract shape/dtype soundness (RL05): re-derive both sides of every
//! unconditioned pattern rule over a small ground palette and flag rules
//! whose sides disagree.
//!
//! The evaluator runs the shape rule `TensorAnalysis::make` runs
//! ([`infer_application`]) up the term from leaf metas, so a disagreement
//! here is a disagreement the e-graph analysis would produce at saturation
//! time, found without building an e-graph. Conservatively, a combination only
//! counts when **both** sides derive a concrete tensor meta: instantiations
//! the operator vocabulary rejects (rank/shape errors, attribute positions
//! fed tensors) are skipped, so the pass has no false positives by
//! construction on rules it cannot fully evaluate.

use std::collections::HashMap;

use entangle_egraph::{PatternAst, Rewrite, Var};
use entangle_ir::DType;
use entangle_lemmas::{infer_application, Meta, TensorAnalysis};
use entangle_symbolic::SymExpr;

/// One shape/dtype disagreement between a rule's two sides.
#[derive(Debug, Clone)]
pub struct ShapeFinding {
    /// Index of the offending rule in the analyzed slice.
    pub rule: usize,
    /// Human-readable description of the ground instantiation.
    pub binding: String,
    /// `shape dtype` derived for the LHS.
    pub lhs: String,
    /// `shape dtype` derived for the RHS.
    pub rhs: String,
}

use crate::ground::{assignments, palette};

/// Evaluates a pattern bottom-up under a ground environment. Unknown
/// leaves / uninferable applications yield [`Meta::unknown`].
fn eval(ast: &PatternAst, env: &HashMap<Var, Meta>) -> Meta {
    match ast {
        PatternAst::Var(v) => env.get(v).cloned().unwrap_or_else(Meta::unknown),
        PatternAst::Int(i) => Meta::scalar(SymExpr::constant(*i)),
        PatternAst::Op(_, ch) if ch.is_empty() => Meta::unknown(),
        PatternAst::Op(sym, ch) => {
            let metas: Vec<Meta> = ch.iter().map(|c| eval(c, env)).collect();
            infer_application(*sym, &metas).unwrap_or_default()
        }
    }
}

fn render_meta(m: &Meta) -> String {
    match (&m.shape, m.dtype) {
        (Some(s), Some(d)) => format!("{s} {d:?}"),
        _ => "?".to_owned(),
    }
}

fn render_binding(vars: &[Var], env: &HashMap<Var, Meta>) -> String {
    vars.iter()
        .map(|v| {
            let m = &env[v];
            let val = match &m.scalar {
                Some(s) => format!("{s}"),
                None => render_meta(m),
            };
            format!("{v}={val}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Checks one rule over the palette; returns the first disagreement.
fn check_rule(rule: usize, rw: &Rewrite<TensorAnalysis>) -> Option<ShapeFinding> {
    let rhs = rw.rhs()?; // pattern rules only — dyn appliers have no static RHS
    if rw.has_condition() {
        return None; // conditions gate instantiations the palette can't model
    }
    let lhs = rw.searcher().ast();
    let vars = lhs.vars();
    // Per-variable choices: each var is either a tensor of one of the
    // palette shapes or an attribute int. The dtype is uniform per sweep.
    for dtype in [DType::F32, DType::I64] {
        let choices = palette(dtype);
        for picks in assignments(vars.len(), choices.len()) {
            let env: HashMap<Var, Meta> = vars
                .iter()
                .zip(&picks)
                .map(|(&v, &p)| (v, choices[p].clone()))
                .collect();
            let l = eval(lhs, &env);
            if l.shape.is_some() && l.dtype.is_some() {
                let r = eval(rhs.ast(), &env);
                if r.shape.is_some()
                    && r.dtype.is_some()
                    && (l.shape != r.shape || l.dtype != r.dtype)
                {
                    return Some(ShapeFinding {
                        rule,
                        binding: render_binding(&vars, &env),
                        lhs: render_meta(&l),
                        rhs: render_meta(&r),
                    });
                }
            }
        }
    }
    None
}

/// Runs the shape/dtype soundness pass over a rewrite slice.
pub fn shape_findings(rewrites: &[Rewrite<TensorAnalysis>]) -> Vec<ShapeFinding> {
    rewrites
        .iter()
        .enumerate()
        .filter_map(|(i, rw)| check_rule(i, rw))
        .collect()
}
