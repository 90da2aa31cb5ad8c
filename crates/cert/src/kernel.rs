//! The trusted kernel: engine-independent certificate validation.
//!
//! Validation never consults the saturation e-graph that produced the
//! certificate. Every proof step is an equation between two *concrete
//! terms*; the kernel checks it by pattern matching and substitution over
//! those terms, re-inferring shapes and dtypes at every step. Two step
//! kinds go beyond pure term rewriting:
//!
//! - *Given* facts are only trusted when they restate a `G_d` operator
//!   definition (the kernel re-encodes the operator itself) or connect two
//!   already-accepted mappings of one `G_s` tensor.
//! - Conditioned and dynamic lemmas (whose right-hand sides are computed
//!   by closures) are *replayed* in a tiny scratch e-graph seeded with
//!   exactly the step's two terms; the replay must fire the lemma's own
//!   condition/applier and reproduce the target term without performing a
//!   single union, so the scratch graph acts as a hash-consed term store,
//!   never as a search engine. Symbolic side conditions are discharged by
//!   `entangle-symbolic` through the lemma's condition closure.

use std::collections::{HashMap, HashSet};

use entangle_egraph::{EGraph, ENode, Id, PatternAst, Proof, ProofStep, RecExpr, Rewrite, Var};
use entangle_ir::{DType, Graph, Op, Shape};
use entangle_lemmas::{decode_op, Meta, TensorAnalysis, SYNTHETIC_LEAF_PREFIX};
use entangle_symbolic::{SymCtx, SymExpr};

use crate::cert::{copy_expr, exprs_eq, term_eq, CertError, Certificate, MappingCert};

/// Accepted mappings per `G_s` tensor name, grown as mapping certificates
/// are validated in order.
type Accepted = HashMap<String, Vec<RecExpr>>;

/// Re-checks a [`Certificate`] against the graph pair, the lemma corpus
/// and the symbolic context.
///
/// The input relation in `cert.inputs` is the certificate's axiom set: the
/// kernel validates that each entry is a well-formed expression over `G_d`
/// tensors with the mapped tensor's shape and dtype, then takes it as
/// given — exactly the paper's trust model for `R_i`. Everything else is
/// re-derived: each [`MappingCert`] must start from the kernel's own
/// encoding of its `G_s` operator over accepted input mappings, every
/// proof step must be justified, and the output relation must consist of
/// accepted mappings over `G_d` *output* tensors only.
///
/// # Errors
///
/// [`CertError::Malformed`] for structurally unusable certificates,
/// [`CertError::Rejected`] when a proof fails validation.
pub fn verify(
    cert: &Certificate,
    gs: &Graph,
    gd: &Graph,
    lemmas: &[Rewrite<TensorAnalysis>],
    ctx: &SymCtx,
) -> Result<(), CertError> {
    let lemma_index: HashMap<&str, &Rewrite<TensorAnalysis>> =
        lemmas.iter().map(|r| (r.name(), r)).collect();

    // R_i: shape-validated axioms.
    let mut accepted: Accepted = HashMap::new();
    for (name, exprs) in &cert.inputs {
        let t = gs.tensor_by_name(name).ok_or_else(|| {
            CertError::Malformed(format!("unknown G_s tensor {name} in certificate inputs"))
        })?;
        for e in exprs {
            match term_meta_at(e, e.root_id(), gd).map_err(|why| CertError::rejected(name, why))? {
                TermMeta::Tensor(shape, dtype) if shape == t.shape && dtype == t.dtype => {}
                TermMeta::Tensor(shape, dtype) => {
                    return Err(CertError::rejected(
                        name,
                        format!(
                            "input mapping {e} has shape {shape} dtype {dtype}, tensor has {} {}",
                            t.shape, t.dtype
                        ),
                    ));
                }
                TermMeta::Scalar => {
                    return Err(CertError::rejected(
                        name,
                        format!("input mapping {e} is a scalar"),
                    ));
                }
            }
            accepted.entry(name.clone()).or_default().push(e.clone());
        }
    }

    // Mapping certificates, in derivation order.
    for mc in &cert.mappings {
        check_mapping(mc, gs, gd, &lemma_index, ctx, &accepted)?;
        accepted
            .entry(mc.tensor.clone())
            .or_default()
            .push(mc.expr.clone());
    }

    // R_o: accepted mappings over G_d outputs, covering every G_s output.
    let gd_outputs: HashSet<&str> = gd
        .outputs()
        .iter()
        .map(|&t| gd.tensor(t).name.as_str())
        .collect();
    for (name, e) in &cert.outputs {
        let t = gs.tensor_by_name(name).ok_or_else(|| {
            CertError::Malformed(format!("unknown G_s tensor {name} in certificate outputs"))
        })?;
        if !gs.outputs().contains(&t.id) {
            return Err(CertError::rejected(name, "not a G_s output tensor"));
        }
        if !accepted
            .get(name)
            .is_some_and(|ms| ms.iter().any(|m| exprs_eq(m, e)))
        {
            return Err(CertError::rejected(
                name,
                format!("output mapping {e} was never accepted"),
            ));
        }
        for sym in e.leaf_symbols() {
            if !gd_outputs.contains(sym.as_str()) {
                return Err(CertError::rejected(
                    name,
                    format!("output mapping {e} uses non-output G_d tensor {sym}"),
                ));
            }
        }
    }
    for &t in gs.outputs() {
        let name = &gs.tensor(t).name;
        if !cert.outputs.iter().any(|(n, _)| n == name) {
            return Err(CertError::rejected(
                name,
                "G_s output has no mapping in the certificate's output relation",
            ));
        }
    }
    Ok(())
}

/// Validates a single [`MappingCert`] against an explicitly supplied
/// accepted-mapping set (`G_s` input tensor name → accepted expressions).
///
/// This is the entry point the checker's template instantiation uses: an
/// instantiated mapping is kernel-checked *eagerly*, before it may enter
/// the relation, under exactly the rules [`verify`] applies per mapping —
/// the proof must start from the kernel's own operator encoding, every
/// step must be justified, and the result must re-infer to the `G_s`
/// tensor's shape and dtype.
///
/// # Errors
///
/// [`CertError::Malformed`] for an unknown operator,
/// [`CertError::Rejected`] when the chain fails validation.
pub fn verify_mapping(
    mc: &MappingCert,
    gs: &Graph,
    gd: &Graph,
    lemmas: &[Rewrite<TensorAnalysis>],
    ctx: &SymCtx,
    accepted: &HashMap<String, Vec<RecExpr>>,
) -> Result<(), CertError> {
    let lemma_index: HashMap<&str, &Rewrite<TensorAnalysis>> =
        lemmas.iter().map(|r| (r.name(), r)).collect();
    check_mapping(mc, gs, gd, &lemma_index, ctx, accepted)
}

fn check_mapping(
    mc: &MappingCert,
    gs: &Graph,
    gd: &Graph,
    lemmas: &HashMap<&str, &Rewrite<TensorAnalysis>>,
    ctx: &SymCtx,
    accepted: &Accepted,
) -> Result<(), CertError> {
    let node = gs
        .node_by_name(&mc.operator)
        .ok_or_else(|| CertError::Malformed(format!("unknown G_s operator {}", mc.operator)))?;
    if gs.tensor(node.output).name != mc.tensor {
        return Err(CertError::rejected(
            &mc.tensor,
            format!("operator {} does not produce this tensor", mc.operator),
        ));
    }
    if node.inputs.len() != mc.inputs.len() {
        return Err(CertError::rejected(
            &mc.tensor,
            format!(
                "operator {} takes {} inputs, certificate supplies {}",
                mc.operator,
                node.inputs.len(),
                mc.inputs.len()
            ),
        ));
    }
    for (i, e) in mc.inputs.iter().enumerate() {
        let in_name = &gs.tensor(node.inputs[i]).name;
        if !accepted
            .get(in_name)
            .is_some_and(|ms| ms.iter().any(|m| exprs_eq(m, e)))
        {
            return Err(CertError::rejected(
                &mc.tensor,
                format!("input {i} ({in_name}) uses an unaccepted mapping {e}"),
            ));
        }
    }
    // The proof must start at the kernel's own encoding of the operator.
    let base = encode_op_term(&node.op, &mc.inputs, gd)
        .map_err(|why| CertError::rejected(&mc.tensor, why))?;
    validate_chain(
        &mc.proof,
        (&base, base.root_id()),
        (&mc.expr, mc.expr.root_id()),
        gd,
        lemmas,
        ctx,
        accepted,
    )
    .map_err(|why| CertError::rejected(&mc.tensor, why))?;
    // The certified expression must re-infer to the G_s tensor's metadata.
    let ts = gs.tensor(node.output);
    match term_meta_at(&mc.expr, mc.expr.root_id(), gd)
        .map_err(|why| CertError::rejected(&mc.tensor, why))?
    {
        TermMeta::Tensor(shape, dtype) if shape == ts.shape && dtype == ts.dtype => Ok(()),
        TermMeta::Tensor(shape, dtype) => Err(CertError::rejected(
            &mc.tensor,
            format!(
                "certified expression has shape {shape} dtype {dtype}, tensor has {} {}",
                ts.shape, ts.dtype
            ),
        )),
        TermMeta::Scalar => Err(CertError::rejected(
            &mc.tensor,
            "certified expression is a scalar",
        )),
    }
}

/// Validates that `proof` is a connected chain from `from` to `to`, with
/// every step justified and shape/dtype preserved across each step.
#[allow(clippy::too_many_arguments)]
fn validate_chain(
    proof: &Proof,
    from: (&RecExpr, Id),
    to: (&RecExpr, Id),
    gd: &Graph,
    lemmas: &HashMap<&str, &Rewrite<TensorAnalysis>>,
    ctx: &SymCtx,
    accepted: &Accepted,
) -> Result<(), String> {
    validate_chain_from(proof, from, None, to, gd, lemmas, ctx, accepted)
}

/// [`validate_chain`] with an optionally pre-computed meta for `from` —
/// congruence steps infer the whole `before` term once and hand each child
/// its slot's meta instead of re-inferring the full term per child.
#[allow(clippy::too_many_arguments)]
fn validate_chain_from(
    proof: &Proof,
    from: (&RecExpr, Id),
    from_meta: Option<TermMeta>,
    to: (&RecExpr, Id),
    gd: &Graph,
    lemmas: &HashMap<&str, &Rewrite<TensorAnalysis>>,
    ctx: &SymCtx,
    accepted: &Accepted,
) -> Result<(), String> {
    if proof.steps.is_empty() {
        return if term_eq(from.0, from.1, to.0, to.1) {
            Ok(())
        } else {
            Err("empty proof between distinct terms".to_owned())
        };
    }
    let first = proof.steps.first().expect("non-empty");
    if !term_eq(from.0, from.1, first.before(), first.before().root_id()) {
        return Err(format!(
            "proof starts at {} instead of the required term",
            first.before()
        ));
    }
    let mut cur_meta = match from_meta {
        Some(m) => m,
        None => term_meta_at(from.0, from.1, gd)?,
    };
    for (k, step) in proof.steps.iter().enumerate() {
        if k > 0 && !exprs_eq(proof.steps[k - 1].after(), step.before()) {
            return Err(format!("step {k} does not chain from the previous step"));
        }
        let after = step.after();
        let after_meta =
            term_meta_at(after, after.root_id(), gd).map_err(|why| format!("step {k}: {why}"))?;
        if after_meta != cur_meta {
            return Err(format!("step {k} changes the term's shape or dtype"));
        }
        cur_meta = after_meta;
        check_step(step, gd, lemmas, ctx, accepted).map_err(|why| format!("step {k}: {why}"))?;
    }
    let last = proof.steps.last().expect("non-empty");
    if !term_eq(last.after(), last.after().root_id(), to.0, to.1) {
        return Err("proof does not reach the required term".to_owned());
    }
    Ok(())
}

fn check_step(
    step: &ProofStep,
    gd: &Graph,
    lemmas: &HashMap<&str, &Rewrite<TensorAnalysis>>,
    ctx: &SymCtx,
    accepted: &Accepted,
) -> Result<(), String> {
    match step {
        ProofStep::Given {
            fact,
            before,
            after,
        } => check_given(fact, before, after, gd, accepted),
        ProofStep::Congruence {
            before,
            after,
            children,
        } => {
            let (ENode::Op(sb, cb), ENode::Op(sa, ca)) = (before.root(), after.root()) else {
                return Err("congruence step between non-operator terms".to_owned());
            };
            if sb != sa || cb.len() != ca.len() || cb.len() != children.len() {
                return Err("congruence step operator/arity mismatch".to_owned());
            }
            let before_metas = term_metas(before, gd)?;
            for (i, child) in children.iter().enumerate() {
                let from_meta = meta_term(&before_metas[cb[i].index()])
                    .map_err(|why| format!("argument {i}: {why}"))?;
                validate_chain_from(
                    child,
                    (before, cb[i]),
                    Some(from_meta),
                    (after, ca[i]),
                    gd,
                    lemmas,
                    ctx,
                    accepted,
                )
                .map_err(|why| format!("argument {i}: {why}"))?;
            }
            Ok(())
        }
        ProofStep::Rule {
            name,
            forward,
            subst,
            before,
            after,
        } => {
            let rw = lemmas
                .get(name.as_str())
                .ok_or_else(|| format!("unknown lemma {name}"))?;
            let (lhs_t, rhs_t) = if *forward {
                (before, after)
            } else {
                (after, before)
            };
            if rw.rhs().is_some() && !rw.has_condition() {
                check_universal(rw, subst, lhs_t, rhs_t)
            } else {
                replay(rw, subst, lhs_t, rhs_t, gd, ctx)
            }
        }
    }
}

fn check_given(
    fact: &str,
    before: &RecExpr,
    after: &RecExpr,
    gd: &Graph,
    accepted: &Accepted,
) -> Result<(), String> {
    if let Some(op_name) = fact.strip_prefix("G_d definition of ") {
        let node = gd
            .node_by_name(op_name)
            .ok_or_else(|| format!("no G_d operator named {op_name}"))?;
        let mut leaf = RecExpr::default();
        leaf.add(ENode::leaf(&gd.tensor(node.output).name));
        let input_leaves: Vec<RecExpr> = node
            .inputs
            .iter()
            .map(|&t| {
                let mut e = RecExpr::default();
                e.add(ENode::leaf(&gd.tensor(t).name));
                e
            })
            .collect();
        let app = encode_op_term(&node.op, &input_leaves, gd)?;
        let matches = (exprs_eq(before, &leaf) && exprs_eq(after, &app))
            || (exprs_eq(before, &app) && exprs_eq(after, &leaf));
        if matches {
            Ok(())
        } else {
            Err(format!("terms do not restate the definition of {op_name}"))
        }
    } else if let Some(tname) = fact.strip_prefix("mappings of G_s tensor ") {
        let ms = accepted
            .get(tname)
            .ok_or_else(|| format!("no accepted mappings for G_s tensor {tname}"))?;
        if ms.iter().any(|m| exprs_eq(m, before)) && ms.iter().any(|m| exprs_eq(m, after)) {
            Ok(())
        } else {
            Err(format!(
                "terms are not both accepted mappings of G_s tensor {tname}"
            ))
        }
    } else {
        Err(format!("unrecognized given fact {fact:?}"))
    }
}

/// Pure validation of an unconditional pattern→pattern lemma: match the
/// LHS pattern against the source term, require the bindings to agree with
/// the recorded substitution, and require the RHS instantiation to be the
/// target term. Capture is impossible by construction: pattern variables
/// bind whole subterms and the term language has no binders.
fn check_universal(
    rw: &Rewrite<TensorAnalysis>,
    recorded: &[(String, RecExpr)],
    lhs_t: &RecExpr,
    rhs_t: &RecExpr,
) -> Result<(), String> {
    let mut sigma: Vec<(Var, Id)> = Vec::new();
    if !match_term(rw.searcher().ast(), lhs_t, lhs_t.root_id(), &mut sigma) {
        return Err(format!(
            "lemma {} does not match the step's source term",
            rw.name()
        ));
    }
    subst_agrees(&sigma, lhs_t, recorded, rw.name())?;
    let rhs_pat = rw.rhs().expect("universal lemma has a pattern rhs");
    if pattern_is_term(rhs_pat.ast(), &sigma, lhs_t, rhs_t, rhs_t.root_id()) {
        Ok(())
    } else {
        Err(format!(
            "lemma {} does not rewrite the source to the step's target term",
            rw.name()
        ))
    }
}

/// Matches a pattern against a concrete subterm, binding variables to
/// subterm slots; nonlinear variables must bind structurally equal terms.
pub(crate) fn match_term(
    pat: &PatternAst,
    expr: &RecExpr,
    at: Id,
    sigma: &mut Vec<(Var, Id)>,
) -> bool {
    match pat {
        PatternAst::Var(v) => {
            if let Some(&(_, prev)) = sigma.iter().find(|(pv, _)| pv == v) {
                term_eq(expr, prev, expr, at)
            } else {
                sigma.push((*v, at));
                true
            }
        }
        PatternAst::Int(i) => matches!(expr.node(at), ENode::Int(j) if j == i),
        PatternAst::Op(sym, args) => match expr.node(at) {
            ENode::Op(s, ch) => {
                s == sym
                    && ch.len() == args.len()
                    && args
                        .iter()
                        .zip(ch)
                        .all(|(p, &c)| match_term(p, expr, c, sigma))
            }
            _ => false,
        },
    }
}

/// Checks that a pattern instantiated under `sigma` (bindings into
/// `bind_expr`) is structurally the subterm of `expr` at `at`.
fn pattern_is_term(
    pat: &PatternAst,
    sigma: &[(Var, Id)],
    bind_expr: &RecExpr,
    expr: &RecExpr,
    at: Id,
) -> bool {
    match pat {
        PatternAst::Var(v) => sigma
            .iter()
            .find(|(pv, _)| pv == v)
            .is_some_and(|&(_, bound)| term_eq(bind_expr, bound, expr, at)),
        PatternAst::Int(i) => matches!(expr.node(at), ENode::Int(j) if j == i),
        PatternAst::Op(sym, args) => match expr.node(at) {
            ENode::Op(s, ch) => {
                s == sym
                    && ch.len() == args.len()
                    && args
                        .iter()
                        .zip(ch)
                        .all(|(p, &c)| pattern_is_term(p, sigma, bind_expr, expr, c))
            }
            _ => false,
        },
    }
}

/// Requires the matcher-derived bindings and the certificate's recorded
/// substitution to agree exactly (same variables, structurally equal
/// terms) — a corrupted substitution is a rejected certificate.
fn subst_agrees(
    sigma: &[(Var, Id)],
    bind_expr: &RecExpr,
    recorded: &[(String, RecExpr)],
    lemma: &str,
) -> Result<(), String> {
    if sigma.len() != recorded.len() {
        return Err(format!(
            "lemma {lemma}: recorded substitution binds {} variables, match binds {}",
            recorded.len(),
            sigma.len()
        ));
    }
    for (var, bound) in sigma {
        let Some((_, term)) = recorded.iter().find(|(n, _)| n == var.as_str()) else {
            return Err(format!(
                "lemma {lemma}: recorded substitution misses variable ?{}",
                var.as_str()
            ));
        };
        if !term_eq(bind_expr, *bound, term, term.root_id()) {
            return Err(format!(
                "lemma {lemma}: recorded substitution disagrees on ?{}",
                var.as_str()
            ));
        }
    }
    Ok(())
}

/// Replays a conditioned or dynamic lemma in a scratch e-graph seeded with
/// exactly the step's two terms. The lemma's own condition and applier run
/// (discharging symbolic side conditions through the analysis context);
/// the replay is accepted only when some match agreeing with the recorded
/// substitution reproduces the target term, and the scratch graph
/// performed zero unions — structural identity is then id identity, so the
/// graph serves purely as a hash-consed term store.
fn replay(
    rw: &Rewrite<TensorAnalysis>,
    recorded: &[(String, RecExpr)],
    lhs_t: &RecExpr,
    rhs_t: &RecExpr,
    gd: &Graph,
    ctx: &SymCtx,
) -> Result<(), String> {
    let mut analysis = TensorAnalysis::with_ctx(ctx.clone());
    // Only the leaves the two terms mention need analysis entries —
    // registering all of `G_d` here made every replayed step O(|G_d|).
    for e in [lhs_t, rhs_t] {
        for sym in e.leaf_symbols() {
            if let Some(rest) = sym.as_str().strip_prefix(SYNTHETIC_LEAF_PREFIX) {
                let dims = parse_ones_shape(rest)
                    .ok_or_else(|| format!("unparsable synthetic leaf {sym}"))?;
                analysis.register_leaf(sym.as_str(), Shape::of(&dims), DType::F32);
            } else if let Some(t) = gd.tensor_by_name(sym.as_str()) {
                analysis.register_leaf(&t.name, t.shape.clone(), t.dtype);
            }
        }
    }
    let mut scratch = EGraph::with_analysis(analysis);
    let lhs_id = scratch.add_expr(lhs_t);
    let rhs_id = scratch.add_expr(rhs_t);
    let matches = rw
        .searcher()
        .search_eclass(&scratch, lhs_id)
        .ok_or_else(|| format!("lemma {} does not match the step's source term", rw.name()))?;
    for subst in &matches.substs {
        let agrees = {
            let bound: Vec<(Var, RecExpr)> = subst
                .iter()
                .map(|(v, id)| (v, scratch.term_of(id)))
                .collect();
            bound.len() == recorded.len()
                && bound.iter().all(|(v, t)| {
                    recorded
                        .iter()
                        .any(|(n, rt)| n == v.as_str() && exprs_eq(t, rt))
                })
        };
        if !agrees {
            continue;
        }
        let Some(produced) = rw.apply_match(&mut scratch, lhs_id, subst) else {
            continue; // condition rejected this match
        };
        if scratch.union_count() != 0 {
            return Err(format!(
                "lemma {} performed unions during replay",
                rw.name()
            ));
        }
        if produced.contains(&rhs_id) {
            return Ok(());
        }
    }
    Err(format!(
        "no match of lemma {} agreeing with the recorded substitution reproduces the target term",
        rw.name()
    ))
}

/// What a term denotes, for per-step re-inference.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TermMeta {
    /// A tensor with a concrete metadata.
    Tensor(Shape, DType),
    /// A (concrete or symbolic) scalar.
    Scalar,
}

/// Infers shape/dtype metadata for every slot of a term, mirroring the
/// relation builder's inference plus the synthetic canonicalization
/// leaves (`~ones[...]`) the reduction lemmas mint.
fn term_metas(expr: &RecExpr, gd: &Graph) -> Result<Vec<Meta>, String> {
    let mut metas: Vec<Meta> = Vec::with_capacity(expr.len());
    for node in expr.nodes() {
        let meta = match node {
            ENode::Int(i) => Meta::scalar(SymExpr::constant(*i)),
            ENode::Sym(e) => Meta::scalar(e.clone()),
            ENode::Op(sym, ch) if ch.is_empty() => {
                let name = sym.as_str();
                if let Some(rest) = name.strip_prefix(SYNTHETIC_LEAF_PREFIX) {
                    let dims = parse_ones_shape(rest)
                        .ok_or_else(|| format!("unparsable synthetic leaf {name}"))?;
                    Meta::tensor(Shape::of(&dims), DType::F32)
                } else {
                    let t = gd
                        .tensor_by_name(name)
                        .ok_or_else(|| format!("unknown G_d tensor {name}"))?;
                    Meta::tensor(t.shape.clone(), t.dtype)
                }
            }
            ENode::Op(sym, ch) => {
                let child_metas: Vec<Meta> = ch.iter().map(|c| metas[c.index()].clone()).collect();
                let (op, tensor_count) = decode_op(sym.as_str(), &child_metas)
                    .ok_or_else(|| format!("unknown operator {sym}"))?;
                let inputs: Result<Vec<_>, String> = child_metas[..tensor_count]
                    .iter()
                    .map(|m| {
                        Ok((
                            m.shape
                                .clone()
                                .ok_or_else(|| "tensor operand lacks shape".to_owned())?,
                            m.dtype
                                .ok_or_else(|| "tensor operand lacks dtype".to_owned())?,
                        ))
                    })
                    .collect();
                let (shape, dtype) =
                    entangle_ir::infer_output(&op, &inputs?).map_err(|e| e.to_string())?;
                Meta::tensor(shape, dtype)
            }
        };
        metas.push(meta);
    }
    Ok(metas)
}

/// Converts one inferred slot meta into the [`TermMeta`] summary.
fn meta_term(m: &Meta) -> Result<TermMeta, String> {
    match (&m.shape, m.dtype) {
        (Some(s), Some(d)) => Ok(TermMeta::Tensor(s.clone(), d)),
        _ if m.scalar.is_some() => Ok(TermMeta::Scalar),
        _ => Err("uninferable term".to_owned()),
    }
}

/// Infers what the subterm at `at` denotes.
pub(crate) fn term_meta_at(expr: &RecExpr, at: Id, gd: &Graph) -> Result<TermMeta, String> {
    let metas = term_metas(expr, gd)?;
    meta_term(&metas[at.index()])
}

/// Pure mirror of the checker's operator encoding (`encode_op`):
/// collectives lower to binary `add`/`concat` chains and `slice`s of them,
/// everything else applies the operator with its attribute scalars
/// appended. Shard bounds for `reduce_scatter` are re-derived from the
/// inferred (concrete) reduced shape.
pub(crate) fn encode_op_term(op: &Op, inputs: &[RecExpr], gd: &Graph) -> Result<RecExpr, String> {
    let mut out = RecExpr::default();
    let ids: Vec<Id> = inputs.iter().map(|e| copy_expr(e, &mut out)).collect();
    match op {
        Op::AllReduce => {
            fold_binary(&mut out, "add", &ids)?;
        }
        Op::Concat { dim } | Op::AllGather { dim } => {
            fold_binary_with_attr(&mut out, "concat", &ids, *dim as i64)?;
        }
        Op::ReduceScatter { dim, rank, world } => {
            let summed = fold_binary(&mut out, "add", &ids)?;
            let TermMeta::Tensor(shape, _) = term_meta_at(&out, summed, gd)? else {
                return Err("reduce_scatter over a scalar".to_owned());
            };
            if *dim >= shape.rank() {
                return Err("reduce_scatter dim out of range".to_owned());
            }
            let size = shape
                .dim(*dim)
                .0
                .as_const()
                .ok_or_else(|| "reduce_scatter over symbolic dims".to_owned())?;
            let chunk = size / *world as i64;
            let d = out.add(ENode::Int(*dim as i64));
            let lo = out.add(ENode::Int(*rank as i64 * chunk));
            let hi = out.add(ENode::Int((*rank as i64 + 1) * chunk));
            out.add(ENode::op("slice", vec![summed, d, lo, hi]));
        }
        other => {
            let mut children = ids.clone();
            for attr in other.attr_scalars() {
                children.push(match attr.as_const() {
                    Some(v) => out.add(ENode::Int(v)),
                    None => out.add(ENode::Sym(attr)),
                });
            }
            out.add(ENode::op(other.name(), children));
        }
    }
    Ok(out)
}

/// Left-folds a binary operator chain; the resulting root is the last
/// slot added, so a single input leaves its copied root as the term root.
fn fold_binary(out: &mut RecExpr, name: &str, ids: &[Id]) -> Result<Id, String> {
    let Some((&first, rest)) = ids.split_first() else {
        return Err("collective needs inputs".to_owned());
    };
    let mut acc = first;
    for &next in rest {
        acc = out.add(ENode::op(name, vec![acc, next]));
    }
    Ok(acc)
}

fn fold_binary_with_attr(
    out: &mut RecExpr,
    name: &str,
    ids: &[Id],
    attr: i64,
) -> Result<Id, String> {
    let Some((&first, rest)) = ids.split_first() else {
        return Err("collective needs inputs".to_owned());
    };
    let mut acc = first;
    for &next in rest {
        let d = out.add(ENode::Int(attr));
        acc = out.add(ENode::op(name, vec![acc, next, d]));
    }
    Ok(acc)
}

/// Decodes the shape from a synthetic canonicalization leaf name, e.g.
/// `ones[2, 3]` (the `~` prefix already stripped). Mirrors the lint
/// auditor's ground evaluator.
fn parse_ones_shape(rest: &str) -> Option<Vec<i64>> {
    let body = rest
        .strip_prefix("ones")?
        .strip_prefix('[')?
        .strip_suffix(']')?;
    let body = body.trim();
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',')
        .map(|p| p.trim().parse::<i64>().ok())
        .collect()
}
