//! Cross-check memoization of certificate analysis.
//!
//! [`crate::analyze_certificate`] is a pure function of the certificate
//! and the two graphs. This module fronts it with a process-global table
//! keyed by a structural fingerprint: the first analysis of a chain pays
//! the full symbolic-evaluation cost, a repeat in the same process replays
//! the stored verdicts.
//!
//! The checker does not use it: a one-shot `entangle check` always misses
//! and would pay the fingerprint for nothing, so its `numeric` stage calls
//! [`crate::analyze_resolved`] on the kernel's own resolution directly. Only `benchmark/src/layers.rs`
//! still calls it, to print the replay cost beside the cold one.
//!
//! The fingerprint hashes exactly the inputs the analysis *reads* —
//! graph structure (tensors, shapes, dtypes, operators, wiring), the
//! certificate's input/output relations, and each proof step's kind,
//! fact/lemma label, direction, substitution (a rule step's key abstracts
//! its bindings), complete before/after terms and congruence sub-proofs.
//! Fields the analysis never looks at (e-graph ids, the advisory `numeric`
//! section itself) are deliberately excluded: two certificates differing
//! only there analyze identically by construction.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Mutex, OnceLock};

use entangle_cert::Certificate;
use entangle_egraph::{ProofStep, RecExpr};
use entangle_ir::Graph;

use crate::chain::{analyze_certificate, CertAnalysis};

static CACHE: OnceLock<Mutex<HashMap<u64, CertAnalysis>>> = OnceLock::new();

/// [`analyze_certificate`] behind the process-global fingerprint table.
/// The same verdicts, diagnostics and counts as the uncached call.
pub fn analyze_certificate_cached(cert: &Certificate, gs: &Graph, gd: &Graph) -> CertAnalysis {
    let key = fingerprint(cert, gs, gd);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("analysis cache lock").get(&key) {
        // The counts describe the analysis; the times are this call's,
        // and a replay spends none.
        return CertAnalysis {
            key_us: 0,
            eval_us: 0,
            classify_us: 0,
            compose_us: 0,
            replayed: true,
            ..hit.clone()
        };
    }
    let analysis = analyze_certificate(cert, gs, gd);
    cache
        .lock()
        .expect("analysis cache lock")
        .insert(key, analysis.clone());
    analysis
}

fn hash_expr(h: &mut DefaultHasher, e: &RecExpr) {
    e.len().hash(h);
    for node in e.nodes() {
        node.hash(h);
    }
}

fn hash_graph(h: &mut DefaultHasher, g: &Graph) {
    g.name().hash(h);
    g.tensors().len().hash(h);
    for t in g.tensors() {
        t.name.hash(h);
        t.shape.to_string().hash(h);
        format!("{:?}", t.dtype).hash(h);
    }
    for n in g.nodes() {
        n.name.hash(h);
        format!("{:?}", n.op).hash(h);
        for &i in &n.inputs {
            i.0.hash(h);
        }
        n.output.0.hash(h);
    }
    for &t in g.inputs() {
        t.0.hash(h);
    }
    for &t in g.outputs() {
        t.0.hash(h);
    }
}

/// Each step's kind, fact or lemma, direction and substitution, terms,
/// and a congruence step's sub-proofs.
fn hash_steps(h: &mut DefaultHasher, steps: &[ProofStep]) {
    steps.len().hash(h);
    for step in steps {
        match step {
            ProofStep::Given {
                fact,
                before,
                after,
            } => {
                0u8.hash(h);
                fact.hash(h);
                hash_expr(h, before);
                hash_expr(h, after);
            }
            ProofStep::Rule {
                name,
                forward,
                subst,
                before,
                after,
            } => {
                1u8.hash(h);
                name.hash(h);
                forward.hash(h);
                subst.len().hash(h);
                for (var, term) in subst {
                    var.hash(h);
                    hash_expr(h, term);
                }
                hash_expr(h, before);
                hash_expr(h, after);
            }
            ProofStep::Congruence {
                before,
                after,
                children,
            } => {
                2u8.hash(h);
                hash_expr(h, before);
                hash_expr(h, after);
                for child in children {
                    hash_steps(h, &child.steps);
                }
            }
        }
    }
}

fn fingerprint(cert: &Certificate, gs: &Graph, gd: &Graph) -> u64 {
    let mut h = DefaultHasher::new();
    "entangle-num analysis v3".hash(&mut h);
    hash_graph(&mut h, gs);
    hash_graph(&mut h, gd);

    cert.inputs.len().hash(&mut h);
    for (tensor, mappings) in &cert.inputs {
        tensor.hash(&mut h);
        mappings.len().hash(&mut h);
        for m in mappings {
            hash_expr(&mut h, m);
        }
    }
    cert.mappings.len().hash(&mut h);
    for mc in &cert.mappings {
        mc.tensor.hash(&mut h);
        mc.operator.hash(&mut h);
        mc.inputs.len().hash(&mut h);
        for e in &mc.inputs {
            hash_expr(&mut h, e);
        }
        hash_expr(&mut h, &mc.expr);
        hash_steps(&mut h, &mc.proof.steps);
    }
    cert.outputs.len().hash(&mut h);
    for (tensor, expr) in &cert.outputs {
        tensor.hash(&mut h);
        hash_expr(&mut h, expr);
    }
    h.finish()
}
