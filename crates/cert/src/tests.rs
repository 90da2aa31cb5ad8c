//! Unit tests: a hand-built refinement with a complete certificate, the
//! kernel's rejection behavior, and the JSON round-trip.

use std::collections::HashSet;

use entangle_egraph::{EGraph, ENode, Id, Proof, ProofStep, RecExpr};
use entangle_ir::{DType, Dim, Graph, GraphBuilder, Op, Shape};
use entangle_lemmas::{
    infer_application, parse_ones_leaf, registry, rewrites_of, Meta, TensorAnalysis,
};
use entangle_symbolic::SymCtx;

use crate::cert::{CertError, Certificate, MappingCert};
use crate::json::{from_json, positions, read_json, to_json};
use crate::kernel::{verify, verify_file, verify_reporting, Accepted, Kernel, KernelReport};
use crate::table::{PostOrder, TermTable};

fn e(s: &str) -> RecExpr {
    s.parse().expect("parses")
}

/// Structural equality of two subterms, insensitive to how the trees are
/// laid out in their [`RecExpr`] slot vectors: the reference the term
/// table's id equality is held to.
fn term_eq(a: &RecExpr, ai: Id, b: &RecExpr, bi: Id) -> bool {
    match (a.node(ai), b.node(bi)) {
        (ENode::Int(x), ENode::Int(y)) => x == y,
        (ENode::Sym(x), ENode::Sym(y)) => x == y,
        (ENode::Op(sa, ca), ENode::Op(sb, cb)) => {
            sa == sb
                && ca.len() == cb.len()
                && ca.iter().zip(cb).all(|(&x, &y)| term_eq(a, x, b, y))
        }
        _ => false,
    }
}

/// Structural equality of two whole terms.
fn exprs_eq(a: &RecExpr, b: &RecExpr) -> bool {
    term_eq(a, a.root_id(), b, b.root_id())
}

/// `G_s`: y = relu(x) over a [4, 4] input.
fn gs() -> Graph {
    let mut b = GraphBuilder::new("gs");
    let x = b.input("x", &[4, 4], DType::F32);
    let y = b.apply("y", Op::Relu, &[x]).expect("infers");
    b.mark_output(y);
    b.finish().expect("valid")
}

/// `G_d`: the same computation row-sharded over two workers.
fn gd() -> Graph {
    let mut b = GraphBuilder::new("gd");
    let x0 = b.input("x0", &[2, 4], DType::F32);
    let x1 = b.input("x1", &[2, 4], DType::F32);
    let y0 = b.apply("y0", Op::Relu, &[x0]).expect("infers");
    let y1 = b.apply("y1", Op::Relu, &[x1]).expect("infers");
    b.mark_output(y0);
    b.mark_output(y1);
    b.finish().expect("valid")
}

fn lemmas() -> Vec<entangle_egraph::Rewrite<TensorAnalysis>> {
    rewrites_of(&registry())
}

/// A complete, correct certificate for the row-sharded relu refinement:
///
/// ```text
/// relu(concat(x0, x1, 0))           -- encoding of y over R_i
///   ≡ concat(relu(x0), relu(x1), 0) -- lemma relu-of-concat
///   ≡ concat(y0, y1, 0)             -- congruence + G_d definitions
/// ```
fn good_certificate() -> Certificate {
    let proof = Proof {
        steps: vec![
            ProofStep::Rule {
                name: "relu-of-concat".to_owned(),
                forward: true,
                subst: vec![
                    ("a".to_owned(), e("x0")),
                    ("b".to_owned(), e("x1")),
                    ("d".to_owned(), e("0")),
                ],
                before: e("(relu (concat x0 x1 0))"),
                after: e("(concat (relu x0) (relu x1) 0)"),
            },
            ProofStep::Congruence {
                before: e("(concat (relu x0) (relu x1) 0)"),
                after: e("(concat y0 y1 0)"),
                children: vec![
                    Proof {
                        steps: vec![ProofStep::Given {
                            fact: "G_d definition of y0".to_owned(),
                            before: e("(relu x0)"),
                            after: e("y0"),
                        }],
                    },
                    Proof {
                        steps: vec![ProofStep::Given {
                            fact: "G_d definition of y1".to_owned(),
                            before: e("(relu x1)"),
                            after: e("y1"),
                        }],
                    },
                    Proof::default(),
                ],
            },
        ],
    };
    Certificate {
        gs: "gs".to_owned(),
        gd: "gd".to_owned(),
        inputs: vec![("x".to_owned(), vec![e("(concat x0 x1 0)")])],
        mappings: vec![MappingCert {
            tensor: "y".to_owned(),
            operator: "y".to_owned(),
            inputs: vec![e("(concat x0 x1 0)")],
            expr: e("(concat y0 y1 0)"),
            proof,
        }],
        outputs: vec![("y".to_owned(), e("(concat y0 y1 0)"))],
        numeric: Vec::new(),
    }
}

fn check(cert: &Certificate) -> Result<(), CertError> {
    verify(cert, &gs(), &gd(), &lemmas(), &SymCtx::default())
}

#[test]
fn accepts_a_correct_certificate() {
    check(&good_certificate()).expect("kernel accepts the hand-built proof");
}

#[test]
fn rejects_a_wrong_lemma_name() {
    let mut cert = good_certificate();
    let ProofStep::Rule { name, .. } = &mut cert.mappings[0].proof.steps[0] else {
        panic!("first step is a rule");
    };
    *name = "sigmoid-of-concat".to_owned();
    let err = check(&cert).expect_err("wrong lemma must be rejected");
    assert!(matches!(err, CertError::Rejected { .. }), "{err}");
}

#[test]
fn rejects_a_nonexistent_lemma() {
    let mut cert = good_certificate();
    let ProofStep::Rule { name, .. } = &mut cert.mappings[0].proof.steps[0] else {
        panic!("first step is a rule");
    };
    *name = "no-such-lemma".to_owned();
    let err = check(&cert).expect_err("unknown lemma must be rejected");
    assert!(err.to_string().contains("unknown lemma"), "{err}");
}

#[test]
fn rejects_a_corrupted_substitution() {
    let mut cert = good_certificate();
    let ProofStep::Rule { subst, .. } = &mut cert.mappings[0].proof.steps[0] else {
        panic!("first step is a rule");
    };
    subst[0].1 = e("x1");
    let err = check(&cert).expect_err("corrupted substitution must be rejected");
    assert!(err.to_string().contains("substitution"), "{err}");
}

#[test]
fn rejects_a_truncated_chain() {
    let mut cert = good_certificate();
    cert.mappings[0].proof.steps.pop();
    let err = check(&cert).expect_err("truncated proof must be rejected");
    assert!(err.to_string().contains("does not reach"), "{err}");
}

#[test]
fn rejects_a_forged_given_fact() {
    let mut cert = good_certificate();
    cert.mappings[0].proof = Proof {
        steps: vec![ProofStep::Given {
            fact: "trust me".to_owned(),
            before: e("(relu (concat x0 x1 0))"),
            after: e("(concat y0 y1 0)"),
        }],
    };
    let err = check(&cert).expect_err("unrecognized facts must be rejected");
    assert!(err.to_string().contains("unrecognized given fact"), "{err}");
}

#[test]
fn rejects_an_output_over_gd_inputs() {
    let mut cert = good_certificate();
    // Sneak a mapping of y over G_d *inputs* in through R_i (shapes line
    // up, so it is accepted as an axiom), then claim it as the output: the
    // kernel still rejects it, because R_o may only use G_d output tensors.
    cert.inputs
        .push(("y".to_owned(), vec![e("(concat x0 x1 0)")]));
    cert.outputs[0].1 = e("(concat x0 x1 0)");
    let err = check(&cert).expect_err("R_o over G_d inputs must be rejected");
    assert!(err.to_string().contains("non-output G_d tensor"), "{err}");
}

#[test]
fn rejects_an_unproven_output_mapping() {
    let mut cert = good_certificate();
    cert.outputs[0].1 = e("(concat y1 y0 0)");
    let err = check(&cert).expect_err("unproven output mapping must be rejected");
    assert!(err.to_string().contains("never accepted"), "{err}");
}

#[test]
fn rejects_a_missing_output_mapping() {
    let mut cert = good_certificate();
    cert.outputs.clear();
    let err = check(&cert).expect_err("uncovered G_s output must be rejected");
    assert!(err.to_string().contains("no mapping"), "{err}");
}

#[test]
fn rejects_an_unaccepted_mapping_input() {
    let mut cert = good_certificate();
    cert.mappings[0].inputs[0] = e("(concat x1 x0 0)");
    let err = check(&cert).expect_err("unaccepted input mapping must be rejected");
    assert!(err.to_string().contains("unaccepted"), "{err}");
}

#[test]
fn empty_proof_requires_identical_terms() {
    let mut cert = good_certificate();
    cert.mappings[0].proof = Proof::default();
    let err = check(&cert).expect_err("reflexivity cannot bridge distinct terms");
    assert!(err.to_string().contains("empty proof"), "{err}");
}

#[test]
fn term_eq_is_layout_insensitive() {
    // The same term with and without shared subterm slots.
    let shared = e("(add (relu x0) (relu x0))");
    let mut expanded = RecExpr::default();
    let a = {
        let x = expanded.add(entangle_egraph::ENode::leaf("x0"));
        expanded.add(entangle_egraph::ENode::op("relu", vec![x]))
    };
    let b = {
        let x = expanded.add(entangle_egraph::ENode::leaf("x0"));
        expanded.add(entangle_egraph::ENode::op("relu", vec![x]))
    };
    expanded.add(entangle_egraph::ENode::op("add", vec![a, b]));
    assert!(exprs_eq(&shared, &expanded));
    assert!(!exprs_eq(&shared, &e("(add (relu x0) (relu x1))")));
}

#[test]
fn json_round_trips_bytewise() {
    let cert = good_certificate();
    let text = to_json(&cert).expect("serializes");
    let back = from_json(&text).expect("parses");
    assert_eq!(to_json(&back).expect("serializes"), text);
    // The reader lays terms out its own way; what it must preserve is the
    // term at every position (and everything that is not a term).
    let (ours, theirs) = (positions(&cert), positions(&back));
    assert_eq!(ours.len(), theirs.len());
    for (a, b) in ours.iter().zip(&theirs) {
        assert!(exprs_eq(a, b), "{a} came back as {b}");
    }
    assert_eq!(cert.mappings[0].proof.size(), back.mappings[0].proof.size());
    assert_eq!(
        (&cert.gs, &cert.gd, &cert.numeric),
        (&back.gs, &back.gd, &back.numeric)
    );
}

/// The certificate with every term position replaced by `f` of it.
fn map_terms(cert: &Certificate, f: fn(&RecExpr) -> RecExpr) -> Certificate {
    fn map_proof(p: &Proof, f: fn(&RecExpr) -> RecExpr) -> Proof {
        let steps = p
            .steps
            .iter()
            .map(|s| match s {
                ProofStep::Rule {
                    name,
                    forward,
                    subst,
                    before,
                    after,
                } => ProofStep::Rule {
                    name: name.clone(),
                    forward: *forward,
                    subst: subst.iter().map(|(v, t)| (v.clone(), f(t))).collect(),
                    before: f(before),
                    after: f(after),
                },
                ProofStep::Congruence {
                    before,
                    after,
                    children,
                } => ProofStep::Congruence {
                    before: f(before),
                    after: f(after),
                    children: children.iter().map(|c| map_proof(c, f)).collect(),
                },
                ProofStep::Given {
                    fact,
                    before,
                    after,
                } => ProofStep::Given {
                    fact: fact.clone(),
                    before: f(before),
                    after: f(after),
                },
            })
            .collect();
        Proof { steps }
    }
    Certificate {
        gs: cert.gs.clone(),
        gd: cert.gd.clone(),
        inputs: cert
            .inputs
            .iter()
            .map(|(n, es)| (n.clone(), es.iter().map(f).collect()))
            .collect(),
        mappings: cert
            .mappings
            .iter()
            .map(|m| MappingCert {
                tensor: m.tensor.clone(),
                operator: m.operator.clone(),
                inputs: m.inputs.iter().map(f).collect(),
                expr: f(&m.expr),
                proof: map_proof(&m.proof, f),
            })
            .collect(),
        outputs: cert
            .outputs
            .iter()
            .map(|(n, e)| (n.clone(), f(e)))
            .collect(),
        numeric: cert.numeric.clone(),
    }
}

/// Rebuilds every term of a certificate slot by slot as a plain tree (no
/// slot shared), the layout the table-less reader used to produce.
fn with_expanded_terms(cert: &Certificate) -> Certificate {
    map_terms(cert, |e| e.extract_subtree(e.root_id()))
}

/// Copies every term position node by node into storage of its own: the
/// same layout, nothing shared between positions.
fn deep_copy(cert: &Certificate) -> Certificate {
    map_terms(cert, |e| {
        let mut out = RecExpr::with_capacity(e.len());
        for node in e.nodes() {
            out.add(node.clone());
        }
        out
    })
}

#[test]
fn json_text_is_a_function_of_the_terms_not_of_slot_layout() {
    for case in real_certs() {
        let shared = to_json(&case.cert).expect("serializes");
        let expanded = with_expanded_terms(&case.cert);
        assert_ne!(
            positions(&case.cert).iter().map(|e| e.len()).sum::<usize>(),
            positions(&expanded).iter().map(|e| e.len()).sum::<usize>(),
            "{}: the two layouts differ",
            case.name
        );
        assert_eq!(
            shared,
            to_json(&expanded).expect("serializes"),
            "{}",
            case.name
        );
        // And reading it back is a fixpoint of the writer.
        let back = from_json(&shared).expect("parses");
        assert_eq!(to_json(&back).expect("serializes"), shared, "{}", case.name);
    }
}

#[test]
fn positions_naming_one_entry_share_one_storage() {
    let text = to_json(&good_certificate()).expect("serializes");
    let back = from_json(&text).expect("parses");
    let steps = &back.mappings[0].proof.steps;
    // One term, `(concat (relu x0) (relu x1) 0)`, at two positions.
    assert_eq!(steps[0].after(), steps[1].before());
    assert_eq!(
        steps[0].after().storage_key(),
        steps[1].before().storage_key()
    );
    assert_ne!(
        steps[0].before().storage_key(),
        steps[0].after().storage_key()
    );
    for case in real_certs() {
        let back = from_json(&to_json(&case.cert).expect("serializes")).expect("parses");
        let terms: HashSet<&RecExpr> = positions(&back).into_iter().collect();
        let storages: HashSet<usize> = positions(&back).iter().map(|e| e.storage_key()).collect();
        assert_eq!(storages.len(), terms.len(), "{}", case.name);
    }
}

/// Renames the lemma of the last top-level rule step to the first other
/// lemma (in registry order) that does not justify it.
fn forged(
    cert: &Certificate,
    gs: &Graph,
    gd: &Graph,
    lemmas: &[entangle_egraph::Rewrite<TensorAnalysis>],
) -> Certificate {
    let (m, s) = cert
        .mappings
        .iter()
        .enumerate()
        .rev()
        .find_map(|(m, mc)| {
            let is_rule = |s: &ProofStep| matches!(s, ProofStep::Rule { .. });
            Some((m, mc.proof.steps.iter().rposition(is_rule)?))
        })
        .expect("the certificate has rule steps");
    for lemma in lemmas {
        let mut forged = cert.clone();
        let ProofStep::Rule { name, .. } = &mut forged.mappings[m].proof.steps[s] else {
            unreachable!("rposition found a rule step");
        };
        if name == lemma.name() {
            continue;
        }
        *name = lemma.name().to_owned();
        if verify(&forged, gs, gd, lemmas, &SymCtx::default()).is_err() {
            return forged;
        }
    }
    panic!("every lemma justifies the step")
}

#[test]
fn shared_storage_changes_no_verdict_and_no_report() {
    // Four routes to one verdict, one rejection text and one report: the
    // in-memory certificate, the terms `from_json` copies out of its text
    // (positions naming one entry share a storage), a deep copy of those
    // (nothing shared), and the text checked on the reader's own table.
    let lemmas = lemmas();
    for case in real_certs() {
        let forgery = forged(&case.cert, &case.gs, &case.gd, &lemmas);
        for (what, cert) in [("certificate", &case.cert), ("forgery", &forgery)] {
            let text = to_json(cert).expect("serializes");
            let read = from_json(&text).expect("parses");
            let copy = deep_copy(&read);
            let run = |c: &Certificate| {
                let (verdict, report) =
                    verify_reporting(c, &case.gs, &case.gd, &lemmas, &SymCtx::default());
                (format!("{:?}", verdict.map(drop)), report)
            };
            let (verdict, report) = run(cert);
            let (file_verdict, file_report) = verify_file(
                read_json(&text).expect("reads"),
                &case.gs,
                &case.gd,
                &lemmas,
                &SymCtx::default(),
            );
            for (route, other) in [
                ("shared", run(&read)),
                ("copied", run(&copy)),
                ("file", (format!("{file_verdict:?}"), file_report)),
            ] {
                assert_eq!(other.0, verdict, "{} {what} {route}", case.name);
                assert_eq!(other.1, report, "{} {what} {route}", case.name);
            }
            assert_eq!(verdict == "Ok(())", what == "certificate", "{}", case.name);
        }
    }
}

#[test]
fn a_recheck_copies_no_term_out_of_the_table() {
    // The deep Llama the benchmark re-checks, and the widest zoo-scale GPT.
    let llama = entangle_bench::llama_workload(8, 16);
    let ri = llama.dist.relation(&llama.gs).expect("relation builds");
    let llama = RealCert::certify("llama3_tp8_l16".to_owned(), llama.gs, llama.dist.graph, &ri);
    let gpt = real_certs()
        .iter()
        .find(|c| c.name == "gpt_tp8_l2")
        .expect("certified above");
    let lemmas = lemmas();
    for case in [&llama, gpt] {
        let text = to_json(&case.cert).expect("serializes");
        let file = read_json(&text).expect("reads");
        let before = crate::table::materialised();
        let (verdict, _) = verify_file(file, &case.gs, &case.gd, &lemmas, &SymCtx::default());
        assert_eq!(verdict, Ok(()), "{}", case.name);
        assert_eq!(crate::table::materialised(), before, "{}", case.name);
        // A term is copied out only to be printed, and this rejection
        // prints none.
        let forgery =
            to_json(&forged(&case.cert, &case.gs, &case.gd, &lemmas)).expect("serializes");
        let file = read_json(&forgery).expect("reads");
        let (verdict, _) = verify_file(file, &case.gs, &case.gd, &lemmas, &SymCtx::default());
        assert!(verdict.is_err(), "{}", case.name);
        assert_eq!(crate::table::materialised(), before, "{}", case.name);
    }
}

#[test]
fn json_rejects_bad_documents() {
    assert!(from_json("not json").is_err());
    assert!(from_json("{}").is_err(), "missing version");
    let text = to_json(&good_certificate()).expect("serializes");
    let v1 = text.replacen("\"version\":2", "\"version\":1", 1);
    let err = from_json(&v1).expect_err("version 1 has no reader");
    assert!(
        matches!(&err, CertError::Malformed(why) if why.contains("version")),
        "{err}"
    );
    let no_table = text.replacen("\"terms\"", "\"words\"", 1);
    assert!(matches!(from_json(&no_table), Err(CertError::Malformed(_))));
}

#[test]
fn json_round_trips_numeric_section() {
    let mut cert = good_certificate();
    cert.numeric = vec![crate::NumericVerdict {
        tensor: "y".to_owned(),
        class: "reassoc".to_owned(),
        k: 12,
    }];
    let text = to_json(&cert).expect("serializes");
    assert!(text.contains("\"numeric\""));
    let back = from_json(&text).expect("parses");
    assert_eq!(back.numeric, cert.numeric);
    assert_eq!(to_json(&back).expect("serializes"), text);
    check(&back).expect("advisory section never affects verification");
}

#[test]
fn verified_json_round_trip() {
    let text = to_json(&good_certificate()).expect("serializes");
    let back = from_json(&text).expect("parses");
    check(&back).expect("re-parsed certificate still verifies");
}

// ---------------------------------------------------------------------------
// The term table against the tree-walking reference
// ---------------------------------------------------------------------------

/// One real graph pair with the certificate of its check.
struct RealCert {
    name: String,
    gs: Graph,
    gd: Graph,
    cert: Certificate,
}

/// The seven zoo certificates and `gpt_workload(8, 2)`'s, certified once.
/// `entangle` links another build of this crate, so its certificate is
/// rebuilt as ours from the (shared) `entangle-egraph` terms inside it.
fn real_certs() -> &'static [RealCert] {
    static CERTS: std::sync::OnceLock<Vec<RealCert>> = std::sync::OnceLock::new();
    CERTS.get_or_init(|| {
        let deep = entangle_bench::gpt_workload(8, 2);
        entangle_bench::zoo()
            .into_iter()
            .map(|case| (case.name, case.gs, case.dist))
            .chain([("gpt_tp8_l2".to_owned(), deep.gs, deep.dist)])
            .map(|(name, gs, dist)| {
                let ri = dist.relation(&gs).expect("relation builds");
                RealCert::certify(name, gs, dist.graph, &ri)
            })
            .collect()
    })
}

impl RealCert {
    /// Checks the pair and keeps the certificate of the check.
    fn certify(name: String, gs: Graph, gd: Graph, ri: &entangle::Relation) -> RealCert {
        let opts = entangle::CheckOptions {
            numeric: false,
            ..entangle::CheckOptions::default()
        };
        let theirs = entangle::check_refinement(&gs, &gd, ri, &opts)
            .unwrap_or_else(|e| panic!("{name} fails to verify: {e}"))
            .certificate
            .expect("certify is on by default");
        let cert = Certificate {
            gs: theirs.gs,
            gd: theirs.gd,
            inputs: theirs.inputs,
            mappings: theirs
                .mappings
                .into_iter()
                .map(|m| MappingCert {
                    tensor: m.tensor,
                    operator: m.operator,
                    inputs: m.inputs,
                    expr: m.expr,
                    proof: m.proof,
                })
                .collect(),
            outputs: theirs.outputs,
            numeric: Vec::new(),
        };
        RealCert { name, gs, gd, cert }
    }
}

/// The shape rule folded over one term alone, slot by slot, a leaf being
/// the `G_d` tensor or the ones tensor it names.
fn shape_rule_over(term: &RecExpr, gd: &Graph) -> Result<Meta, String> {
    let mut metas: Vec<Meta> = Vec::with_capacity(term.len());
    for node in term.nodes() {
        let meta = match node {
            ENode::Int(i) => Meta::scalar((*i).into()),
            ENode::Sym(e) => Meta::scalar(e.clone()),
            ENode::Op(sym, ch) if ch.is_empty() => match parse_ones_leaf(sym.as_str()) {
                Ok(Some(dims)) => {
                    Meta::tensor(Shape(dims.into_iter().map(Dim::from).collect()), DType::F32)
                }
                Ok(None) => {
                    let t = gd.tensor_by_name(sym.as_str()).ok_or("unknown leaf")?;
                    Meta::tensor(t.shape.clone(), t.dtype)
                }
                Err(_) => return Err("malformed leaf".to_owned()),
            },
            ENode::Op(sym, ch) => {
                let children: Vec<&Meta> = ch.iter().map(|c| &metas[c.index()]).collect();
                infer_application(*sym, &children).map_err(|e| e.to_string())?
            }
        };
        metas.push(meta);
    }
    Ok(metas.pop().expect("terms are not empty"))
}

#[test]
fn store_agrees_with_the_shape_rule_and_the_egraph_on_real_certificates() {
    let lemmas = lemmas();
    for case in real_certs() {
        verify(&case.cert, &case.gs, &case.gd, &lemmas, &SymCtx::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let mut store = Kernel::new(
            &case.gs,
            &case.gd,
            &lemmas,
            &SymCtx::default(),
            TermTable::default(),
        );
        // The e-class analysis over the same leaves, as a third opinion.
        let mut analysis = TensorAnalysis::default();
        for t in case.gd.tensors() {
            analysis.register_leaf(&t.name, t.shape.clone(), t.dtype);
        }
        let mut egraph = EGraph::with_analysis(analysis);
        // One representative position per store entry.
        let mut classes: Vec<(entangle_egraph::Id, &RecExpr)> = Vec::new();
        for term in positions(&case.cert) {
            let id = store.store.intern(term);
            // Memoised inference = the shape rule over this term alone =
            // the class data `add_expr` computes for it.
            let alone = shape_rule_over(term, &case.gd);
            assert_eq!(*store.meta(id), alone, "{}: meta of {term}", case.name);
            for leaf in term.leaf_symbols() {
                if let Ok(Some(dims)) = parse_ones_leaf(leaf.as_str()) {
                    let shape = Shape(dims.into_iter().map(Dim::from).collect());
                    egraph
                        .analysis
                        .register_leaf(leaf.as_str(), shape, DType::F32);
                }
            }
            let class = egraph.add_expr(term);
            assert_eq!(
                Ok(&egraph[class].data),
                alone.as_ref(),
                "{}: {term}",
                case.name
            );
            // Same entry ⟹ same tree.
            match classes.iter().find(|(entry, _)| *entry == id) {
                Some((_, first)) => assert!(
                    exprs_eq(first, term),
                    "{}: {first} and {term} share an entry",
                    case.name
                ),
                None => classes.push((id, term)),
            }
        }
        // Different entries ⟹ different trees.
        for (i, (_, a)) in classes.iter().enumerate() {
            for (_, b) in &classes[i + 1..] {
                assert!(!exprs_eq(a, b), "{}: {a} has two entries", case.name);
            }
        }
        assert!(store.entries() >= classes.len());
    }
}

/// A term built from a recipe: instruction `i` makes node `i` out of
/// earlier nodes, the last node is the root. Returned in three layouts of
/// the same tree: one slot per instruction (shared subterms share a slot,
/// unused instructions are dead slots), a plain tree, and the table's own
/// materialisation.
fn term_from_recipe(recipe: &[u32]) -> RecExpr {
    const LEAVES: [&str; 4] = ["x0", "x1", "y0", "~ones[2, 3]"];
    const OPS: [&str; 3] = ["relu", "add", "concat"];
    let mut e = RecExpr::default();
    for (i, &code) in recipe.iter().enumerate() {
        let pick = |salt: u32| entangle_egraph::Id::from_index(((code / salt) as usize) % i);
        let node = match (i, code % 4) {
            (0, _) | (_, 0) => entangle_egraph::ENode::leaf(LEAVES[(code / 4) as usize % 4]),
            (_, 1) => entangle_egraph::ENode::Int(i64::from(code / 4 % 3)),
            (_, arity) => {
                let children = (0..arity).map(|k| pick(7 + 13 * k)).collect();
                entangle_egraph::ENode::op(OPS[arity as usize - 1], children)
            }
        };
        e.add(node);
    }
    e
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn recipe() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(0u32..10_000, 1..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn store_equality_is_term_equality(a in recipe(), b in recipe()) {
            let (a, b) = (term_from_recipe(&a), term_from_recipe(&b));
            let mut table = TermTable::default();
            let (ia, ib) = (table.intern(&a), table.intern(&b));
            prop_assert_eq!(ia == ib, exprs_eq(&a, &b), "{} vs {}", a, b);
            // The same tree in two more slot layouts lands on the same entry.
            let tree = a.extract_subtree(a.root_id());
            let copied = table.materialise(ia, &mut PostOrder::default());
            prop_assert!(exprs_eq(&a, &tree) && exprs_eq(&a, &copied));
            prop_assert_eq!(table.intern(&tree), ia);
            prop_assert_eq!(table.intern(&copied), ia);
        }

        #[test]
        fn json_round_trips_random_terms(recipes in proptest::collection::vec(recipe(), 1..6)) {
            let terms: Vec<RecExpr> = recipes.iter().map(|r| term_from_recipe(r)).collect();
            let cert = Certificate {
                gs: "gs".to_owned(),
                gd: "gd".to_owned(),
                inputs: vec![("x".to_owned(), terms.clone())],
                outputs: terms.iter().rev().map(|t| ("y".to_owned(), t.clone())).collect(),
                ..Certificate::default()
            };
            let text = to_json(&cert).expect("serializes");
            let back = from_json(&text).expect("parses");
            prop_assert_eq!(to_json(&back).expect("serializes"), text);
            let (ours, theirs) = (positions(&cert), positions(&back));
            prop_assert_eq!(ours.len(), theirs.len());
            for (a, b) in ours.iter().zip(&theirs) {
                prop_assert!(exprs_eq(a, b), "{} came back as {}", a, b);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lemma code on the kernel's one store
// ---------------------------------------------------------------------------

/// Every rule step of a proof (congruence children included) whose lemma
/// runs code — a condition or a dynamic applier.
fn replayed_steps<'a>(
    proof: &'a Proof,
    lemmas: &[entangle_egraph::Rewrite<TensorAnalysis>],
    out: &mut Vec<&'a ProofStep>,
) {
    for step in &proof.steps {
        match step {
            ProofStep::Rule { name, .. } => {
                let rw = lemmas
                    .iter()
                    .find(|r| r.name() == name)
                    .expect("registered");
                if rw.rhs().is_none() || rw.has_condition() {
                    out.push(step);
                }
            }
            ProofStep::Congruence { children, .. } => {
                for child in children {
                    replayed_steps(child, lemmas, out);
                }
            }
            ProofStep::Given { .. } => {}
        }
    }
}

/// Checks `steps` one after another in one kernel context, as a
/// verification would: the verdicts and the report.
fn replay_all(
    gs: &Graph,
    gd: &Graph,
    lemmas: &[entangle_egraph::Rewrite<TensorAnalysis>],
    steps: &[&ProofStep],
) -> (Vec<Result<(), String>>, KernelReport) {
    let mut kernel = Kernel::new(gs, gd, lemmas, &SymCtx::default(), TermTable::default());
    let verdicts = steps
        .iter()
        .map(|step| {
            let before = kernel.store.intern(step.before());
            let step = kernel.store.resolve_step(step, before);
            kernel.step(&step, &Accepted::new())
        })
        .collect();
    (verdicts, kernel.report())
}

#[test]
fn one_shared_table_gives_the_fresh_context_verdicts() {
    let lemmas = lemmas();
    let mut seen_steps = 0;
    for case in real_certs() {
        let mut steps = Vec::new();
        for mc in &case.cert.mappings {
            replayed_steps(&mc.proof, &lemmas, &mut steps);
        }
        if steps.is_empty() {
            continue;
        }
        seen_steps += steps.len();
        // A forgery among them: the first step, claiming another's target.
        let ProofStep::Rule {
            name,
            forward,
            subst,
            before,
            after,
        } = steps[0]
        else {
            unreachable!("replayed steps are rule steps");
        };
        let stolen = steps
            .iter()
            .map(|s| s.after())
            .find(|t| !exprs_eq(t, after) && !exprs_eq(t, before))
            .expect("the steps do not all share one target");
        let forged = ProofStep::Rule {
            name: name.clone(),
            forward: *forward,
            subst: subst.clone(),
            before: before.clone(),
            after: stolen.clone(),
        };
        // Every step twice in a row (the same conditioned step run again),
        // then all of them once more (different steps sharing subterms, in
        // a table that already holds them and what their appliers added),
        // then the forgery.
        let mut schedule: Vec<&ProofStep> = steps.iter().flat_map(|&s| [s, s]).collect();
        schedule.extend(&steps);
        schedule.push(&forged);
        let (shared, report) = replay_all(&case.gs, &case.gd, &lemmas, &schedule);
        assert_eq!(report.replays, schedule.len());
        for (step, verdict) in schedule.iter().zip(&shared) {
            let (fresh, _) = replay_all(&case.gs, &case.gd, &lemmas, &[step]);
            assert_eq!(
                verdict.is_ok(),
                fresh[0].is_ok(),
                "{}: shared {verdict:?} vs fresh {:?}",
                case.name,
                fresh[0]
            );
        }
        assert!(shared[..shared.len() - 1].iter().all(Result::is_ok));
        assert!(shared[shared.len() - 1].is_err(), "{}: forgery", case.name);
    }
    assert!(seen_steps > 100, "the zoo runs conditions and appliers");
}

/// `(op leaf …)` over one leaf name, which may not parse as an
/// s-expression atom (`~ones[2, 4]` has a space).
fn over_leaf(leaf: &str, op: Option<(&str, &[i64])>) -> RecExpr {
    let mut e = RecExpr::default();
    let x = e.add(ENode::leaf(leaf));
    if let Some((op, attrs)) = op {
        let mut children = vec![x];
        children.extend(attrs.iter().map(|&a| e.add(ENode::Int(a))));
        e.add(ENode::op(op, children));
    }
    e
}

#[test]
fn a_leaf_an_applier_mints_has_its_metadata_in_later_steps() {
    use entangle_egraph::{Rewrite, Var};
    // A dynamic lemma that rewrites `relu(x)` to itself and, on the side,
    // adds a leaf no step has named yet.
    let minting = |name: &'static str, leaf: String| {
        Rewrite::<TensorAnalysis>::parse_dyn(name, "(relu ?x)", move |eg, _class, subst| {
            eg.add(ENode::leaf(&leaf));
            vec![eg.add(ENode::op("relu", vec![subst[Var::new("x")]]))]
        })
        .expect("parses")
    };
    let ones = entangle_lemmas::mint_ones_leaf(&Shape(vec![Dim::from(2), Dim::from(4)]));
    let mut lemmas = vec![
        minting("mints-y1", "y1".to_owned()),
        minting("mints-ones", ones.clone()),
    ];
    lemmas.extend(
        self::lemmas()
            .into_iter()
            .filter(|r| r.name() == "slice-full-identity"),
    );
    // `y1` is a `G_d` tensor and `~ones[2, 4]` names its shape; both are
    // [2, 4], so a later full-slice step over either must see that shape:
    // the lemma's condition compares the slice bound with the leaf's dim.
    let (gs, gd) = (gs(), gd());
    for (lemma, leaf) in [("mints-y1", "y1"), ("mints-ones", ones.as_str())] {
        let mint = ProofStep::Rule {
            name: lemma.to_owned(),
            forward: true,
            subst: vec![("x".to_owned(), e("x0"))],
            before: e("(relu x0)"),
            after: e("(relu x0)"),
        };
        let full_slice = ProofStep::Rule {
            name: "slice-full-identity".to_owned(),
            forward: true,
            subst: vec![
                ("x".to_owned(), over_leaf(leaf, None)),
                ("d".to_owned(), e("0")),
                ("a".to_owned(), e("0")),
                ("b".to_owned(), e("2")),
            ],
            before: over_leaf(leaf, Some(("slice", &[0, 0, 2]))),
            after: over_leaf(leaf, None),
        };
        let mut kernel = Kernel::new(&gs, &gd, &lemmas, &SymCtx::default(), TermTable::default());
        let before = kernel.store.intern(mint.before());
        let step = kernel.store.resolve_step(&mint, before);
        kernel
            .step(&step, &Accepted::new())
            .expect("the minting step holds");
        // The applier added the leaf: naming it finds its entry.
        let minted = kernel.entries();
        let id = kernel.store.intern(&over_leaf(leaf, None));
        assert!(id.index() < minted, "{leaf} was minted by the applier");
        let shape = Shape(vec![Dim::from(2), Dim::from(4)]);
        assert_eq!(*kernel.meta(id), Ok(Meta::tensor(shape, DType::F32)));
        let before = kernel.store.intern(full_slice.before());
        let step = kernel.store.resolve_step(&full_slice, before);
        kernel
            .step(&step, &Accepted::new())
            .unwrap_or_else(|why| panic!("{leaf}: {why}"));
    }
}

#[test]
fn slices_cover_concat_holds_among_other_slices_of_its_tensor() {
    let lemmas = lemmas();
    let step = |after: &str| ProofStep::Rule {
        name: "slices-cover-concat".to_owned(),
        forward: true,
        subst: vec![("x".to_owned(), e("x0"))],
        before: e("x0"),
        after: e(after),
    };
    // `x0` ([2, 4]) as four column slices, and a forgery of the same shape
    // that repeats the first column.
    let concat4 = |cols: [(i64, i64); 4]| {
        let slice = |(lo, hi): (i64, i64)| format!("(slice x0 1 {lo} {hi})");
        format!(
            "(concat (concat (concat {} {} 1) {} 1) {} 1)",
            slice(cols[0]),
            slice(cols[1]),
            slice(cols[2]),
            slice(cols[3])
        )
    };
    let cover = step(&concat4([(0, 1), (1, 2), (2, 3), (3, 4)]));
    let forged = step(&concat4([(0, 1), (0, 1), (2, 3), (3, 4)]));
    // Other slices of `x0` the table already holds: along the other dim
    // (itself a cover), and overlapping column ranges that complete four
    // other covers. The lemma stops after four covers, and met in table
    // order they would come first; the step's own terms hold only its own.
    let others = [
        "(slice x0 0 0 1)",
        "(slice x0 0 1 2)",
        "(slice x0 1 0 2)",
        "(slice x0 1 0 3)",
        "(slice x0 1 2 4)",
        "(slice x0 1 1 4)",
    ];
    let (gs, gd) = (gs(), gd());
    for target in [&cover, &forged] {
        let mut kernel = Kernel::new(&gs, &gd, &lemmas, &SymCtx::default(), TermTable::default());
        kernel.store.intern(cover.after());
        for other in others {
            kernel.store.intern(&e(other));
        }
        let before = kernel.store.intern(target.before());
        let step = kernel.store.resolve_step(target, before);
        let crowded = kernel.step(&step, &Accepted::new());
        let (fresh, _) = replay_all(&gs, &gd, &lemmas, &[target]);
        assert_eq!(
            crowded.is_ok(),
            fresh[0].is_ok(),
            "{crowded:?} vs {fresh:?}"
        );
        assert_eq!(crowded.is_ok(), std::ptr::eq(target, &cover), "{crowded:?}");
    }
}

#[test]
fn certificate_sizes_stay_within_their_count_guards() {
    // Counts, not times: with every distinct subterm written once, a
    // certificate is about as large as its distinct terms. (Before the
    // term table: 32 214 B and 15 648 292 B.)
    let size = |name: &str| {
        let case = real_certs()
            .iter()
            .find(|c| c.name == name)
            .expect("certified above");
        let text = to_json(&case.cert).expect("serializes");
        let entries = read_json(&text).expect("parses").entries();
        (text.len(), entries)
    };
    let (tp2_bytes, _) = size("gpt_tp2");
    assert!(tp2_bytes <= 12_000, "gpt_tp2: {tp2_bytes} B");
    let (deep_bytes, deep_entries) = size("gpt_tp8_l2");
    assert!(deep_bytes <= 400_000, "gpt_tp8_l2: {deep_bytes} B");
    assert!(
        deep_entries <= 2_200,
        "gpt_tp8_l2: {deep_entries} table entries"
    );
}
