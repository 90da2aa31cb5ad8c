//! JSON interchange for certificates (format version 2), on
//! `entangle-ir`'s dependency-free [`Json`] codec.
//!
//! A proof spells the same few terms over and over, so the document holds
//! each distinct subterm once, in a top-level `"terms"` table, and every
//! term position elsewhere is an index into it:
//!
//! ```json
//! {"version":2,"gs":"...","gd":"...",
//! "terms":[
//! "x0",
//! "x1",
//! 0,
//! ["concat",0,1,2]
//! ],
//! "inputs":[
//! {"tensor":"x","exprs":[ID, ...]}
//! ],
//! "mappings":[
//! {"tensor":"y","operator":"n0","inputs":[ID, ...],"expr":ID,"proof":[
//! STEP,
//! STEP
//! ]}
//! ],
//! "outputs":[
//! {"tensor":"y","expr":ID}
//! ]}
//! ```
//!
//! A table entry is a number (an integer scalar), a string (a leaf — names
//! such as `~ones[2, 3]` are why terms are not s-expressions) or
//! `[head, ID, ...]`, an application whose arguments are *earlier* entries,
//! so the table is acyclic by construction. Symbolic-scalar slots
//! ([`ENode::Sym`]) cannot appear in certified expressions (the model zoo
//! is fully concrete) and are refused at emit time. Steps are tagged by
//! `"kind"`: `"rule"` (name, forward, subst as `{var: ID}`, before, after),
//! `"congruence"` (before, after, children — one sub-proof per argument) or
//! `"given"` (fact, before, after). An optional advisory `"numeric"` array
//! follows `"outputs"`.
//!
//! **Canonical order.** The writer numbers entries in first-visit
//! post-order (children left to right) over the certificate's term
//! positions in document order, and writes a table entry or a top-level
//! proof step per line. The text is therefore a function of the terms, not
//! of how a [`RecExpr`] lays a tree out in slots, and `to_json ∘ from_json`
//! is the identity on what `to_json` wrote.
//!
//! **Trust.** The ids are compression only. The reader checks that every
//! reference points at an earlier entry and that no entry nests deeper than
//! [`MAX_TERM_DEPTH`], then hands the kernel plain [`RecExpr`]s; the kernel
//! re-interns those and never sees a file id. Each table entry is copied
//! out once: every position that names it holds a clone sharing that one
//! storage, which the kernel then interns once.

use std::fmt::Write as _;

use entangle_egraph::{ENode, Id, Proof, ProofStep, RecExpr};
use entangle_ir::json::{parse, write_escaped, Json};

use crate::cert::{CertError, Certificate, MappingCert, NumericVerdict};
use crate::table::{PostOrder, TermTable};

/// Deepest term the reader accepts (a leaf is depth 1): the s-expression
/// reader's bound, so the term language has one. Real certificate terms are
/// a few dozen deep; the bound is what lets every recursive consumer behind
/// the reader (`Display`, the kernel's matcher) run on a certificate from an
/// untrusted file.
pub use entangle_egraph::MAX_TERM_DEPTH;

/// Serializes a certificate to its canonical JSON text.
///
/// # Errors
///
/// [`CertError::Malformed`] if a term contains a symbolic scalar slot,
/// which the interchange format cannot represent.
pub fn to_json(cert: &Certificate) -> Result<String, CertError> {
    let mut table = TermTable::default();
    let mut order = PostOrder::default();
    let positions: Vec<Id> = positions(cert)
        .into_iter()
        .map(|term| {
            let root = table.intern(term);
            order.visit(&table, root);
            root
        })
        .collect();
    let mut w = Writer {
        out: String::with_capacity(32 * (order.order.len() + positions.len())),
        positions: positions.iter(),
        order: &order,
    };
    w.out.push_str("{\"version\":2,\"gs\":");
    w.string(&cert.gs);
    w.out.push_str(",\"gd\":");
    w.string(&cert.gd);
    w.out.push_str(",\n\"terms\":");
    let mut unrepresentable = None;
    w.lines(&order.order, |w, &id| match table.node(id) {
        ENode::Int(i) => w.number(*i),
        ENode::Sym(e) => unrepresentable = Some(e.to_string()),
        ENode::Op(sym, children) if children.is_empty() => w.string(sym.as_str()),
        ENode::Op(sym, children) => {
            w.out.push('[');
            w.string(sym.as_str());
            for &c in children {
                w.out.push(',');
                w.number(order.number(c).index());
            }
            w.out.push(']');
        }
    });
    if let Some(e) = unrepresentable {
        return Err(CertError::Malformed(format!(
            "symbolic scalar {e} cannot be serialized; certificates require concrete shapes"
        )));
    }
    w.out.push_str(",\n\"inputs\":");
    w.lines(&cert.inputs, |w, (name, exprs)| {
        w.out.push_str("{\"tensor\":");
        w.string(name);
        w.out.push_str(",\"exprs\":");
        w.terms(exprs);
        w.out.push('}');
    });
    w.out.push_str(",\n\"mappings\":");
    w.lines(&cert.mappings, |w, mc| {
        w.out.push_str("{\"tensor\":");
        w.string(&mc.tensor);
        w.out.push_str(",\"operator\":");
        w.string(&mc.operator);
        w.out.push_str(",\"inputs\":");
        w.terms(&mc.inputs);
        w.out.push_str(",\"expr\":");
        w.term();
        w.out.push_str(",\"proof\":");
        w.lines(&mc.proof.steps, |w, step| w.step(step));
        w.out.push('}');
    });
    w.out.push_str(",\n\"outputs\":");
    w.lines(&cert.outputs, |w, (name, _)| {
        w.out.push_str("{\"tensor\":");
        w.string(name);
        w.out.push_str(",\"expr\":");
        w.term();
        w.out.push('}');
    });
    if !cert.numeric.is_empty() {
        w.out.push_str(",\n\"numeric\":");
        w.lines(&cert.numeric, |w, nv| {
            w.out.push_str("{\"tensor\":");
            w.string(&nv.tensor);
            w.out.push_str(",\"class\":");
            w.string(&nv.class);
            w.out.push_str(",\"k\":");
            w.number(nv.k);
            w.out.push('}');
        });
    }
    w.out.push('}');
    debug_assert!(w.positions.next().is_none(), "every position was written");
    Ok(w.out)
}

/// Every term position of the certificate, in document order — the order
/// [`to_json`] writes them in, which fixes the canonical entry numbering.
pub(crate) fn positions(cert: &Certificate) -> Vec<&RecExpr> {
    fn of_proof<'a>(proof: &'a Proof, out: &mut Vec<&'a RecExpr>) {
        for step in &proof.steps {
            if let ProofStep::Rule { subst, .. } = step {
                out.extend(subst.iter().map(|(_, term)| term));
            }
            out.push(step.before());
            out.push(step.after());
            if let ProofStep::Congruence { children, .. } = step {
                for child in children {
                    of_proof(child, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    for (_, exprs) in &cert.inputs {
        out.extend(exprs);
    }
    for mc in &cert.mappings {
        out.extend(&mc.inputs);
        out.push(&mc.expr);
        of_proof(&mc.proof, &mut out);
    }
    out.extend(cert.outputs.iter().map(|(_, e)| e));
    out
}

/// The document under construction: text, and the table entries of the
/// term positions still to be written.
struct Writer<'a> {
    out: String,
    positions: std::slice::Iter<'a, Id>,
    order: &'a PostOrder,
}

impl Writer<'_> {
    fn string(&mut self, s: &str) {
        write_escaped(&mut self.out, s);
    }

    fn number(&mut self, n: impl std::fmt::Display) {
        write!(self.out, "{n}").expect("writing to a String cannot fail");
    }

    /// The next term position, as its canonical id.
    fn term(&mut self) {
        let entry = *self.positions.next().expect("one entry per term position");
        self.number(self.order.number(entry).index());
    }

    /// An array of `items`, one per line or all on this one.
    fn array<T>(&mut self, items: &[T], per_line: bool, mut item: impl FnMut(&mut Self, &T)) {
        let newline = if per_line { "\n" } else { "" };
        self.out.push('[');
        for (i, it) in items.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(newline);
            item(self, it);
        }
        if !items.is_empty() {
            self.out.push_str(newline);
        }
        self.out.push(']');
    }

    /// An array with one item per line.
    fn lines<T>(&mut self, items: &[T], item: impl FnMut(&mut Self, &T)) {
        self.array(items, true, item);
    }

    /// The next `terms.len()` term positions, as an array of ids.
    fn terms(&mut self, terms: &[RecExpr]) {
        self.array(terms, false, |w, _| w.term());
    }

    fn step(&mut self, step: &ProofStep) {
        match step {
            ProofStep::Rule {
                name,
                forward,
                subst,
                ..
            } => {
                self.out.push_str("{\"kind\":\"rule\",\"name\":");
                self.string(name);
                self.out.push_str(",\"forward\":");
                self.out.push_str(if *forward { "true" } else { "false" });
                self.out.push_str(",\"subst\":{");
                for (i, (var, _)) in subst.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.string(var);
                    self.out.push(':');
                    self.term();
                }
                self.out.push('}');
            }
            ProofStep::Congruence { .. } => self.out.push_str("{\"kind\":\"congruence\""),
            ProofStep::Given { fact, .. } => {
                self.out.push_str("{\"kind\":\"given\",\"fact\":");
                self.string(fact);
            }
        }
        self.out.push_str(",\"before\":");
        self.term();
        self.out.push_str(",\"after\":");
        self.term();
        if let ProofStep::Congruence { children, .. } = step {
            self.out.push_str(",\"children\":");
            self.array(children, false, |w, child| {
                w.array(&child.steps, false, |w, s| w.step(s));
            });
        }
        self.out.push('}');
    }
}

/// Parses a certificate from its JSON interchange form.
///
/// # Errors
///
/// [`CertError::Malformed`] on any structural problem (this is the only
/// error path — semantic validation is [`crate::verify`]'s job).
pub fn from_json(text: &str) -> Result<Certificate, CertError> {
    from_json_counting(text).map(|(cert, _)| cert)
}

/// [`from_json`], also returning the number of entries in the document's
/// term table (what a re-check reports as `cert_terms`).
///
/// # Errors
///
/// As [`from_json`].
pub fn from_json_counting(text: &str) -> Result<(Certificate, usize), CertError> {
    let doc = parse(text).map_err(CertError::Malformed)?;
    match doc.get("version") {
        Some(Json::Int(2)) => {}
        Some(v) => {
            return Err(CertError::Malformed(format!(
                "unsupported certificate version {v:?} (this reader takes version 2)"
            )))
        }
        None => return Err(CertError::Malformed("missing version field".to_owned())),
    }
    let entries = arr_field(&doc, "terms")?;
    let mut r = Reader::new(entries)?;
    let gs = str_field(&doc, "gs")?;
    let gd = str_field(&doc, "gd")?;
    let inputs = arr_field(&doc, "inputs")?
        .iter()
        .map(|entry| {
            let name = str_field(entry, "tensor")?;
            let exprs = r.terms(arr_field(entry, "exprs")?)?;
            Ok((name, exprs))
        })
        .collect::<Result<Vec<_>, CertError>>()?;
    let mappings = arr_field(&doc, "mappings")?
        .iter()
        .map(|v| {
            Ok(MappingCert {
                tensor: str_field(v, "tensor")?,
                operator: str_field(v, "operator")?,
                inputs: r.terms(arr_field(v, "inputs")?)?,
                expr: r.term(req(v, "expr")?)?,
                proof: r.proof(req(v, "proof")?)?,
            })
        })
        .collect::<Result<Vec<_>, CertError>>()?;
    let outputs = arr_field(&doc, "outputs")?
        .iter()
        .map(|entry| {
            let name = str_field(entry, "tensor")?;
            let expr = r.term(req(entry, "expr")?)?;
            Ok((name, expr))
        })
        .collect::<Result<Vec<_>, CertError>>()?;
    // The numeric section is optional and advisory: absent means "no
    // analysis was run", which verifies identically.
    let numeric = match doc.get("numeric") {
        None => Vec::new(),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|entry| {
                let k = match req(entry, "k")? {
                    Json::Int(i) if *i >= 0 => *i as u64,
                    other => {
                        return Err(CertError::Malformed(format!(
                            "numeric k must be a non-negative integer, found {other:?}"
                        )))
                    }
                };
                Ok(NumericVerdict {
                    tensor: str_field(entry, "tensor")?,
                    class: str_field(entry, "class")?,
                    k,
                })
            })
            .collect::<Result<_, CertError>>()?,
        Some(other) => {
            return Err(CertError::Malformed(format!(
                "field numeric must be an array, found {}",
                other.kind()
            )))
        }
    };
    let cert = Certificate {
        gs,
        gd,
        inputs,
        mappings,
        outputs,
        numeric,
    };
    Ok((cert, entries.len()))
}

/// The document's term table, validated, and the state to copy terms out.
struct Reader {
    table: TermTable,
    /// Table entry of each file entry (a duplicated file entry shares one).
    entries: Vec<Id>,
    /// Per table entry, its term once some position has named it: every
    /// later position naming it gets a clone, which shares the storage.
    materialised: Vec<Option<RecExpr>>,
    walk: PostOrder,
}

impl Reader {
    /// Validates the `"terms"` array: every application names a head and at
    /// least one argument, every argument is an earlier entry, and no entry
    /// nests deeper than [`MAX_TERM_DEPTH`].
    fn new(items: &[Json]) -> Result<Reader, CertError> {
        let mut table = TermTable::default();
        let mut entries: Vec<Id> = Vec::with_capacity(items.len());
        let mut depths: Vec<usize> = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            let mut depth = 1;
            let node = match item {
                Json::Int(i) => ENode::Int(*i),
                Json::Str(name) => ENode::leaf(name),
                Json::Arr(parts) => {
                    let Some(Json::Str(head)) = parts.first() else {
                        return Err(CertError::Malformed(format!(
                            "term table entry {index}: an application must start with an \
                             operator string"
                        )));
                    };
                    if parts.len() < 2 {
                        return Err(CertError::Malformed(format!(
                            "term table entry {index}: application of {head} has no arguments; \
                             encode leaves as strings"
                        )));
                    }
                    let mut children = Vec::with_capacity(parts.len() - 1);
                    for part in &parts[1..] {
                        let child = match part {
                            Json::Int(i) => usize::try_from(*i).ok().filter(|&c| c < index),
                            _ => None,
                        }
                        .ok_or_else(|| {
                            CertError::Malformed(format!(
                                "term table entry {index}: argument {part:?} is not the index \
                                 of an earlier entry"
                            ))
                        })?;
                        depth = depth.max(depths[child] + 1);
                        children.push(entries[child]);
                    }
                    ENode::op(head, children)
                }
                other => {
                    return Err(CertError::Malformed(format!(
                        "term table entry {index}: entries are strings, numbers or arrays, \
                         found {}",
                        other.kind()
                    )))
                }
            };
            if depth > MAX_TERM_DEPTH {
                return Err(CertError::Malformed(format!(
                    "term table entry {index} nests deeper than {MAX_TERM_DEPTH} levels"
                )));
            }
            depths.push(depth);
            entries.push(table.add(node));
        }
        Ok(Reader {
            materialised: vec![None; table.len()],
            table,
            entries,
            walk: PostOrder::default(),
        })
    }

    /// The term a position's id names.
    fn term(&mut self, v: &Json) -> Result<RecExpr, CertError> {
        let entry = match v {
            Json::Int(i) => usize::try_from(*i)
                .ok()
                .and_then(|i| self.entries.get(i).copied()),
            _ => None,
        }
        .ok_or_else(|| {
            CertError::Malformed(format!(
                "a term position must be the index of a term table entry ({} entries), \
                 found {v:?}",
                self.entries.len()
            ))
        })?;
        let Reader {
            table,
            materialised,
            walk,
            ..
        } = self;
        Ok(materialised[entry.index()]
            .get_or_insert_with(|| table.materialise(entry, walk))
            .clone())
    }

    fn terms(&mut self, items: &[Json]) -> Result<Vec<RecExpr>, CertError> {
        items.iter().map(|v| self.term(v)).collect()
    }

    fn proof(&mut self, v: &Json) -> Result<Proof, CertError> {
        let Json::Arr(items) = v else {
            return Err(CertError::Malformed(format!(
                "proof must be an array, found {}",
                v.kind()
            )));
        };
        let steps = items
            .iter()
            .map(|s| self.step(s))
            .collect::<Result<_, _>>()?;
        Ok(Proof { steps })
    }

    fn step(&mut self, v: &Json) -> Result<ProofStep, CertError> {
        match req(v, "kind")? {
            Json::Str(k) if k == "rule" => {
                let subst = match req(v, "subst")? {
                    Json::Obj(bindings) => bindings
                        .iter()
                        .map(|(var, id)| Ok((var.clone(), self.term(id)?)))
                        .collect::<Result<_, CertError>>()?,
                    other => {
                        return Err(CertError::Malformed(format!(
                            "subst must be an object, found {}",
                            other.kind()
                        )))
                    }
                };
                let forward = match req(v, "forward")? {
                    Json::Bool(b) => *b,
                    other => {
                        return Err(CertError::Malformed(format!(
                            "forward must be a bool, found {}",
                            other.kind()
                        )))
                    }
                };
                Ok(ProofStep::Rule {
                    name: str_field(v, "name")?,
                    forward,
                    subst,
                    before: self.term(req(v, "before")?)?,
                    after: self.term(req(v, "after")?)?,
                })
            }
            Json::Str(k) if k == "congruence" => {
                let before = self.term(req(v, "before")?)?;
                let after = self.term(req(v, "after")?)?;
                let children = arr_field(v, "children")?
                    .iter()
                    .map(|p| self.proof(p))
                    .collect::<Result<_, _>>()?;
                Ok(ProofStep::Congruence {
                    before,
                    after,
                    children,
                })
            }
            Json::Str(k) if k == "given" => Ok(ProofStep::Given {
                fact: str_field(v, "fact")?,
                before: self.term(req(v, "before")?)?,
                after: self.term(req(v, "after")?)?,
            }),
            other => Err(CertError::Malformed(format!(
                "unknown proof step kind {other:?}"
            ))),
        }
    }
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, CertError> {
    v.get(key)
        .ok_or_else(|| CertError::Malformed(format!("missing field {key}")))
}

fn str_field(v: &Json, key: &str) -> Result<String, CertError> {
    match req(v, key)? {
        Json::Str(s) => Ok(s.clone()),
        other => Err(CertError::Malformed(format!(
            "field {key} must be a string, found {}",
            other.kind()
        ))),
    }
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], CertError> {
    match req(v, key)? {
        Json::Arr(items) => Ok(items),
        other => Err(CertError::Malformed(format!(
            "field {key} must be an array, found {}",
            other.kind()
        ))),
    }
}
