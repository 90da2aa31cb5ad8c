//! JSON interchange for certificates (format version 2), read through
//! `entangle-ir`'s dependency-free pull [`Reader`] and written straight to
//! text.
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
//!
//! **One pass.** The reader builds table entries and proof steps as it
//! meets them and resolves the positions once the document has been read,
//! so the members of an object may come in any order (the writer's order is
//! one of them) and no document tree is built.

use std::borrow::Cow;
use std::fmt::Write as _;

use entangle_egraph::{ENode, Id, Proof, ProofStep, RecExpr};
use entangle_ir::json::{write_escaped, Kind, Reader};

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
    read(text).map_err(CertError::Malformed)
}

/// A term position as the file spells it: an index into `"terms"`, resolved
/// once the whole document has been read, so members may come in any order.
type Pos = i64;

/// A proof step as read, its term positions not yet resolved.
enum RawStep {
    Rule {
        name: String,
        forward: bool,
        subst: Vec<(String, Pos)>,
        before: Pos,
        after: Pos,
    },
    Congruence {
        before: Pos,
        after: Pos,
        children: Vec<Vec<RawStep>>,
    },
    Given {
        fact: String,
        before: Pos,
        after: Pos,
    },
}

/// A mapping as read, its term positions not yet resolved.
struct RawMapping {
    tensor: String,
    operator: String,
    inputs: Vec<Pos>,
    expr: Pos,
    proof: Vec<RawStep>,
}

/// One pass over the text: the term table is built entry by entry and
/// every other section into its raw form as it is read; the positions are
/// resolved against the table at the end.
fn read(text: &str) -> Result<(Certificate, usize), String> {
    let mut r = Reader::new(text);
    let mut version = false;
    let (mut gs, mut gd, mut table) = (None, None, None);
    let (mut inputs, mut mappings, mut outputs, mut numeric) = (None, None, None, None);
    r.members(|r, key| {
        match key {
            "version" => {
                let v = r.int().map_err(field("version"))?;
                if v != 2 {
                    return Err(format!(
                        "unsupported certificate version {v} (this reader takes version 2)"
                    ));
                }
                version = true;
            }
            "gs" => gs = Some(string(r, "gs")?),
            "gd" => gd = Some(string(r, "gd")?),
            "terms" => table = Some(FileTable::read(r).map_err(field("terms"))?),
            "inputs" => inputs = Some(r.items(|r, _| input(r))?),
            "mappings" => mappings = Some(r.items(|r, _| mapping(r))?),
            "outputs" => outputs = Some(r.items(|r, _| output(r))?),
            // The numeric section is optional and advisory: absent means
            // "no analysis was run", which verifies identically.
            "numeric" => numeric = Some(r.items(|r, _| numeric_verdict(r))?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    r.finish()?;
    if !version {
        return Err("missing version field".to_owned());
    }
    let mut table = need(table, "terms")?;
    let entries = table.entries.len();
    let gs = need(gs, "gs")?;
    let gd = need(gd, "gd")?;
    let inputs = need(inputs, "inputs")?
        .into_iter()
        .map(|(name, exprs)| Ok((name, table.terms(exprs)?)))
        .collect::<Result<_, String>>()?;
    let mappings = need(mappings, "mappings")?
        .into_iter()
        .map(|m| {
            Ok(MappingCert {
                tensor: m.tensor,
                operator: m.operator,
                inputs: table.terms(m.inputs)?,
                expr: table.term(m.expr)?,
                proof: table.proof(m.proof)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let outputs = need(outputs, "outputs")?
        .into_iter()
        .map(|(name, expr)| Ok((name, table.term(expr)?)))
        .collect::<Result<_, String>>()?;
    let cert = Certificate {
        gs,
        gd,
        inputs,
        mappings,
        outputs,
        numeric: numeric.unwrap_or_default(),
    };
    Ok((cert, entries))
}

/// An input's axioms: its `G_s` tensor and the positions of its mappings.
fn input(r: &mut Reader<'_>) -> Result<(String, Vec<Pos>), String> {
    let (mut tensor, mut exprs) = (None, None);
    r.members(|r, key| {
        match key {
            "tensor" => tensor = Some(string(r, "tensor")?),
            "exprs" => exprs = Some(r.items(|r, _| position(r))?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok((need(tensor, "tensor")?, need(exprs, "exprs")?))
}

/// An `R_o` entry: its `G_s` tensor and the position of its expression.
fn output(r: &mut Reader<'_>) -> Result<(String, Pos), String> {
    let (mut tensor, mut expr) = (None, None);
    r.members(|r, key| {
        match key {
            "tensor" => tensor = Some(string(r, "tensor")?),
            "expr" => expr = Some(position(r)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok((need(tensor, "tensor")?, need(expr, "expr")?))
}

fn mapping(r: &mut Reader<'_>) -> Result<RawMapping, String> {
    let (mut tensor, mut operator, mut inputs, mut expr, mut proof) =
        (None, None, None, None, None);
    r.members(|r, key| {
        match key {
            "tensor" => tensor = Some(string(r, "tensor")?),
            "operator" => operator = Some(string(r, "operator")?),
            "inputs" => inputs = Some(r.items(|r, _| position(r))?),
            "expr" => expr = Some(position(r)?),
            "proof" => proof = Some(r.items(|r, _| step(r))?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(RawMapping {
        tensor: need(tensor, "tensor")?,
        operator: need(operator, "operator")?,
        inputs: need(inputs, "inputs")?,
        expr: need(expr, "expr")?,
        proof: need(proof, "proof")?,
    })
}

/// One proof step. A member's name fixes its type whatever the step's
/// kind; the members the kind does not have are read and dropped.
fn step(r: &mut Reader<'_>) -> Result<RawStep, String> {
    let (mut kind, mut name, mut forward, mut subst, mut fact) = (None, None, None, None, None);
    let (mut before, mut after, mut children) = (None, None, None);
    r.members(|r, key| {
        match key {
            "kind" => kind = Some(r.str().map_err(field("kind"))?),
            "name" => name = Some(string(r, "name")?),
            "forward" => forward = Some(r.bool().map_err(field("forward"))?),
            "subst" => {
                let mut pairs = Vec::new();
                r.members(|r, var| {
                    pairs.push((var.to_owned(), position(r)?));
                    Ok(true)
                })
                .map_err(field("subst"))?;
                subst = Some(pairs);
            }
            "fact" => fact = Some(string(r, "fact")?),
            "before" => before = Some(position(r)?),
            "after" => after = Some(position(r)?),
            "children" => children = Some(r.items(|r, _| r.items(|r, _| step(r)))?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let kind = need(kind, "kind")?;
    let (before, after) = (need(before, "before")?, need(after, "after")?);
    Ok(match &*kind {
        "rule" => RawStep::Rule {
            name: need(name, "name")?,
            forward: need(forward, "forward")?,
            subst: need(subst, "subst")?,
            before,
            after,
        },
        "congruence" => RawStep::Congruence {
            before,
            after,
            children: need(children, "children")?,
        },
        "given" => RawStep::Given {
            fact: need(fact, "fact")?,
            before,
            after,
        },
        other => return Err(format!("unknown proof step kind {other:?}")),
    })
}

fn numeric_verdict(r: &mut Reader<'_>) -> Result<NumericVerdict, String> {
    let (mut tensor, mut class, mut k) = (None, None, None);
    r.members(|r, key| {
        match key {
            "tensor" => tensor = Some(string(r, "tensor")?),
            "class" => class = Some(string(r, "class")?),
            "k" => {
                let n = r.int().map_err(field("k"))?;
                let negative = || format!("numeric k must be a non-negative integer, found {n}");
                k = Some(u64::try_from(n).map_err(|_| negative())?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(NumericVerdict {
        tensor: need(tensor, "tensor")?,
        class: need(class, "class")?,
        k: need(k, "k")?,
    })
}

/// Prefixes an error with the member it is about.
fn field(key: &str) -> impl Fn(String) -> String + '_ {
    move |e| format!("field {key}: {e}")
}

fn need<T>(value: Option<T>, key: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("missing field {key}"))
}

fn string(r: &mut Reader<'_>, key: &str) -> Result<String, String> {
    r.str().map(Cow::into_owned).map_err(field(key))
}

fn position(r: &mut Reader<'_>) -> Result<Pos, String> {
    r.int()
        .map_err(|e| format!("a term position must be the index of a term table entry: {e}"))
}

/// The document's term table, validated, and the state to copy terms out.
struct FileTable {
    table: TermTable,
    /// Table entry of each file entry (a duplicated file entry shares one).
    entries: Vec<Id>,
    /// Per table entry, its term once some position has named it: every
    /// later position naming it gets a clone, which shares the storage.
    materialised: Vec<Option<RecExpr>>,
    walk: PostOrder,
}

impl FileTable {
    /// Reads and validates the `"terms"` array, adding each entry to the
    /// table as it is read: every application names a head and at least
    /// one argument, every argument is an earlier entry, and no entry nests
    /// deeper than [`MAX_TERM_DEPTH`].
    fn read(r: &mut Reader<'_>) -> Result<FileTable, String> {
        let mut table = TermTable::default();
        let mut entries: Vec<Id> = Vec::new();
        let mut depths: Vec<usize> = Vec::new();
        r.begin_array()?;
        while r.next_item()? {
            let index = entries.len();
            let mut depth = 1;
            let node =
                match r.peek()? {
                    Kind::Number => ENode::Int(r.int()?),
                    Kind::String => ENode::leaf(&r.str()?),
                    Kind::Array => {
                        r.begin_array()?;
                        if !r.next_item()? || r.peek()? != Kind::String {
                            return Err(format!(
                                "term table entry {index}: an application must start with an \
                             operator string"
                            ));
                        }
                        let head = r.str()?;
                        let mut children = Vec::new();
                        while r.next_item()? {
                            let n = r
                                .int()
                                .map_err(|e| format!("term table entry {index}: {e}"))?;
                            let child = usize::try_from(n).ok().filter(|&c| c < index).ok_or_else(
                                || {
                                    format!(
                                "term table entry {index}: argument {n} is not the index of an \
                                 earlier entry"
                            )
                                },
                            )?;
                            depth = depth.max(depths[child] + 1);
                            children.push(entries[child]);
                        }
                        if children.is_empty() {
                            return Err(format!(
                                "term table entry {index}: application of {head} has no \
                             arguments; encode leaves as strings"
                            ));
                        }
                        ENode::op(&head, children)
                    }
                    other => {
                        return Err(r.error(format_args!(
                            "term table entry {index}: entries are strings, numbers or arrays, \
                         found {}",
                            other.name()
                        )))
                    }
                };
            if depth > MAX_TERM_DEPTH {
                return Err(format!(
                    "term table entry {index} nests deeper than {MAX_TERM_DEPTH} levels"
                ));
            }
            depths.push(depth);
            entries.push(table.add(node));
        }
        Ok(FileTable {
            materialised: vec![None; table.len()],
            table,
            entries,
            walk: PostOrder::default(),
        })
    }

    /// The term a position's id names.
    fn term(&mut self, pos: Pos) -> Result<RecExpr, String> {
        let entry = usize::try_from(pos)
            .ok()
            .and_then(|i| self.entries.get(i).copied())
            .ok_or_else(|| {
                format!(
                    "a term position must be the index of a term table entry ({} entries), \
                     found {pos}",
                    self.entries.len()
                )
            })?;
        let FileTable {
            table,
            materialised,
            walk,
            ..
        } = self;
        Ok(materialised[entry.index()]
            .get_or_insert_with(|| table.materialise(entry, walk))
            .clone())
    }

    fn terms(&mut self, positions: Vec<Pos>) -> Result<Vec<RecExpr>, String> {
        positions.into_iter().map(|p| self.term(p)).collect()
    }

    fn proof(&mut self, steps: Vec<RawStep>) -> Result<Proof, String> {
        let steps = steps
            .into_iter()
            .map(|step| {
                Ok(match step {
                    RawStep::Rule {
                        name,
                        forward,
                        subst,
                        before,
                        after,
                    } => ProofStep::Rule {
                        name,
                        forward,
                        subst: subst
                            .into_iter()
                            .map(|(var, pos)| Ok((var, self.term(pos)?)))
                            .collect::<Result<_, String>>()?,
                        before: self.term(before)?,
                        after: self.term(after)?,
                    },
                    RawStep::Congruence {
                        before,
                        after,
                        children,
                    } => ProofStep::Congruence {
                        before: self.term(before)?,
                        after: self.term(after)?,
                        children: children
                            .into_iter()
                            .map(|child| self.proof(child))
                            .collect::<Result<_, _>>()?,
                    },
                    RawStep::Given {
                        fact,
                        before,
                        after,
                    } => ProofStep::Given {
                        fact,
                        before: self.term(before)?,
                        after: self.term(after)?,
                    },
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Proof { steps })
    }
}
