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
//! **Trust.** The ids only address entries while the file is read. The
//! reader checks that every reference points at an earlier entry and that
//! no entry nests deeper than [`MAX_TERM_DEPTH`], and adds each entry to a
//! [`TermTable`] hash-consed by node, so a duplicated entry is the same
//! entry; a position resolves to the entry of the tree it names.
//! [`read_json`] stops there, and the kernel checks that table
//! ([`crate::verify_file`]); [`from_json`] also copies each named entry out
//! once, every position naming it a clone sharing that one storage.
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
use crate::kernel::{proof_size, Fact, Mapping, Positions, Step};
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

/// Parses a certificate from its JSON interchange form: [`read_json`],
/// then every term position copied out of the table, each table entry
/// once (the positions naming it share that storage).
///
/// # Errors
///
/// [`CertError::Malformed`] on any structural problem (this is the only
/// error path — semantic validation is [`crate::verify`]'s job).
pub fn from_json(text: &str) -> Result<Certificate, CertError> {
    let file = read_json(text)?;
    let mut terms = Materialised {
        table: &file.table,
        terms: vec![None; file.table.len()],
        walk: PostOrder::default(),
    };
    Ok(Certificate {
        gs: file.gs.into_owned(),
        gd: file.gd.into_owned(),
        inputs: file
            .positions
            .inputs
            .iter()
            .map(|(name, ids)| (name.to_string(), terms.all(ids)))
            .collect(),
        mappings: file
            .positions
            .mappings
            .iter()
            .map(|m| MappingCert {
                tensor: m.tensor.to_string(),
                operator: m.operator.to_string(),
                inputs: terms.all(&m.inputs),
                expr: terms.term(m.expr),
                proof: terms.proof(&m.proof),
            })
            .collect(),
        outputs: file
            .positions
            .outputs
            .iter()
            .map(|(name, id)| (name.to_string(), terms.term(*id)))
            .collect(),
        numeric: file.numeric,
    })
}

/// A certificate as [`read_json`] read it: the document's term table,
/// validated and hash-consed by node, and every term position resolved to
/// an entry of it. [`crate::verify_file`] checks it on that table;
/// [`from_json`] copies its terms out into a [`Certificate`].
#[derive(Debug)]
pub struct CertFile<'t> {
    pub(crate) table: TermTable,
    /// Entries of the document's `"terms"` array, a duplicated one counted
    /// again.
    entries: usize,
    gs: Cow<'t, str>,
    gd: Cow<'t, str>,
    pub(crate) positions: Positions<'t>,
    numeric: Vec<NumericVerdict>,
}

impl CertFile<'_> {
    /// Entries of the document's term table (what a re-check reports as
    /// `cert_terms`).
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Number of mapping certificates.
    pub fn mapping_count(&self) -> usize {
        self.positions.mappings.len()
    }

    /// Total number of proof steps across all mappings, congruence
    /// sub-proofs included ([`Certificate::total_steps`]).
    pub fn total_steps(&self) -> usize {
        self.positions
            .mappings
            .iter()
            .map(|m| proof_size(&m.proof))
            .sum()
    }
}

/// Reads a certificate in one pass: the term table is hash-consed entry by
/// entry as it is read, every other section is built with its positions
/// still file indices, and once the document has been read each position
/// is resolved to its table entry by an array lookup.
///
/// # Errors
///
/// [`CertError::Malformed`] on any structural problem, as [`from_json`].
pub fn read_json(text: &str) -> Result<CertFile<'_>, CertError> {
    read(text).map_err(CertError::Malformed)
}

/// A term position as the file spells it: an index into `"terms"`, resolved
/// once the whole document has been read, so members may come in any order.
type Pos = i64;

fn read(text: &str) -> Result<CertFile<'_>, String> {
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
    let FileTable { table, entries } = need(table, "terms")?;
    let gs = need(gs, "gs")?;
    let gd = need(gd, "gd")?;
    let resolve = &mut |pos: Pos| {
        usize::try_from(pos)
            .ok()
            .and_then(|i| entries.get(i).copied())
            .ok_or_else(|| {
                format!(
                    "a term position must be the index of a term table entry ({} entries), \
                     found {pos}",
                    entries.len()
                )
            })
    };
    let inputs = need(inputs, "inputs")?
        .into_iter()
        .map(|(name, exprs)| Ok((name, resolve_all(exprs, resolve)?)))
        .collect::<Result<_, String>>()?;
    let mappings = need(mappings, "mappings")?
        .into_iter()
        .map(|m| {
            Ok(Mapping {
                tensor: m.tensor,
                operator: m.operator,
                inputs: resolve_all(m.inputs, resolve)?,
                expr: resolve(m.expr)?,
                proof: resolve_proof(m.proof, resolve)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let outputs = need(outputs, "outputs")?
        .into_iter()
        .map(|(name, expr)| Ok((name, resolve(expr)?)))
        .collect::<Result<_, String>>()?;
    Ok(CertFile {
        table,
        entries: entries.len(),
        gs,
        gd,
        positions: Positions {
            inputs,
            mappings,
            outputs,
        },
        numeric: numeric.unwrap_or_default(),
    })
}

type Resolve<'r> = dyn FnMut(Pos) -> Result<Id, String> + 'r;

fn resolve_all(positions: Vec<Pos>, resolve: &mut Resolve<'_>) -> Result<Vec<Id>, String> {
    positions.into_iter().map(resolve).collect()
}

/// A proof's steps over table entries, resolved in document order: per step
/// the substitution, `before`, `after`, then the children.
fn resolve_proof<'t>(
    steps: Vec<Step<'t, Pos>>,
    resolve: &mut Resolve<'_>,
) -> Result<Vec<Step<'t>>, String> {
    steps
        .into_iter()
        .map(|step| {
            Ok(match step {
                Step::Rule {
                    name,
                    forward,
                    subst,
                    before,
                    after,
                } => Step::Rule {
                    name,
                    forward,
                    subst: subst
                        .into_iter()
                        .map(|(var, pos)| Ok((var, resolve(pos)?)))
                        .collect::<Result<_, String>>()?,
                    before: resolve(before)?,
                    after: resolve(after)?,
                },
                Step::Congruence {
                    before,
                    after,
                    children,
                } => Step::Congruence {
                    before: resolve(before)?,
                    after: resolve(after)?,
                    children: children
                        .into_iter()
                        .map(|child| resolve_proof(child, resolve))
                        .collect::<Result<_, _>>()?,
                },
                Step::Given {
                    fact,
                    before,
                    after,
                } => Step::Given {
                    fact,
                    before: resolve(before)?,
                    after: resolve(after)?,
                },
            })
        })
        .collect()
}

/// An input's axioms: its `G_s` tensor and the positions of its mappings.
fn input<'t>(r: &mut Reader<'t>) -> Result<(Cow<'t, str>, Vec<Pos>), String> {
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
fn output<'t>(r: &mut Reader<'t>) -> Result<(Cow<'t, str>, Pos), String> {
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

fn mapping<'t>(r: &mut Reader<'t>) -> Result<Mapping<'t, Pos>, String> {
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
    Ok(Mapping {
        tensor: need(tensor, "tensor")?,
        operator: need(operator, "operator")?,
        inputs: need(inputs, "inputs")?,
        expr: need(expr, "expr")?,
        proof: need(proof, "proof")?,
    })
}

/// One proof step. A member's name fixes its type whatever the step's
/// kind; the members the kind does not have are read and dropped.
fn step<'t>(r: &mut Reader<'t>) -> Result<Step<'t, Pos>, String> {
    let (mut kind, mut name, mut forward, mut subst, mut fact) = (None, None, None, None, None);
    let (mut before, mut after, mut children) = (None, None, None);
    r.members(|r, key| {
        match key {
            "kind" => kind = Some(r.str().map_err(field("kind"))?),
            "name" => name = Some(string(r, "name")?),
            "forward" => forward = Some(r.bool().map_err(field("forward"))?),
            "subst" => subst = Some(substitution(r).map_err(field("subst"))?),
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
        "rule" => Step::Rule {
            name: need(name, "name")?,
            forward: need(forward, "forward")?,
            subst: need(subst, "subst")?,
            before,
            after,
        },
        "congruence" => Step::Congruence {
            before,
            after,
            children: need(children, "children")?,
        },
        "given" => Step::Given {
            fact: Fact::from_text(need(fact, "fact")?),
            before,
            after,
        },
        other => return Err(format!("unknown proof step kind {other:?}")),
    })
}

/// A rule step's `{var: ID, ...}`.
fn substitution<'t>(r: &mut Reader<'t>) -> Result<Vec<(Cow<'t, str>, Pos)>, String> {
    r.begin_object()?;
    let mut pairs = Vec::new();
    while let Some(var) = r.next_key()? {
        pairs.push((var, position(r)?));
    }
    Ok(pairs)
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
        tensor: need(tensor, "tensor")?.into_owned(),
        class: need(class, "class")?.into_owned(),
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

fn string<'t>(r: &mut Reader<'t>, key: &str) -> Result<Cow<'t, str>, String> {
    r.str().map_err(field(key))
}

fn position(r: &mut Reader<'_>) -> Result<Pos, String> {
    r.int()
        .map_err(|e| format!("a term position must be the index of a term table entry: {e}"))
}

/// The document's term table, validated.
struct FileTable {
    table: TermTable,
    /// Table entry of each file entry (a duplicated file entry shares one).
    entries: Vec<Id>,
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
        Ok(FileTable { table, entries })
    }
}

/// Terms copied out of a table: each entry once, the first time a position
/// names it, and a clone sharing that storage for every later position.
struct Materialised<'a> {
    table: &'a TermTable,
    terms: Vec<Option<RecExpr>>,
    walk: PostOrder,
}

impl Materialised<'_> {
    fn term(&mut self, id: Id) -> RecExpr {
        let Materialised { table, terms, walk } = self;
        terms[id.index()]
            .get_or_insert_with(|| table.materialise(id, walk))
            .clone()
    }

    fn all(&mut self, ids: &[Id]) -> Vec<RecExpr> {
        ids.iter().map(|&id| self.term(id)).collect()
    }

    fn proof(&mut self, steps: &[Step<'_>]) -> Proof {
        let steps = steps
            .iter()
            .map(|step| match step {
                Step::Rule {
                    name,
                    forward,
                    subst,
                    before,
                    after,
                } => ProofStep::Rule {
                    name: name.to_string(),
                    forward: *forward,
                    subst: subst
                        .iter()
                        .map(|(var, id)| (var.to_string(), self.term(*id)))
                        .collect(),
                    before: self.term(*before),
                    after: self.term(*after),
                },
                Step::Congruence {
                    before,
                    after,
                    children,
                } => ProofStep::Congruence {
                    before: self.term(*before),
                    after: self.term(*after),
                    children: children.iter().map(|child| self.proof(child)).collect(),
                },
                Step::Given {
                    fact,
                    before,
                    after,
                } => ProofStep::Given {
                    fact: fact.to_string(),
                    before: self.term(*before),
                    after: self.term(*after),
                },
            })
            .collect();
        Proof { steps }
    }
}
