//! Static graph-template analysis.
//!
//! Production captures repeat structure wholesale: the 31 identical layers
//! of a 32-layer transformer, the N experts of an MoE block. This crate
//! finds that repetition *before any saturation runs* by canonicalizing
//! each operator's producer-side neighborhood into a bounded-depth
//! fingerprint — leaf names dropped, symbolic dims masked, integer slice
//! bounds parameterized, exactly the quantities `entangle-par`'s `Renamer`
//! abstracts per-operator, generalized to a per-subgraph form — and
//! partitioning the graph into maximal repeated template classes.
//!
//! The partition is a diagnostic: template consistency is reported as
//! `IS##` diagnostics through the `entangle-lint` machinery (`entangle iso`,
//! exit code 6 on errors). The checker does not read it — a repeated
//! operator that poses the same canonical problem replays through the
//! checker's saturation memo on its own.
//!
//! The canonical form deliberately looks only *upstream* (the producer
//! cone, ordered by operator inputs): the per-operator mapping problem the
//! checker memoizes is a function of the operator and its inputs' mapping
//! history, never of downstream consumers. Ordered traversal also gives a
//! deterministic leaf/bound sequence, so two members of a class align
//! positionally without any sort-tie ambiguity.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

use entangle_ir::{Graph, Node, Op, Tensor, TensorId};
use entangle_lint::{json_str, Anchor, Diagnostic, LintReport};

/// Stable diagnostic codes for template-consistency findings.
pub mod codes {
    /// Fingerprint collision: two operators hash alike but their canonical
    /// forms differ (defensive; the partition itself groups by full form).
    pub const IS01: &str = "IS01";
    /// Near-miss template: an operator matches a repeated class on relaxed
    /// structure (op names and arity) but not on attributes or shapes —
    /// the shape a one-expert-out-of-step bug takes.
    pub const IS02: &str = "IS02";
    /// Non-bijective leaf alignment: a class member's parameter leaves do
    /// not align one-to-one with the representative's (e.g. tied weights in
    /// one instance, distinct weights in another), so the template is
    /// weaker than its fingerprint suggests.
    pub const IS03: &str = "IS03";
}

/// Default neighborhood radius (producer hops visible from an operator's
/// inputs before the cone is cut into parameter leaves).
pub const DEFAULT_RADIUS: usize = 2;

/// One maximal repeated template class: two or more operators whose
/// canonical neighborhood forms are identical.
#[derive(Debug, Clone)]
pub struct TemplateClass {
    /// Dense class id (index into [`IsoAnalysis::classes`]).
    pub id: usize,
    /// 64-bit FNV-1a fingerprint of the canonical form (display only; the
    /// partition groups by the full form string).
    pub fingerprint: u64,
    /// Operator name shared by every member.
    pub op: String,
    /// Member node indices in `graph.nodes()` order, ascending. The first
    /// entry is the class representative.
    pub members: Vec<usize>,
}

impl TemplateClass {
    /// The representative member: the smallest node index.
    pub fn representative(&self) -> usize {
        self.members[0]
    }
}

/// The result of analyzing one graph: the template partition plus
/// consistency diagnostics.
#[derive(Debug, Clone)]
pub struct IsoAnalysis {
    /// The radius the forms were built at.
    pub radius: usize,
    /// Total operator count in the graph.
    pub operators: usize,
    /// Repeated classes (≥ 2 members), ordered by representative index.
    pub classes: Vec<TemplateClass>,
    /// Template-consistency findings (`IS##`).
    pub report: LintReport,
    /// `node index → class id` for nodes in a repeated class.
    class_of: HashMap<usize, usize>,
}

impl IsoAnalysis {
    /// Number of repeated template classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Member count of the largest class (0 when there is none).
    pub fn largest_class(&self) -> usize {
        self.classes
            .iter()
            .map(|c| c.members.len())
            .max()
            .unwrap_or(0)
    }

    /// Number of operators belonging to some repeated class.
    pub fn covered(&self) -> usize {
        self.class_of.len()
    }

    /// Fraction of operators in a repeated class, in percent.
    pub fn coverage_percent(&self) -> f64 {
        if self.operators == 0 {
            0.0
        } else {
            100.0 * self.covered() as f64 / self.operators as f64
        }
    }

    /// One-line summary, the shape `entangle info` prints.
    pub fn summary(&self) -> String {
        format!(
            "{} template classes, largest {}, {}/{} operators covered ({:.1}%)",
            self.class_count(),
            self.largest_class(),
            self.covered(),
            self.operators,
            self.coverage_percent()
        )
    }

    /// Stable-field-order JSON rendering of the partition and diagnostics.
    pub fn to_json(&self, graph: &Graph) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"version\":1,\"graph\":{},\"radius\":{},\"operators\":{},",
            json_str(graph.name()),
            self.radius,
            self.operators
        );
        out.push_str("\"classes\":[");
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"fingerprint\":\"{:016x}\",\"op\":{},\"size\":{},\"representative\":{},\"members\":[",
                c.id,
                c.fingerprint,
                json_str(&c.op),
                c.members.len(),
                json_str(&graph.nodes()[c.representative()].name),
            );
            for (j, &m) in c.members.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(&graph.nodes()[m].name));
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "],\"coverage\":{{\"covered\":{},\"total\":{},\"percent\":{:.1}}},",
            self.covered(),
            self.operators,
            self.coverage_percent()
        );
        out.push_str("\"diagnostics\":[");
        for (i, d) in self.report.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json(Some(graph)));
        }
        out.push_str("]}");
        out
    }
}

/// Analyzes `g` at [`DEFAULT_RADIUS`].
pub fn analyze(g: &Graph) -> IsoAnalysis {
    analyze_with(g, DEFAULT_RADIUS)
}

/// Analyzes `g` with an explicit neighborhood radius.
pub fn analyze_with(g: &Graph, radius: usize) -> IsoAnalysis {
    let forms: Vec<NodeForm> = g.nodes().iter().map(|n| node_form(g, n, radius)).collect();

    // Group by the full canonical form (BTreeMap: deterministic iteration).
    let mut by_form: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, f) in forms.iter().enumerate() {
        by_form.entry(&f.strict).or_default().push(idx);
    }

    let mut report = LintReport::default();

    // IS01 — defensive fingerprint-collision check. Grouping is by the full
    // form string, so a collision cannot corrupt the partition; it is still
    // worth surfacing because the fingerprint is what tooling displays.
    let mut by_fp: HashMap<u64, &str> = HashMap::new();
    for (form, members) in &by_form {
        let fp = fnv1a(form);
        if let Some(other) = by_fp.insert(fp, form) {
            if other != *form {
                let node = &g.nodes()[members[0]];
                report.diagnostics.push(Diagnostic::error(
                    codes::IS01,
                    Anchor::Node(node.id),
                    format!(
                        "canonical-form fingerprint {fp:016x} collides with a \
                         structurally different operator group"
                    ),
                ));
            }
        }
    }

    // Repeated classes, ordered by representative (= smallest member) index.
    let mut classes: Vec<TemplateClass> = Vec::new();
    let mut class_of: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<(&str, &Vec<usize>)> = by_form
        .iter()
        .filter(|(_, m)| m.len() >= 2)
        .map(|(f, m)| (*f, m))
        .collect();
    groups.sort_by_key(|(_, m)| m[0]);
    for (form, members) in groups {
        let id = classes.len();
        for &m in members {
            class_of.insert(m, id);
        }
        classes.push(TemplateClass {
            id,
            fingerprint: fnv1a(form),
            op: g.nodes()[members[0]].op.name().to_owned(),
            members: members.clone(),
        });
    }

    // IS02 — singletons that match a repeated class on relaxed structure
    // (operator names and arity only) but not on the strict form: the
    // near-miss shape of a one-instance-out-of-step bug.
    let mut relaxed_class: HashMap<&str, usize> = HashMap::new();
    for c in &classes {
        relaxed_class
            .entry(&forms[c.representative()].relaxed)
            .or_insert(c.id);
    }
    for (idx, f) in forms.iter().enumerate() {
        if class_of.contains_key(&idx) {
            continue;
        }
        if let Some(&cid) = relaxed_class.get(f.relaxed.as_str()) {
            let rep = &g.nodes()[classes[cid].representative()];
            let node = &g.nodes()[idx];
            report.diagnostics.push(
                Diagnostic::warning(
                    codes::IS02,
                    Anchor::Node(node.id),
                    format!(
                        "operator matches template class #{cid} (representative \
                         `{}`) on structure but not on attributes or shapes",
                        rep.name
                    ),
                )
                .with_suggestion(
                    "check this instance's attributes (slice dims, scales) against \
                     the repeated template it almost matches",
                ),
            );
        }
    }

    // IS03 — leaf alignment inside each class must be a bijection against
    // the representative; equal forms guarantee equal leaf *signatures* but
    // not distinctness (tied weights in one instance, distinct in another).
    for c in &classes {
        let rep = &forms[c.representative()];
        for &m in &c.members[1..] {
            let mem = &forms[m];
            if !bijective(&rep.leaves, &mem.leaves) {
                let node = &g.nodes()[m];
                report.diagnostics.push(Diagnostic::warning(
                    codes::IS03,
                    Anchor::Node(node.id),
                    format!(
                        "parameter leaves do not align one-to-one with template \
                         representative `{}` (tied vs distinct leaves); the \
                         template is weaker than its fingerprint suggests",
                        g.nodes()[c.representative()].name
                    ),
                ));
            }
        }
    }

    IsoAnalysis {
        radius,
        operators: g.nodes().len(),
        classes,
        report,
        class_of,
    }
}

/// The canonical forms and alignment sequences of one operator.
struct NodeForm {
    /// Strict form: op attrs kept (slice bounds masked), shapes masked to
    /// concrete-or-`~`, leaf names dropped.
    strict: String,
    /// Relaxed form: operator names and arity only.
    relaxed: String,
    /// Parameter leaves (graph inputs and cut interior tensors) in
    /// deterministic traversal order.
    leaves: Vec<TensorId>,
}

fn node_form(g: &Graph, n: &Node, radius: usize) -> NodeForm {
    let mut f = NodeForm {
        strict: String::new(),
        relaxed: String::new(),
        leaves: Vec::new(),
    };
    f.strict.push('(');
    f.relaxed.push('(');
    op_sig(n, &mut f);
    for &t in &n.inputs {
        f.strict.push(' ');
        f.relaxed.push(' ');
        tensor_form(g, t, radius, &mut f);
    }
    f.strict.push(')');
    f.relaxed.push(')');
    let out = g.tensor(n.output);
    let _ = write!(f.strict, "->{}:{:?}", shape_sig(out), out.dtype);
    if g.outputs().contains(&n.output) {
        f.strict.push_str("!out");
        f.relaxed.push_str("!out");
    }
    f
}

fn tensor_form(g: &Graph, t: TensorId, depth: usize, f: &mut NodeForm) {
    let tensor = g.tensor(t);
    let producer = tensor.producer.map(|nid| g.node(nid));
    match producer {
        None => {
            f.leaves.push(t);
            let _ = write!(f.strict, "in[{}:{:?}]", shape_sig(tensor), tensor.dtype);
            f.relaxed.push_str("in");
        }
        Some(_) if depth == 0 => {
            f.leaves.push(t);
            let _ = write!(f.strict, "cut[{}:{:?}]", shape_sig(tensor), tensor.dtype);
            f.relaxed.push_str("cut");
        }
        Some(p) => {
            f.strict.push('(');
            f.relaxed.push('(');
            op_sig(p, f);
            for &i in &p.inputs {
                f.strict.push(' ');
                f.relaxed.push(' ');
                tensor_form(g, i, depth - 1, f);
            }
            f.strict.push(')');
            f.relaxed.push(')');
        }
    }
}

/// Writes the operator signature. Integer slice bounds are the one
/// attribute masked out of the strict form: the N experts of an MoE differ
/// only there. Every other attribute stays concrete — a slice along a
/// different *dim* is a different template.
fn op_sig(n: &Node, f: &mut NodeForm) {
    match &n.op {
        Op::Slice { dim, start, end } if start.as_const().is_some() && end.as_const().is_some() => {
            let _ = write!(f.strict, "slice[dim={dim},bounds=$]");
        }
        op => {
            let _ = write!(f.strict, "{op:?}");
        }
    }
    f.relaxed.push_str(n.op.name());
}

fn shape_sig(t: &Tensor) -> String {
    let dims: Vec<String> = t
        .shape
        .dims()
        .iter()
        .map(|d| {
            d.as_const()
                .map_or_else(|| "~".to_owned(), |v| v.to_string())
        })
        .collect();
    dims.join("x")
}

fn bijective(a: &[TensorId], b: &[TensorId]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut fwd: HashMap<TensorId, TensorId> = HashMap::new();
    let mut seen: HashSet<TensorId> = HashSet::new();
    for (&x, &y) in a.iter().zip(b) {
        match fwd.get(&x) {
            Some(&prev) if prev != y => return false,
            Some(_) => {}
            None => {
                if !seen.insert(y) {
                    return false;
                }
                fwd.insert(x, y);
            }
        }
    }
    true
}

/// 64-bit FNV-1a: tiny, fully deterministic across platforms and releases
/// (unlike `DefaultHasher`, whose algorithm is not stability-guaranteed),
/// so golden tests can pin fingerprints.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests;
