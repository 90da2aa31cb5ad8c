//! Static diagnostics for ENTANGLE: a multi-pass analyzer over IR graphs,
//! distributed programs, and the lemma corpus.
//!
//! ENTANGLE localizes distribution bugs only *after* paying for equality
//! saturation, and it trusts both the user-supplied graphs and its own lemma
//! corpus. This crate front-loads the cheap checks, in the style of
//! production graph verifiers:
//!
//! 1. **Graph well-formedness** ([`lint_graph`] pass 1): dangling or
//!    duplicate tensor ids and names, dead nodes, cycles (non-topological
//!    orderings), unused inputs, and a full re-run of shape/dtype inference
//!    over every node to cross-check the stored metadata.
//! 2. **Distribution consistency** ([`lint_graph`] pass 2): collectives over
//!    the same inputs must agree in op, dim, and world, with distinct ranks;
//!    slice-based sharding must tile the logical tensor exactly — no gaps,
//!    no overlaps — with the offending node flagged.
//! 3. **Lemma-corpus soundness audit** ([`audit`]): every rewrite in the
//!    `entangle-lemmas` registry is exercised against ground expressions,
//!    checked for shape-soundness, and numerically validated through
//!    `entangle-runtime` on random tensors.
//!
//! Diagnostics are structured ([`Diagnostic`]): a stable code (`E###` for
//! errors, `W###` for warnings, `NU##` for numeric-soundness findings from
//! `entangle-num`), a severity, an anchor (node, tensor, lemma, or whole
//! graph), a message, and an optional suggestion. The catalogue of codes
//! lives in [`codes`].

#![forbid(unsafe_code)]

pub mod audit;
mod graph_lint;
mod ground;

pub use audit::{audit_lemmas, audit_registry, AuditOptions, AuditReport, LemmaAuditEntry};
pub use graph_lint::lint_graph;
pub use ground::{eval_ground, eval_ground_in, ground_step, Slot};

use std::fmt;

use entangle_ir::{Graph, NodeId, TensorId};

/// The diagnostic-code catalogue. Codes are stable: docs, tests and CLI
/// output refer to them by name.
pub mod codes {
    /// Tensor or node id does not match its table position.
    pub const MISINDEXED_ID: &str = "E001";
    /// Duplicate tensor name.
    pub const DUPLICATE_NAME: &str = "E002";
    /// Reference to a tensor or node that does not exist.
    pub const DANGLING_REF: &str = "E003";
    /// A tensor is produced more than once, or its producer link disagrees
    /// with the node table.
    pub const PRODUCER_CONFLICT: &str = "E004";
    /// A node consumes a tensor before it is produced (cycle or
    /// non-topological order).
    pub const NOT_TOPOLOGICAL: &str = "E005";
    /// Stored output shape/dtype disagrees with re-run shape inference.
    pub const SHAPE_MISMATCH: &str = "E006";
    /// Operator applied to the wrong number of inputs, or inference
    /// rejected the inputs outright.
    pub const BAD_APPLICATION: &str = "E007";
    /// Collective nodes over the same inputs disagree (op, dim, world,
    /// duplicate ranks).
    pub const COLLECTIVE_MISMATCH: &str = "E008";
    /// Slice-based sharding leaves a gap or overlap in the logical tensor.
    pub const SHARDING_TILE: &str = "E009";
    /// A graph output is never produced.
    pub const UNPRODUCED_OUTPUT: &str = "E010";
    /// A lemma rewrites a term to one with a different shape or dtype.
    pub const LEMMA_SHAPE_UNSOUND: &str = "E101";
    /// A lemma rewrites a term to one with different numeric values.
    pub const LEMMA_NUMERIC_UNSOUND: &str = "E102";
    /// Dead node: output is neither consumed nor a graph output.
    pub const DEAD_NODE: &str = "W001";
    /// Graph input that no node consumes.
    pub const UNUSED_INPUT: &str = "W002";
    /// Graph declares no outputs.
    pub const NO_OUTPUTS: &str = "W003";
    /// A lemma was never exercised by the audit's seed corpus.
    pub const LEMMA_UNCOVERED: &str = "W101";
    /// A certified rewrite chain contains a value-changing step: the two
    /// sides provably compute different real numbers.
    pub const NUM_VALUE_CHANGING: &str = "NU01";
    /// A dynamic (programmatic) lemma with no `rhs_hint` is opaque to the
    /// numeric analysis and classified pessimistically.
    pub const NUM_OPAQUE_DYNAMIC: &str = "NU02";
    /// A derived reassociation bound is too loose to be meaningful (the
    /// rounding-site count exceeds the looseness threshold).
    pub const NUM_LOOSE_BOUND: &str = "NU03";
    /// An unconditioned rule evaluates to different values on some palette
    /// binding: applying it anywhere changes the computed result.
    pub const NUM_RULE_VALUE_CHANGING: &str = "NU04";
    /// The analysis could not classify a rule or step (no evaluable
    /// binding, model cap, unsupported construct); treated pessimistically.
    pub const NUM_UNCLASSIFIED: &str = "NU05";
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The graph (or corpus) is unsound or unusable; checking must stop.
    Error,
    /// Suspicious but not disqualifying.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// What a diagnostic points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anchor {
    /// The graph as a whole.
    Graph,
    /// A specific operator node.
    Node(NodeId),
    /// A specific tensor.
    Tensor(TensorId),
    /// A lemma in the registry, by name.
    Lemma(String),
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code from [`codes`] (`E###` or `W###`).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// What the finding points at.
    pub anchor: Anchor,
    /// Human-readable description.
    pub message: String,
    /// Optional remediation hint.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// An error diagnostic.
    pub fn error(code: &'static str, anchor: Anchor, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            anchor,
            message: message.into(),
            suggestion: None,
        }
    }

    /// A warning diagnostic.
    pub fn warning(code: &'static str, anchor: Anchor, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            anchor,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a remediation hint.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(s.into());
        self
    }

    /// Renders the diagnostic as a JSON object with a stable field order:
    /// `code`, `severity`, `anchor`, `anchor_name` (when resolvable),
    /// `message`, `suggestion` (when present).
    pub fn to_json(&self, graph: Option<&Graph>) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"code\":{}", json_str(self.code)));
        out.push_str(&format!(
            ",\"severity\":{}",
            json_str(&self.severity.to_string())
        ));
        let anchor = match &self.anchor {
            Anchor::Graph => "graph".to_owned(),
            Anchor::Node(id) => id.to_string(),
            Anchor::Tensor(id) => id.to_string(),
            Anchor::Lemma(name) => format!("lemma:{name}"),
        };
        out.push_str(&format!(",\"anchor\":{}", json_str(&anchor)));
        let name = match (&self.anchor, graph) {
            (Anchor::Node(id), Some(g)) if (id.0 as usize) < g.nodes().len() => {
                Some(g.node(*id).name.clone())
            }
            (Anchor::Tensor(id), Some(g)) if (id.0 as usize) < g.tensors().len() => {
                Some(g.tensor(*id).name.clone())
            }
            (Anchor::Graph, Some(g)) => Some(g.name().to_owned()),
            _ => None,
        };
        if let Some(name) = name {
            out.push_str(&format!(",\"anchor_name\":{}", json_str(&name)));
        }
        out.push_str(&format!(",\"message\":{}", json_str(&self.message)));
        if let Some(s) = &self.suggestion {
            out.push_str(&format!(",\"suggestion\":{}", json_str(s)));
        }
        out.push('}');
        out
    }

    /// Renders the diagnostic, resolving anchors to names when a graph is
    /// available.
    pub fn render(&self, graph: Option<&Graph>) -> String {
        let anchor = match (&self.anchor, graph) {
            (Anchor::Graph, Some(g)) => format!("graph {:?}", g.name()),
            (Anchor::Graph, None) => "graph".to_owned(),
            (Anchor::Node(id), Some(g)) if (id.0 as usize) < g.nodes().len() => {
                format!("node {:?} ({id})", g.node(*id).name)
            }
            (Anchor::Node(id), _) => format!("node {id}"),
            (Anchor::Tensor(id), Some(g)) if (id.0 as usize) < g.tensors().len() => {
                format!("tensor {:?} ({id})", g.tensor(*id).name)
            }
            (Anchor::Tensor(id), _) => format!("tensor {id}"),
            (Anchor::Lemma(name), _) => format!("lemma {name:?}"),
        };
        let mut out = format!(
            "{} [{}] {}: {}",
            self.severity, self.code, anchor, self.message
        );
        if let Some(s) = &self.suggestion {
            out.push_str(&format!("\n  help: {s}"));
        }
        out
    }
}

/// The result of a lint run: all diagnostics, in pass order.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` when no errors were found (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Only the error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Renders every diagnostic, one per line, resolving anchors against
    /// `graph` when given.
    pub fn render(&self, graph: Option<&Graph>) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.render(graph))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Renders the whole report as a JSON object with a stable field order:
    /// `errors`, `warnings`, `clean`, `diagnostics`.
    pub fn to_json(&self, graph: Option<&Graph>) -> String {
        let diags: Vec<String> = self.diagnostics.iter().map(|d| d.to_json(graph)).collect();
        format!(
            "{{\"errors\":{},\"warnings\":{},\"clean\":{},\"diagnostics\":[{}]}}",
            self.error_count(),
            self.warning_count(),
            self.is_clean(),
            diags.join(",")
        )
    }

    /// The one-line `N errors / M warnings` summary used by `entangle info`.
    pub fn summary(&self) -> String {
        format!(
            "{} error{} / {} warning{}",
            self.error_count(),
            if self.error_count() == 1 { "" } else { "s" },
            self.warning_count(),
            if self.warning_count() == 1 { "" } else { "s" },
        )
    }
}

/// Escapes `s` as a JSON string literal (quotes included). Hand-rolled so
/// the workspace stays serde-free; delegates to `entangle-trace`, the
/// workspace's single escaping routine, so every interchange format agrees
/// on one encoding.
pub fn json_str(s: &str) -> String {
    entangle_trace::json_str(s)
}

#[cfg(test)]
mod tests;
