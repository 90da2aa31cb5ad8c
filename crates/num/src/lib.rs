//! Static numeric-soundness analysis for ENTANGLE.
//!
//! Equality saturation proves `G_s` and `G_d` equal *in the rewrite
//! theory* — but the theory deliberately includes lemmas that are only
//! equalities over the reals (splitting a sum reassociates its rounding).
//! A "verified" refinement can therefore still diverge bitwise at runtime,
//! and the reproduction's differential oracle previously papered over this
//! with one hard-coded `1e-6`.
//!
//! This crate classifies every rewrite **statically**, with no sampling:
//!
//! - **bit-exact** — rearrangement, slicing, concatenation, transposition:
//!   both sides compute the identical sequence of IEEE-754 operations
//!   ([`NumClass::BitExact`]);
//! - **reassociation-only** — sum/reduction order changes: equal over the
//!   reals, relative error at most `(1+ε)^k − 1` with the rounding-site
//!   count `k` derived statically ([`NumClass::Reassoc`]);
//! - **value-changing** — provably different reals: flagged, never given a
//!   tolerance ([`NumClass::ValueChanging`]).
//!
//! The domain ([`sym`]) is hash-consed symbolic f64 expressions with exact
//! rational coefficients; [`eval`] runs `entangle-runtime`'s own operator
//! kernels over it, so model and oracle are one piece of code at two
//! element types, and evaluates and classifies a lemma instance over
//! opaque atoms; [`chain`] composes per-step
//! verdicts along `entangle-cert` proof chains into one verdict and one
//! derived tolerance per `R_o` output; [`corpus`] sweeps the whole lemma
//! registry over a ground palette, catching forged lemmas before they are
//! ever applied. A rule step of a certificate and a palette binding of a
//! lemma reach their verdict through the same evaluator and classifier.
//!
//! Everything here is *advisory*: the analysis never fails refinement
//! checking, it tells the differential oracle how strictly to compare.

#![forbid(unsafe_code)]

pub mod chain;
pub mod corpus;
pub mod eval;
pub mod memo;
pub mod sym;

pub use chain::{analyze_certificate, analyze_resolved, CertAnalysis, OutputVerdict, K_LOOSE};
pub use corpus::{analyze_corpus, analyze_registry, CorpusNumAnalysis, RuleMode, RuleNumEntry};
pub use eval::{eval_op_sym, leaf_tensor, ones_tensor, NUMEL_CAP};
pub use memo::analyze_certificate_cached;
pub use sym::{classify_tensors, Arena, NumClass, Rat, SymTensor, Verdict};

use entangle_lint::json_str;
use entangle_runtime::Tolerance;

impl NumClass {
    /// Stable tag used in reports and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            NumClass::BitExact => "bit-exact",
            NumClass::Reassoc => "reassoc",
            NumClass::Unknown => "unknown",
            NumClass::ValueChanging => "value-changing",
        }
    }
}

/// Renders a verdict for humans: class, site count, derived bound.
pub fn describe_verdict(v: &Verdict) -> String {
    match v.tolerance() {
        Some(Tolerance::Exact) => "bit-exact".to_owned(),
        Some(Tolerance::Relative(b)) => {
            format!("reassoc (k={}, rel<={b:e})", v.k)
        }
        None => v.class.tag().to_owned(),
    }
}

fn tolerance_json(v: &Verdict) -> String {
    match v.tolerance() {
        Some(Tolerance::Exact) => "\"exact\"".to_owned(),
        Some(Tolerance::Relative(b)) => format!("{b:e}"),
        None => "null".to_owned(),
    }
}

impl CorpusNumAnalysis {
    /// Stable JSON: `schema`, `rules` (array of
    /// `{id, name, mode, class, k, tolerance, evaluated, skipped}`),
    /// `summary` (class counts plus diagnostic counts), `diagnostics`.
    pub fn to_json(&self) -> String {
        let rules: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "{{\"id\":{},\"name\":{},\"mode\":{},\"class\":{},\"k\":{},\"tolerance\":{},\"evaluated\":{},\"skipped\":{}}}",
                    e.id,
                    json_str(&e.name),
                    json_str(e.mode.tag()),
                    json_str(e.verdict.class.tag()),
                    e.verdict.k,
                    tolerance_json(&e.verdict),
                    e.evaluated,
                    e.skipped
                )
            })
            .collect();
        let diags: Vec<String> = self.diagnostics.iter().map(|d| d.to_json(None)).collect();
        format!(
            "{{\"schema\":\"entangle-num-corpus-v1\",\"rules\":[{}],\"summary\":{{\"bit_exact\":{},\"reassoc\":{},\"unknown\":{},\"value_changing\":{},\"errors\":{},\"warnings\":{}}},\"diagnostics\":[{}]}}",
            rules.join(","),
            self.count_class(NumClass::BitExact),
            self.count_class(NumClass::Reassoc),
            self.count_class(NumClass::Unknown),
            self.count_class(NumClass::ValueChanging),
            self.error_count(),
            self.diagnostics.len() - self.error_count(),
            diags.join(",")
        )
    }

    /// Renders a human-readable summary: class counts, then every
    /// diagnostic.
    pub fn render(&self) -> String {
        let mut out = format!(
            "lemmas   : {} ({} bit-exact, {} reassoc, {} unknown, {} value-changing)\n",
            self.entries.len(),
            self.count_class(NumClass::BitExact),
            self.count_class(NumClass::Reassoc),
            self.count_class(NumClass::Unknown),
            self.count_class(NumClass::ValueChanging),
        );
        let errors = self.error_count();
        let warnings = self.diagnostics.len() - errors;
        out.push_str(&format!(
            "findings : {errors} errors, {warnings} warnings\n"
        ));
        for d in &self.diagnostics {
            out.push_str(&d.render(None));
            out.push('\n');
        }
        out
    }
}

impl CertAnalysis {
    /// Stable JSON: `schema`, `outputs` (array of
    /// `{tensor, class, k, tolerance}`), `mappings`, `steps`,
    /// `diagnostics`.
    pub fn to_json(&self) -> String {
        let outputs: Vec<String> = self
            .outputs
            .iter()
            .map(|o| {
                format!(
                    "{{\"tensor\":{},\"class\":{},\"k\":{},\"tolerance\":{}}}",
                    json_str(&o.tensor),
                    json_str(o.verdict.class.tag()),
                    o.verdict.k,
                    tolerance_json(&o.verdict)
                )
            })
            .collect();
        let mappings: Vec<String> = self
            .mappings
            .iter()
            .map(|(t, v)| {
                format!(
                    "{{\"tensor\":{},\"class\":{},\"k\":{}}}",
                    json_str(t),
                    json_str(v.class.tag()),
                    v.k
                )
            })
            .collect();
        let diags: Vec<String> = self.diagnostics.iter().map(|d| d.to_json(None)).collect();
        format!(
            "{{\"schema\":\"entangle-num-cert-v1\",\"outputs\":[{}],\"mappings\":[{}],\"steps\":{},\"diagnostics\":[{}]}}",
            outputs.join(","),
            mappings.join(","),
            self.steps_analyzed,
            diags.join(",")
        )
    }

    /// Renders a human-readable summary: one line per output, then every
    /// diagnostic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.outputs {
            out.push_str(&format!(
                "output {} : {}\n",
                o.tensor,
                describe_verdict(&o.verdict)
            ));
        }
        for d in &self.diagnostics {
            out.push_str(&d.render(None));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests;
