//! Metrics snapshots, the run ledger and the regression report of the
//! ENTANGLE checker.
//!
//! A check's counts (memo hits and misses, saturation runs and e-graph
//! peaks, e-matching work, backoff bans, the kernel's verdict) are tallies
//! the checker keeps anyway; `entangle::check_refinement_counted` names
//! them once, on every exit, as a [`Snapshot`]. This crate keeps counts
//! only: durations live in the span stream (`entangle_trace`'s `stage:*`
//! and `op:*` spans and `iteration` events), so no time is measured twice.
//!
//! - [`Snapshot`]: counters and gauges by name, with **deterministic
//!   ordering** (`BTreeMap`s keyed by metric name), rendered as
//!   stable-field-order JSON or Prometheus text exposition (the
//!   serve-ready surface).
//! - [`ledger`]: a schema-versioned JSONL run ledger — one record per
//!   check (workload + engine/problem fingerprint + verdict + snapshot)
//!   appended to `results/ledger.jsonl` — with malformed-line-tolerant
//!   reading.
//! - [`report`]: the regression comparator behind `entangle report`:
//!   groups ledger history by workload and flags wall-time, peak-node,
//!   and cache-hit-rate deltas beyond documented noise bands, plus *any*
//!   verdict flip.
//!
//! # Examples
//!
//! ```
//! use entangle_metrics::Snapshot;
//!
//! let mut snap = Snapshot::default();
//! snap.counters.insert("par.cache.hits".into(), 3);
//! snap.gauges.insert("egraph.peak_nodes".into(), 1024);
//! assert_eq!(snap.to_json(), r#"{"counters":{"par.cache.hits":3},"gauges":{"egraph.peak_nodes":1024}}"#);
//! assert_eq!(Snapshot::from_json(&snap.to_json()), Ok(snap.clone()));
//! assert_eq!(snap.counter("par.cache.misses"), 0);
//! ```

#![forbid(unsafe_code)]

mod json;
pub mod ledger;
pub mod report;

pub use json::{parse as parse_json, JsonValue};
pub use ledger::{LedgerRead, LedgerRecord, LEDGER_SCHEMA_VERSION};
pub use report::{NoiseBand, Regression, RegressionKind, ReportOutcome, WorkloadReport};

use std::collections::BTreeMap;

/// A check's counts: counters and gauges by name.
///
/// Both maps are `BTreeMap`s keyed by metric name, so iteration
/// order, JSON rendering, and Prometheus exposition are stable for a given
/// set of recorded values — the snapshot-determinism contract `tests/
/// metrics_golden.rs` pins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// The counters: monotonic totals by name.
    pub counters: BTreeMap<String, u64>,
    /// The gauges: sizes and peaks by name.
    pub gauges: BTreeMap<String, u64>,
}

impl Snapshot {
    /// `true` when nothing was recorded (a check that ended before its
    /// setup stage).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// The value of counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of gauge `name`, 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Hit fraction `hits / (hits + misses)` over two counters, `None` when
    /// no lookups were recorded.
    pub fn hit_rate(&self, hits: &str, misses: &str) -> Option<f64> {
        let h = self.counter(hits);
        let total = h + self.counter(misses);
        (total > 0).then(|| h as f64 / total as f64)
    }

    /// Renders the snapshot as one stable-field-order JSON object:
    /// `{"counters":{…},"gauges":{…}}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{");
        for (i, (field, map)) in [("counters", &self.counters), ("gauges", &self.gauges)]
            .into_iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{field}\":{{");
            for (j, (k, v)) in map.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{v}", json::escape(k));
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parses a snapshot back from [`Snapshot::to_json`] output (or any
    /// JSON object with the same shape).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn from_json(s: &str) -> Result<Snapshot, String> {
        Self::from_value(&json::parse(s)?)
    }

    pub(crate) fn from_value(v: &JsonValue) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        let obj = v.as_object().ok_or("snapshot: expected an object")?;
        for (key, val) in obj {
            match key.as_str() {
                "counters" | "gauges" => {
                    let map = val
                        .as_object()
                        .ok_or_else(|| format!("snapshot.{key}: expected an object"))?;
                    let dst = if key == "counters" {
                        &mut snap.counters
                    } else {
                        &mut snap.gauges
                    };
                    for (name, n) in map {
                        let n = n
                            .as_u64()
                            .ok_or_else(|| format!("snapshot.{key}.{name}: expected a number"))?;
                        dst.insert(name.clone(), n);
                    }
                }
                // Unknown members are skipped, among them the `histograms`
                // object of records written before the snapshot kept
                // counts only.
                _ => {}
            }
        }
        Ok(snap)
    }

    /// Renders the snapshot in the Prometheus text exposition format (the
    /// `entangle serve` surface): metric names are prefixed with
    /// `entangle_` and sanitized (`.`/`-` → `_`); `labels` (e.g.
    /// `workload="gpt_tp2"`) are attached to every sample.
    pub fn to_prometheus(&self, labels: &[(&str, &str)]) -> String {
        use std::fmt::Write;
        let labels = prom_labels(labels);
        let mut out = String::new();
        for (kind, map) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            for (name, v) in map {
                let n = prom_name(name);
                let _ = writeln!(out, "# TYPE {n} {kind}\n{n}{labels} {v}");
            }
        }
        out
    }
}

/// Renders a Prometheus label set, `{k="v",…}` (empty for no labels). Each
/// value is escaped as the text exposition format requires — backslash,
/// double quote and line feed — so a label taken from input can never end
/// a sample line early or open a series of its own.
pub(crate) fn prom_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let v = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            format!("{k}=\"{v}\"")
        })
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Sanitizes a dotted metric name into a Prometheus metric name.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("entangle_");
    for c in name.chars() {
        out.push(match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' => c,
            _ => '_',
        });
    }
    out
}

#[cfg(test)]
mod tests;
