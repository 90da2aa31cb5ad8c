//! Unified metrics for the ENTANGLE checker pipeline.
//!
//! Several subsystems emit counts (scheduler/cache counters, template
//! replay counters, backoff bans, kernel verdicts, e-graph growth), and
//! this crate gives them one place to be read and a history across runs.
//! It keeps counts only: durations live in the span stream
//! (`entangle_trace`'s `stage:*` and `op:*` spans and `iteration` events),
//! so no time is measured twice.
//!
//! - [`Registry`]: a cheaply cloneable handle carrying monotonic
//!   [`Counter`]s and [`Gauge`]s. The null registry ([`Registry::null`],
//!   the default) is a true no-op — every handle is an `Option<Arc<…>>`
//!   that costs one branch, the same non-perturbation design as
//!   `entangle_trace::Tracer`. Instruments never change verdicts,
//!   relations, certificates, or the search.
//! - [`Snapshot`]: a point-in-time copy of every instrument with
//!   **deterministic ordering** (`BTreeMap`s keyed by metric name),
//!   rendered as stable-field-order JSON or Prometheus text exposition
//!   (the serve-ready surface).
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
//! use entangle_metrics::Registry;
//!
//! let m = Registry::new();
//! m.counter("par.cache.hits").add(3);
//! m.gauge("egraph.peak_nodes").set_max(1024);
//! let snap = m.snapshot();
//! assert_eq!(snap.counters["par.cache.hits"], 3);
//! assert_eq!(snap.gauges["egraph.peak_nodes"], 1024);
//! // The null registry records nothing and costs one branch per call.
//! let off = Registry::null();
//! off.counter("par.cache.hits").inc();
//! assert!(off.snapshot().is_empty());
//! ```

#![forbid(unsafe_code)]

mod json;
pub mod ledger;
pub mod report;

pub use json::{parse as parse_json, JsonValue};
pub use ledger::{LedgerRead, LedgerRecord, LEDGER_SCHEMA_VERSION};
pub use report::{NoiseBand, Regression, RegressionKind, ReportOutcome, WorkloadReport};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
}

/// A monotonic counter handle. From a null registry every operation is a
/// single branch; handles are cheap to clone and safe to share across
/// threads.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A detached no-op handle, for code that takes a `Counter` but whose
    /// caller has no registry.
    pub fn null() -> Counter {
        Counter(None)
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Relaxed);
        }
    }

    /// Current value (0 for a null handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }
}

/// A gauge handle: a value that can be set, or raised to a running maximum
/// (peak tracking).
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Relaxed);
        }
    }

    /// Raises the gauge to `v` if `v` is larger (peak tracking).
    pub fn set_max(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Relaxed);
        }
    }

    /// Current value (0 for a null handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Relaxed))
    }
}

/// A deterministic point-in-time copy of every instrument in a registry.
///
/// Both maps are `BTreeMap`s keyed by metric name, so iteration
/// order, JSON rendering, and Prometheus exposition are stable for a given
/// set of recorded values — the snapshot-determinism contract `tests/
/// metrics_golden.rs` pins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
}

impl Snapshot {
    /// `true` when nothing was recorded (e.g. the null registry).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0 when absent.
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
                // object of records written before the registry kept
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

/// A cheaply cloneable metrics registry handle.
///
/// Clones share the underlying instruments, so handles resolved through
/// different clones of the same registry accumulate into the same
/// counters — the checker threads one registry through every stage exactly
/// as it threads the [`entangle_trace`-style] null tracer. The default
/// registry is the null registry.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Registry(enabled)"
        } else {
            "Registry(null)"
        })
    }
}

impl Registry {
    /// The no-op registry: every handle it returns costs one branch per
    /// operation and records nothing.
    pub fn null() -> Registry {
        Registry { inner: None }
    }

    /// An enabled registry with no instruments yet (they are created on
    /// first access).
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// `true` when this registry records (false for the null registry).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The counter named `name`, created on first access. Resolve once
    /// outside hot loops: resolution takes a lock, the returned handle is
    /// lock-free.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|i| {
            i.counters
                .lock()
                .expect("metrics counters lock")
                .entry(name.to_owned())
                .or_default()
                .clone()
        }))
    }

    /// The gauge named `name`, created on first access.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| {
            i.gauges
                .lock()
                .expect("metrics gauges lock")
                .entry(name.to_owned())
                .or_default()
                .clone()
        }))
    }

    /// Takes a deterministic point-in-time [`Snapshot`] (empty for the
    /// null registry).
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let mut snap = Snapshot::default();
        for (k, v) in inner.counters.lock().expect("metrics counters lock").iter() {
            snap.counters.insert(k.clone(), v.load(Relaxed));
        }
        for (k, v) in inner.gauges.lock().expect("metrics gauges lock").iter() {
            snap.gauges.insert(k.clone(), v.load(Relaxed));
        }
        snap
    }
}

#[cfg(test)]
mod tests;
