//! The regression comparator behind `entangle report`.
//!
//! Groups ledger records by workload and compares each workload's
//! **latest** record (the "current run") against its history. Numeric
//! comparisons use only prior records with the *same fingerprint* — a
//! fingerprint change means the engine configuration or the problem
//! itself changed, which resets the baseline rather than flagging a
//! regression. Verdicts are compared against the immediately preceding
//! record regardless of fingerprint: a verdict flip is the silent-drift
//! signal the ledger exists to catch, and it is *always* a regression.
//!
//! ## Noise bands
//!
//! Baselines are medians over the same-fingerprint history, and every
//! numeric check needs to clear both a ratio and an absolute floor before
//! it counts (documented in DESIGN.md):
//!
//! - wall time: current > `1.5×` median **and** `+5 ms` over it — a 2×
//!   slowdown trips this for any workload with a ≥ 5 ms baseline, while
//!   back-to-back identical runs sit far inside the band;
//! - peak e-nodes (`egraph.peak_nodes` gauge): current > `1.2×` median
//!   **and** `+512` nodes — deterministic per config, so any excursion is
//!   real growth;
//! - saturation-memo hit rate (`par.cache.hits` / `par.cache.misses`
//!   counters): an absolute drop > `0.10` below the median — hit counts
//!   are deterministic per config, so a tenth is structural.

use crate::ledger::{LedgerRead, LedgerRecord};

/// The gauge consulted for the peak-node comparison.
pub const PEAK_NODES_GAUGE: &str = "egraph.peak_nodes";
/// The counters consulted for the hit-rate comparison.
pub const CACHE_HITS_COUNTER: &str = "par.cache.hits";
/// See [`CACHE_HITS_COUNTER`].
pub const CACHE_MISSES_COUNTER: &str = "par.cache.misses";

/// The documented regression noise bands. Every numeric flag requires
/// both the ratio and the absolute floor to be exceeded.
#[derive(Debug, Clone)]
pub struct NoiseBand {
    /// Wall-time ratio over the baseline median.
    pub time_ratio: f64,
    /// Wall-time absolute floor (ms) over the baseline median.
    pub time_floor_ms: f64,
    /// Peak-node ratio over the baseline median.
    pub peak_ratio: f64,
    /// Peak-node absolute floor (e-nodes) over the baseline median.
    pub peak_floor: u64,
    /// Absolute cache-hit-rate drop below the baseline median.
    pub hit_rate_drop: f64,
}

impl Default for NoiseBand {
    fn default() -> Self {
        NoiseBand {
            time_ratio: 1.5,
            time_floor_ms: 5.0,
            peak_ratio: 1.2,
            peak_floor: 512,
            hit_rate_drop: 0.10,
        }
    }
}

/// What kind of regression a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegressionKind {
    /// The verdict differs from the immediately preceding run.
    VerdictFlip,
    /// Wall time beyond the noise band.
    Time,
    /// Peak e-nodes beyond the noise band.
    PeakNodes,
    /// Cache hit rate dropped beyond the noise band.
    HitRate,
}

impl RegressionKind {
    /// Stable lower-kebab tag (JSON / text output).
    pub fn as_str(&self) -> &'static str {
        match self {
            RegressionKind::VerdictFlip => "verdict-flip",
            RegressionKind::Time => "time",
            RegressionKind::PeakNodes => "peak-nodes",
            RegressionKind::HitRate => "hit-rate",
        }
    }
}

/// One flagged regression.
#[derive(Debug, Clone)]
pub struct Regression {
    /// The workload it was found in.
    pub workload: String,
    /// What regressed.
    pub kind: RegressionKind,
    /// Human-readable evidence (current vs baseline).
    pub detail: String,
}

/// Per-workload comparison summary.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The workload identity.
    pub workload: String,
    /// Total ledger records for this workload.
    pub runs: usize,
    /// Prior records sharing the current fingerprint (the numeric
    /// baseline population).
    pub baseline_runs: usize,
    /// `true` when history exists but none of it shares the current
    /// fingerprint — numeric comparison skipped, baseline re-seeded.
    pub baseline_reset: bool,
    /// The latest record (the current run).
    pub current: LedgerRecord,
    /// Median wall time of the baseline population.
    pub baseline_wall_ms: Option<f64>,
    /// Median peak e-nodes of the baseline population.
    pub baseline_peak_nodes: Option<u64>,
    /// Median cache hit rate of the baseline population.
    pub baseline_hit_rate: Option<f64>,
    /// Regressions found for this workload.
    pub regressions: Vec<Regression>,
}

/// The full report: per-workload summaries (sorted by workload name) and
/// the flattened regression list.
#[derive(Debug, Default)]
pub struct ReportOutcome {
    /// Per-workload summaries, sorted by workload name.
    pub workloads: Vec<WorkloadReport>,
    /// All regressions across workloads.
    pub regressions: Vec<Regression>,
    /// Malformed ledger lines skipped while reading.
    pub malformed: usize,
}

impl ReportOutcome {
    /// `true` when no regression was found.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn median_f64(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

fn median_u64(mut values: Vec<u64>) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    Some(values[values.len() / 2])
}

fn hit_rate(rec: &LedgerRecord) -> Option<f64> {
    rec.metrics
        .hit_rate(CACHE_HITS_COUNTER, CACHE_MISSES_COUNTER)
}

/// Compares every workload's latest record against its ledger history.
pub fn compare(read: &LedgerRead, band: &NoiseBand) -> ReportOutcome {
    let mut names: Vec<&str> = read.records.iter().map(|r| r.workload.as_str()).collect();
    names.sort_unstable();
    names.dedup();

    let mut outcome = ReportOutcome {
        malformed: read.malformed,
        ..ReportOutcome::default()
    };
    for name in names {
        let runs: Vec<&LedgerRecord> = read.records.iter().filter(|r| r.workload == name).collect();
        let (current, history) = runs.split_last().expect("non-empty group");
        let mut wr = WorkloadReport {
            workload: name.to_owned(),
            runs: runs.len(),
            baseline_runs: 0,
            baseline_reset: false,
            current: (*current).clone(),
            baseline_wall_ms: None,
            baseline_peak_nodes: None,
            baseline_hit_rate: None,
            regressions: Vec::new(),
        };

        // Verdict flip: current vs the immediately preceding run, any
        // fingerprint. ANY flip — including a recovery — is surfaced.
        if let Some(prev) = history.last() {
            if prev.verdict != current.verdict {
                wr.regressions.push(Regression {
                    workload: wr.workload.clone(),
                    kind: RegressionKind::VerdictFlip,
                    detail: format!("verdict {:?} -> {:?}", prev.verdict, current.verdict),
                });
            }
        }

        // Numeric baselines: same-fingerprint history only.
        let baseline: Vec<&&LedgerRecord> = history
            .iter()
            .filter(|r| r.fingerprint == current.fingerprint)
            .collect();
        wr.baseline_runs = baseline.len();
        wr.baseline_reset = baseline.is_empty() && !history.is_empty();
        if !baseline.is_empty() {
            wr.baseline_wall_ms = median_f64(baseline.iter().map(|r| r.wall_ms).collect());
            wr.baseline_peak_nodes = median_u64(
                baseline
                    .iter()
                    .map(|r| r.metrics.gauge(PEAK_NODES_GAUGE))
                    .collect(),
            );
            wr.baseline_hit_rate =
                median_f64(baseline.iter().filter_map(|r| hit_rate(r)).collect());

            if let Some(base) = wr.baseline_wall_ms {
                let cur = current.wall_ms;
                if cur > base * band.time_ratio && cur - base > band.time_floor_ms {
                    wr.regressions.push(Regression {
                        workload: wr.workload.clone(),
                        kind: RegressionKind::Time,
                        detail: format!(
                            "wall time {cur:.1}ms vs baseline median {base:.1}ms (>{:.1}x and >{:.0}ms over)",
                            band.time_ratio, band.time_floor_ms
                        ),
                    });
                }
            }
            if let Some(base) = wr.baseline_peak_nodes {
                let cur = current.metrics.gauge(PEAK_NODES_GAUGE);
                if base > 0
                    && cur as f64 > base as f64 * band.peak_ratio
                    && cur.saturating_sub(base) > band.peak_floor
                {
                    wr.regressions.push(Regression {
                        workload: wr.workload.clone(),
                        kind: RegressionKind::PeakNodes,
                        detail: format!(
                            "peak e-nodes {cur} vs baseline median {base} (>{:.1}x and >{} over)",
                            band.peak_ratio, band.peak_floor
                        ),
                    });
                }
            }
            if let (Some(base), Some(cur)) = (wr.baseline_hit_rate, hit_rate(current)) {
                if base - cur > band.hit_rate_drop {
                    wr.regressions.push(Regression {
                        workload: wr.workload.clone(),
                        kind: RegressionKind::HitRate,
                        detail: format!(
                            "memo hit rate {:.0}% vs baseline median {:.0}% (drop >{:.0}pp)",
                            cur * 100.0,
                            base * 100.0,
                            band.hit_rate_drop * 100.0
                        ),
                    });
                }
            }
        }

        outcome.regressions.extend(wr.regressions.iter().cloned());
        outcome.workloads.push(wr);
    }
    outcome
}

impl ReportOutcome {
    /// Renders the human-readable report table.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>5} {:>20} {:>16} {:>12} {:>9}  status",
            "workload", "runs", "verdict", "wall ms", "peak nodes", "hit rate"
        );
        for wr in &self.workloads {
            let wall = match wr.baseline_wall_ms {
                Some(b) => format!("{:.1} (med {:.1})", wr.current.wall_ms, b),
                None => format!("{:.1}", wr.current.wall_ms),
            };
            let peak = {
                let cur = wr.current.metrics.gauge(PEAK_NODES_GAUGE);
                match wr.baseline_peak_nodes {
                    Some(b) if b != cur => format!("{cur} (med {b})"),
                    _ => cur.to_string(),
                }
            };
            let rate = match hit_rate(&wr.current) {
                Some(r) => format!("{:.0}%", r * 100.0),
                None => "-".to_owned(),
            };
            let status = if !wr.regressions.is_empty() {
                "REGRESSED"
            } else if wr.baseline_reset {
                "baseline-reset"
            } else if wr.baseline_runs == 0 {
                "new"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<24} {:>5} {:>20} {:>16} {:>12} {:>9}  {status}",
                wr.workload, wr.runs, wr.current.verdict, wall, peak, rate
            );
        }
        if self.malformed > 0 {
            let _ = writeln!(
                out,
                "\n(skipped {} malformed ledger line(s))",
                self.malformed
            );
        }
        if self.regressions.is_empty() {
            let _ = writeln!(out, "\nno regressions against ledger history");
        } else {
            let _ = writeln!(out, "\nREGRESSIONS:");
            for r in &self.regressions {
                let _ = writeln!(out, "  {} [{}]: {}", r.workload, r.kind.as_str(), r.detail);
            }
        }
        out
    }

    /// Renders the report as one stable-field-order JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"workloads\":[");
        for (i, wr) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"workload\":{},\"runs\":{},\"baseline_runs\":{},\"baseline_reset\":{},\
                 \"verdict\":{},\"wall_ms\":{:.3}",
                crate::json::escape(&wr.workload),
                wr.runs,
                wr.baseline_runs,
                wr.baseline_reset,
                crate::json::escape(&wr.current.verdict),
                wr.current.wall_ms,
            );
            if let Some(b) = wr.baseline_wall_ms {
                let _ = write!(out, ",\"baseline_wall_ms\":{b:.3}");
            }
            let _ = write!(
                out,
                ",\"peak_nodes\":{}",
                wr.current.metrics.gauge(PEAK_NODES_GAUGE)
            );
            if let Some(b) = wr.baseline_peak_nodes {
                let _ = write!(out, ",\"baseline_peak_nodes\":{b}");
            }
            if let Some(r) = hit_rate(&wr.current) {
                let _ = write!(out, ",\"hit_rate\":{r:.4}");
            }
            if let Some(b) = wr.baseline_hit_rate {
                let _ = write!(out, ",\"baseline_hit_rate\":{b:.4}");
            }
            let _ = write!(out, ",\"regressions\":[");
            for (j, r) in wr.regressions.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"kind\":{},\"detail\":{}}}",
                    crate::json::escape(r.kind.as_str()),
                    crate::json::escape(&r.detail)
                );
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "],\"malformed\":{},\"regressions\":{}}}",
            self.malformed,
            self.regressions.len()
        );
        out
    }

    /// Renders every workload's *current* snapshot in the Prometheus text
    /// exposition format, one `workload` label per series, then the
    /// `entangle_run_wall_ms` gauge of every workload and the report's own
    /// `entangle_report_regressions` gauge.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut wall = String::from("# TYPE entangle_run_wall_ms gauge\n");
        for wr in &self.workloads {
            let labels = [("workload", wr.workload.as_str())];
            out.push_str(&wr.current.metrics.to_prometheus(&labels));
            let _ = writeln!(
                wall,
                "entangle_run_wall_ms{} {:.3}",
                crate::prom_labels(&labels),
                wr.current.wall_ms
            );
        }
        if !self.workloads.is_empty() {
            out.push_str(&wall);
        }
        let _ = writeln!(
            out,
            "# TYPE entangle_report_regressions gauge\nentangle_report_regressions {}",
            self.regressions.len()
        );
        out
    }
}
