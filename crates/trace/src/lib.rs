//! Structured tracing for the ENTANGLE checker pipeline.
//!
//! A refinement check runs five stages (lint → shard → encode/saturate →
//! outputs → certify), and until now the only externally visible evidence
//! was a verdict and a wall clock. This crate is the zero-dependency
//! observability layer the rest of the workspace threads through that
//! pipeline:
//!
//! - [`Tracer`]: a cheaply cloneable handle that opens nested [`SpanGuard`]s
//!   and emits instant events, stamped with microseconds from a monotonic
//!   epoch. The null tracer ([`Tracer::null`], the default) is a true no-op:
//!   no allocation, no clock reads, no sink calls.
//! - [`TraceSink`]: where records go. [`NullSink`] drops them,
//!   [`CollectSink`] buffers them in memory for programmatic inspection,
//!   [`JsonLinesSink`] streams them as one JSON object per line (the
//!   `--trace <file>` format).
//! - [`TraceReport`]: reconstructs the span tree from a record stream,
//!   validates balance (every `begin` closed, strict LIFO nesting), renders
//!   stable-field-order JSON, and exports the Chrome/Perfetto trace-event
//!   format for `chrome://tracing` and [ui.perfetto.dev].
//!
//! The schema is three record kinds (see DESIGN.md for the field tables):
//!
//! ```text
//! {"type":"begin","id":1,"parent":null,"name":"check_refinement","t_us":3}
//! {"type":"event","id":2,"parent":1,"name":"iteration","t_us":40,"dur_us":17,"attrs":{"nodes":"120"}}
//! {"type":"end","id":1,"name":"check_refinement","t_us":961,"dur_us":958,"attrs":{"outcome":"ok"}}
//! ```
//!
//! # Examples
//!
//! ```
//! use entangle_trace::{TraceReport, Tracer};
//!
//! let (tracer, sink) = Tracer::collect();
//! {
//!     let mut outer = tracer.span("stage:lint");
//!     outer.attr("outcome", "ok");
//!     tracer.event("diagnostic", &[("code", "W001".to_owned())]);
//! }
//! let report = TraceReport::from_records(&sink.records()).unwrap();
//! assert_eq!(report.spans.len(), 1);
//! assert_eq!(report.spans[0].name, "stage:lint");
//! assert_eq!(report.events.len(), 1);
//! ```

#![forbid(unsafe_code)]

mod report;
mod sink;

pub use report::{ParsedRecord, TraceError, TraceReport, TraceSpan};
pub use sink::{CollectSink, JsonLinesSink, NullSink, Record, RecordKind, TraceSink};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Escapes a string as a JSON string literal (with surrounding quotes).
///
/// This is the single escaping routine used by every hand-rolled JSON
/// emitter in the workspace (`entangle_lint::json_str` delegates here), so
/// all interchange files agree on one encoding.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct TracerInner {
    sink: Arc<dyn TraceSink>,
    epoch: Instant,
    next_id: AtomicU64,
    /// Ids of currently open spans, innermost last. The checker is
    /// single-threaded; the mutex only exists so `Tracer` is `Send + Sync`.
    stack: Mutex<Vec<u64>>,
}

/// A handle for emitting spans and events.
///
/// Cloning is cheap (an `Arc` bump); clones share the sink, the monotonic
/// epoch, and the span stack, so spans opened through different clones nest
/// correctly. The default tracer is the null tracer.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Tracer(enabled)"
        } else {
            "Tracer(null)"
        })
    }
}

impl Tracer {
    /// The no-op tracer: spans and events cost one branch.
    pub fn null() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer writing to an arbitrary sink.
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink,
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                stack: Mutex::new(Vec::new()),
            })),
        }
    }

    /// An in-memory tracer; the returned sink exposes the records.
    pub fn collect() -> (Tracer, Arc<CollectSink>) {
        let sink = Arc::new(CollectSink::default());
        (Tracer::with_sink(sink.clone()), sink)
    }

    /// A tracer streaming JSON-lines records to `w`.
    pub fn jsonl(w: impl std::io::Write + Send + 'static) -> Tracer {
        Tracer::with_sink(Arc::new(JsonLinesSink::new(w)))
    }

    /// `true` unless this is the null tracer.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this tracer's epoch (0 for the null tracer).
    pub fn now_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_micros() as u64)
    }

    /// Opens a span; it ends (and is emitted) when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                tracer: None,
                id: 0,
                name: String::new(),
                start_us: 0,
                dur_override_us: None,
                attrs: Vec::new(),
            };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let t_us = inner.epoch.elapsed().as_micros() as u64;
        let parent = {
            let mut stack = inner.stack.lock().unwrap();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        };
        inner.sink.record(&Record {
            kind: RecordKind::Begin,
            id,
            parent,
            name: name.to_owned(),
            t_us,
            dur_us: None,
            attrs: Vec::new(),
        });
        SpanGuard {
            tracer: Some(inner.clone()),
            id,
            name: name.to_owned(),
            start_us: t_us,
            dur_override_us: None,
            attrs: Vec::new(),
        }
    }

    /// Emits an instant event under the currently open span.
    pub fn event(&self, name: &str, attrs: &[(&str, String)]) {
        self.event_at(name, self.now_us(), None, attrs);
    }

    /// Emits an event with an explicit timestamp (and optional duration) —
    /// used to replay telemetry recorded outside the tracer, e.g. the
    /// per-iteration saturation stats the `Runner` collects with its own
    /// clock.
    pub fn event_at(&self, name: &str, t_us: u64, dur_us: Option<u64>, attrs: &[(&str, String)]) {
        let Some(inner) = &self.inner else { return };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = inner.stack.lock().unwrap().last().copied();
        inner.sink.record(&Record {
            kind: RecordKind::Event,
            id,
            parent,
            name: name.to_owned(),
            t_us,
            dur_us,
            attrs: attrs
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
    }
}

/// An open span; ends when dropped. Attributes set with [`SpanGuard::attr`]
/// are emitted on the `end` record.
pub struct SpanGuard {
    tracer: Option<Arc<TracerInner>>,
    id: u64,
    name: String,
    start_us: u64,
    dur_override_us: Option<u64>,
    attrs: Vec<(String, String)>,
}

impl SpanGuard {
    /// Attaches an attribute to the span's `end` record.
    pub fn attr(&mut self, key: &str, value: impl ToString) {
        if self.tracer.is_some() {
            self.attrs.push((key.to_owned(), value.to_string()));
        }
    }

    /// Overrides the span's reported duration (the externally-timed
    /// counterpart of [`Tracer::event_at`]). Used when a span *describes*
    /// work that ran elsewhere — e.g. a saturation run replayed from the
    /// cross-operator memo reports the original run's wall clock, not the
    /// microseconds the replay took.
    pub fn set_elapsed_us(&mut self, dur_us: u64) {
        if self.tracer.is_some() {
            self.dur_override_us = Some(dur_us);
        }
    }

    /// The span id (0 for the null tracer).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.tracer.take() else {
            return;
        };
        {
            let mut stack = inner.stack.lock().unwrap();
            // Scoped guards close LIFO; pop defensively up to our id so a
            // leaked inner guard cannot poison parentage forever.
            while let Some(top) = stack.pop() {
                if top == self.id {
                    break;
                }
            }
        }
        let t_us = inner.epoch.elapsed().as_micros() as u64;
        inner.sink.record(&Record {
            kind: RecordKind::End,
            id: self.id,
            parent: None,
            name: std::mem::take(&mut self.name),
            t_us,
            dur_us: Some(
                self.dur_override_us
                    .unwrap_or_else(|| t_us.saturating_sub(self.start_us)),
            ),
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

#[cfg(test)]
mod tests;
