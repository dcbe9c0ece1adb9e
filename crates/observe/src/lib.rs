//! # cn-observe — observability for the CN runtime
//!
//! The paper's CN framework (JobManager multicast selection, per-task
//! message queues, TaskManager dispatch) gives no visibility into *where a
//! job spent its time* or *why manager selection picked a node*. This crate
//! is the shared observability substrate for every runtime crate
//! (DESIGN.md §8):
//!
//! * [`Registry`] — a zero-dependency, lock-sharded metrics registry:
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s, all cheap
//!   atomic handles once resolved.
//! * [`trace`] — span-based tracing with explicit parent/child [`SpanId`]s
//!   and a [`LogicalClock`] timestamp source (no `SystemTime` on the hot
//!   path, so traces are seed-reproducible).
//! * [`FlightRecorder`] — a bounded ring buffer of severity-tagged
//!   structured events; the last N can be dumped on demand or on panic.
//! * [`export`] — a canonical JSONL event journal, a per-job Chrome
//!   `trace_event` timeline, and a text summary table.
//!
//! Everything hangs off a cloneable [`Recorder`] handle. A disabled
//! recorder costs **one atomic load** per span/event call site; metric
//! counters are plain atomic adds and stay live even when tracing is off
//! (the network fabric's counters predate this crate and keep their
//! always-on semantics).

pub mod export;
pub mod flight;
pub mod metrics;
pub mod trace;

pub use export::{chrome_trace, journal_jsonl, journal_jsonl_filtered, summary_text};
pub use flight::{Event, FlightRecorder, Severity};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot, LATENCY_BUCKETS_US,
};
pub use trace::{LogicalClock, SpanData, SpanId, SpanStore};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Default capacity of the flight recorder ring buffer. `cn-analysis`
/// lint CN018 warns when a CNX descriptor expands to more tasks than this:
/// a single run would wrap the ring and evict its own earliest events.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 512;

struct Inner {
    enabled: AtomicBool,
    clock: LogicalClock,
    metrics: Registry,
    spans: SpanStore,
    flight: FlightRecorder,
}

/// The cloneable observability handle threaded through the runtime.
///
/// `Recorder::disabled()` is the default everywhere; every span/flight call
/// then early-returns after a single `AtomicBool` load. An enabled
/// recorder captures spans into a [`SpanStore`] (exported canonically, see
/// [`export`]) and events into the [`FlightRecorder`].
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish()
    }
}

impl Recorder {
    /// A recorder that captures spans and flight events.
    pub fn new() -> Recorder {
        Recorder::with_flight_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A capturing recorder with a custom flight-recorder ring size.
    pub fn with_flight_capacity(capacity: usize) -> Recorder {
        Recorder {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                clock: LogicalClock::new(),
                metrics: Registry::new(),
                spans: SpanStore::new(),
                flight: FlightRecorder::new(capacity),
            }),
        }
    }

    /// A recorder whose span/event paths are no-ops (one atomic load each).
    /// Metric handles still work — counters are independent of the gate.
    pub fn disabled() -> Recorder {
        let r = Recorder::new();
        r.inner.enabled.store(false, Ordering::Relaxed);
        r
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// The logical clock backing span timestamps.
    pub fn clock(&self) -> &LogicalClock {
        &self.inner.clock
    }

    /// The metrics registry (always live, even when tracing is disabled).
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }

    /// The flight-recorder ring.
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// The raw span store (exporters read it; call sites use the span API).
    pub fn spans(&self) -> &SpanStore {
        &self.inner.spans
    }

    /// Resolve (or create) a counter. Cache the handle on hot paths.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.metrics.counter(name)
    }

    /// Resolve (or create) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.metrics.gauge(name)
    }

    /// Resolve (or create) a fixed-bucket histogram.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.inner.metrics.histogram(name, bounds)
    }

    /// Open a span. Returns `None` (after one atomic load) when disabled.
    #[inline]
    pub fn span_start(&self, category: &str, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.is_enabled() {
            return None;
        }
        Some(self.inner.spans.start(&self.inner.clock, category, name, parent, None, None))
    }

    /// Open a span carrying job/task identity (runtime spans).
    #[inline]
    pub fn span_start_job(
        &self,
        category: &str,
        name: &str,
        parent: Option<SpanId>,
        job: Option<u64>,
        task: Option<&str>,
    ) -> Option<SpanId> {
        if !self.is_enabled() {
            return None;
        }
        Some(self.inner.spans.start(&self.inner.clock, category, name, parent, job, task))
    }

    /// Close a span. Accepts the `Option` from `span_start` so disabled
    /// call sites stay branch-free.
    #[inline]
    pub fn span_end(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            if self.is_enabled() {
                self.inner.spans.end(&self.inner.clock, id);
            }
        }
    }

    /// Record a flight event. One atomic load when disabled.
    #[inline]
    pub fn event(&self, severity: Severity, category: &str, message: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        self.inner.flight.record(Event {
            tick: self.inner.clock.tick(),
            severity,
            category: category.to_string(),
            message: message.into(),
            job: None,
        });
    }

    /// Record a flight event with a lazily built message: the closure (and
    /// its formatting allocations) only runs when the recorder is enabled.
    #[inline]
    pub fn event_with(
        &self,
        severity: Severity,
        category: &str,
        job: Option<u64>,
        message: impl FnOnce() -> String,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.inner.flight.record(Event {
            tick: self.inner.clock.tick(),
            severity,
            category: category.to_string(),
            message: message(),
            job,
        });
    }

    /// Record a flight event attributed to a job.
    #[inline]
    pub fn event_job(
        &self,
        severity: Severity,
        category: &str,
        job: u64,
        message: impl Into<String>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.inner.flight.record(Event {
            tick: self.inner.clock.tick(),
            severity,
            category: category.to_string(),
            message: message.into(),
            job: Some(job),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        let id = r.span_start("cat", "name", None);
        assert!(id.is_none());
        r.span_end(id);
        r.event(Severity::Info, "cat", "msg");
        assert_eq!(r.spans().snapshot().len(), 0);
        assert_eq!(r.flight().len(), 0);
        // Metrics stay live regardless of the gate.
        r.counter("c").inc();
        assert_eq!(r.counter("c").get(), 1);
    }

    #[test]
    fn spans_nest_with_explicit_parents() {
        let r = Recorder::new();
        let root = r.span_start("pipeline", "run", None);
        let child = r.span_start("stage", "validate", root);
        r.span_end(child);
        r.span_end(root);
        let spans = r.spans().snapshot();
        assert_eq!(spans.len(), 2);
        let root_span = spans.iter().find(|s| s.name == "run").unwrap();
        let child_span = spans.iter().find(|s| s.name == "validate").unwrap();
        assert_eq!(child_span.parent, Some(root_span.id));
        assert!(child_span.start > root_span.start);
        assert!(child_span.end.unwrap() < root_span.end.unwrap());
    }

    #[test]
    fn events_carry_severity_and_job() {
        let r = Recorder::new();
        r.event(Severity::Warn, "net", "drop");
        r.event_job(Severity::Info, "task", 3, "started");
        let dump = r.flight().dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].severity, Severity::Warn);
        assert_eq!(dump[1].job, Some(3));
        assert!(dump[1].tick > dump[0].tick);
    }

    #[test]
    fn recorder_clones_share_state() {
        let r = Recorder::new();
        let r2 = r.clone();
        r2.counter("shared").add(5);
        assert_eq!(r.counter("shared").get(), 5);
    }
}
