//! Span tracing over a logical clock.
//!
//! Spans form an explicit parent/child forest: `start` takes the parent's
//! [`SpanId`], so nesting never depends on thread-local ambient state. Timestamps come from a [`LogicalClock`] — a process-local
//! atomic tick, **not** `SystemTime` — so capture order is total and
//! exporters can canonicalize traces into seed-reproducible output
//! (DESIGN.md §8 "determinism contract").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing logical timestamp source.
#[derive(Debug, Default)]
pub struct LogicalClock(AtomicU64);

impl LogicalClock {
    pub fn new() -> LogicalClock {
        LogicalClock(AtomicU64::new(0))
    }

    /// Advance and return the next tick. Each call observes a unique value.
    #[inline]
    pub fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// The number of ticks issued so far.
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Identifier of one span. Ids are dense and start at 1 (index = id − 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One captured span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanData {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub category: String,
    pub name: String,
    /// Raw runtime job id, when the span belongs to a job.
    pub job: Option<u64>,
    /// Task name, for task-level spans.
    pub task: Option<String>,
    /// Logical tick at open.
    pub start: u64,
    /// Logical tick at close; `None` while the span is open.
    pub end: Option<u64>,
}

/// Append-only store of captured spans.
#[derive(Default)]
pub struct SpanStore {
    spans: Mutex<Vec<SpanData>>,
}

impl SpanStore {
    pub fn new() -> SpanStore {
        SpanStore::default()
    }

    pub fn start(
        &self,
        clock: &LogicalClock,
        category: &str,
        name: &str,
        parent: Option<SpanId>,
        job: Option<u64>,
        task: Option<&str>,
    ) -> SpanId {
        let start = clock.tick();
        let mut spans = self.spans.lock().unwrap();
        let id = SpanId(spans.len() as u64 + 1);
        spans.push(SpanData {
            id,
            parent,
            category: category.to_string(),
            name: name.to_string(),
            job,
            task: task.map(str::to_string),
            start,
            end: None,
        });
        id
    }

    pub fn end(&self, clock: &LogicalClock, id: SpanId) {
        let tick = clock.tick();
        if let Some(span) = self.spans.lock().unwrap().get_mut(id.0 as usize - 1) {
            // First close wins; a double end is a call-site bug but must not
            // corrupt the trace.
            if span.end.is_none() {
                span.end = Some(tick);
            }
        }
    }

    /// Copy of every captured span, in capture order.
    pub fn snapshot(&self) -> Vec<SpanData> {
        self.spans.lock().unwrap().clone()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ticks_are_unique_and_ordered() {
        let clock = LogicalClock::new();
        let a = clock.tick();
        let b = clock.tick();
        assert!(b > a);
        assert_eq!(clock.now(), 2);
    }

    #[test]
    fn start_end_round_trip() {
        let clock = LogicalClock::new();
        let store = SpanStore::new();
        let id = store.start(&clock, "stage", "codegen", None, None, None);
        store.end(&clock, id);
        let spans = store.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].id, id);
        assert!(spans[0].end.unwrap() > spans[0].start);
    }

    #[test]
    fn double_end_keeps_first_close() {
        let clock = LogicalClock::new();
        let store = SpanStore::new();
        let id = store.start(&clock, "x", "y", None, None, None);
        store.end(&clock, id);
        let first = store.snapshot()[0].end;
        store.end(&clock, id);
        assert_eq!(store.snapshot()[0].end, first);
    }

    #[test]
    fn concurrent_starts_get_distinct_ids_and_ticks() {
        use std::sync::Arc;
        let clock = Arc::new(LogicalClock::new());
        let store = Arc::new(SpanStore::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let clock = Arc::clone(&clock);
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let id = store.start(&clock, "t", "s", None, None, None);
                        store.end(&clock, id);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let spans = store.snapshot();
        assert_eq!(spans.len(), 800);
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 800);
        assert!(spans.iter().all(|s| s.end.unwrap() > s.start));
    }
}
