//! Bounded flight recorder.
//!
//! A fixed-capacity ring of structured events with severity levels. The
//! runtime records *what just happened* (a drop, a bid rejection, a task
//! failure) continuously and cheaply; when something goes wrong — or on
//! demand via `cnctl stats` — the last N events explain the lead-up, like
//! an aircraft flight recorder. Overflow evicts the oldest event and counts
//! the eviction, so `dropped() > 0` tells you the window was too small
//! (lint CN018 warns ahead of time when a descriptor guarantees this).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Debug,
    Info,
    Warn,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One structured flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Logical-clock tick at capture.
    pub tick: u64,
    pub severity: Severity,
    /// Taxonomy bucket (`"net"`, `"job"`, `"task"`, `"fault"`, …).
    pub category: String,
    pub message: String,
    pub job: Option<u64>,
}

/// The bounded ring.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<Event>>,
    evicted: AtomicU64,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            evicted: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn record(&self, event: Event) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by overflow since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first.
    pub fn dump(&self) -> Vec<Event> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// The newest `n` retained events, oldest of those first.
    pub fn last(&self, n: usize) -> Vec<Event> {
        let ring = self.ring.lock().unwrap();
        ring.iter().skip(ring.len().saturating_sub(n)).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: u64, severity: Severity, msg: &str) -> Event {
        Event { tick, severity, category: "test".into(), message: msg.into(), job: None }
    }

    #[test]
    fn ring_keeps_newest_and_counts_evictions() {
        let fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record(ev(i, Severity::Info, &format!("e{i}")));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.evicted(), 2);
        let msgs: Vec<_> = fr.dump().into_iter().map(|e| e.message).collect();
        assert_eq!(msgs, vec!["e2", "e3", "e4"]);
    }

    #[test]
    fn last_n_returns_tail() {
        let fr = FlightRecorder::new(10);
        for i in 0..4 {
            fr.record(ev(i, Severity::Debug, &format!("e{i}")));
        }
        let tail: Vec<_> = fr.last(2).into_iter().map(|e| e.message).collect();
        assert_eq!(tail, vec!["e2", "e3"]);
        assert_eq!(fr.last(100).len(), 4);
    }

    #[test]
    fn severity_filter_and_order() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        assert!(Severity::Info > Severity::Debug);
        let fr = FlightRecorder::new(10);
        fr.record(ev(0, Severity::Debug, "d"));
        fr.record(ev(1, Severity::Warn, "w"));
        fr.record(ev(2, Severity::Error, "e"));
        let warn_up: Vec<_> = fr
            .dump()
            .into_iter()
            .filter(|e| e.severity >= Severity::Warn)
            .map(|e| e.message)
            .collect();
        assert_eq!(warn_up, vec!["w", "e"]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let fr = FlightRecorder::new(0);
        fr.record(ev(0, Severity::Info, "a"));
        fr.record(ev(1, Severity::Info, "b"));
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.dump()[0].message, "b");
    }
}
