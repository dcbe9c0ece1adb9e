//! The bounded admission queue: the portal's front-door backpressure.
//!
//! `POST /jobs` never blocks a connection handler — a submission either
//! takes a slot here or is rejected immediately with `429`/`503`. Two
//! caps apply at admission time:
//!
//! * `max_inflight` bounds queued + executing submissions **in total**,
//!   so a flood of uploads cannot buffer unbounded bodies or starve the
//!   cluster behind the portal.
//! * `per_addr_inflight` bounds queued + executing submissions **per
//!   remote address**, so one flooding client saturates its own cap
//!   while slots remain for everyone else (per-client fairness).
//!
//! Built on `cn_sync` primitives so `cnctl check`'s controlled scheduler
//! owns every interleaving of the handler→worker handoff (the
//! `portal.http_parser` scenario); the `mutations` cargo feature swaps in
//! an injected lost-wakeup bug the mutation suite must catch.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use cn_sync::{Condvar, Mutex};

/// Why a submission was turned away at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Total queued + executing reached `max_inflight` → `503`.
    Full,
    /// This remote address reached `per_addr_inflight` → `429`.
    AddrSaturated,
    /// The portal's backlog crossed half of `max_inflight`, so the
    /// per-address allowance halved and this address is over the reduced
    /// cap → `429`. Heavy senders shed first while light clients keep
    /// their slots.
    Shed,
    /// The portal is shutting down → `503`.
    Closed,
}

impl SubmitError {
    /// The HTTP status this rejection answers with.
    pub fn status(self) -> u16 {
        match self {
            SubmitError::Full | SubmitError::Closed => 503,
            SubmitError::AddrSaturated | SubmitError::Shed => 429,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            SubmitError::Full => "admission queue full",
            SubmitError::AddrSaturated => "too many in-flight submissions from this address",
            SubmitError::Shed => "portal under load: per-address allowance reduced",
            SubmitError::Closed => "portal is shutting down",
        }
    }
}

struct State<T> {
    queue: VecDeque<(u64, T)>,
    /// Executing (popped, not yet finished) per address key.
    executing: HashMap<u64, usize>,
    /// Queued + executing per address key.
    held: HashMap<u64, usize>,
    executing_total: usize,
    closed: bool,
}

/// The bounded, per-address-fair admission queue. `T` is the unit of
/// work (the portal queues compile+submit jobs; the check scenario
/// queues sequence numbers).
pub struct Admission<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    max_inflight: usize,
    per_addr_inflight: usize,
}

impl<T> Admission<T> {
    pub fn new(max_inflight: usize, per_addr_inflight: usize) -> Admission<T> {
        Admission {
            state: Mutex::named(
                "portal.admission",
                State {
                    queue: VecDeque::new(),
                    executing: HashMap::new(),
                    held: HashMap::new(),
                    executing_total: 0,
                    closed: false,
                },
            ),
            cv: Condvar::named("portal.admission.cv"),
            max_inflight: max_inflight.max(1),
            per_addr_inflight: per_addr_inflight.max(1),
        }
    }

    /// Admit one submission from `key` (a hashed remote address), or
    /// reject it without blocking.
    pub fn submit(&self, key: u64, work: T) -> Result<(), SubmitError> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(SubmitError::Closed);
        }
        if st.queue.len() + st.executing_total >= self.max_inflight {
            return Err(SubmitError::Full);
        }
        let held = st.held.get(&key).copied().unwrap_or(0);
        if held >= self.per_addr_inflight {
            return Err(SubmitError::AddrSaturated);
        }
        // Load-aware shedding: once the backlog (queued + executing)
        // crosses half the total cap, the per-address allowance halves, so
        // the addresses holding the most slots are turned away first and
        // the remaining headroom stays spread across light clients.
        let backlog = st.queue.len() + st.executing_total;
        if backlog * 2 >= self.max_inflight && held >= (self.per_addr_inflight / 2).max(1) {
            return Err(SubmitError::Shed);
        }
        *st.held.entry(key).or_insert(0) += 1;
        st.queue.push_back((key, work));
        #[cfg(not(feature = "mutations"))]
        self.cv.notify_one();
        // Injected ordering bug for cn-check: "skip redundant wakeups"
        // with the condition inverted — the wakeup that matters (queue
        // was empty, a worker is parked) is exactly the one skipped.
        #[cfg(feature = "mutations")]
        if st.queue.len() > 1 {
            self.cv.notify_one();
        }
        Ok(())
    }

    /// Take the next admitted submission, waiting up to `timeout` for one
    /// to arrive. `None` on timeout or when closed and drained. The
    /// returned key must be handed back via [`finish`](Admission::finish).
    pub fn next(&self, timeout: Duration) -> Option<(u64, T)> {
        let mut batch = self.next_batch(1, timeout);
        batch.pop()
    }

    /// Drain up to `max` admitted submissions in one wakeup. Empty on
    /// timeout or shutdown. The portal's workers take one at a time
    /// ([`next`](Admission::next)): whatever else is queued is an idle
    /// worker's to take.
    pub fn next_batch(&self, max: usize, timeout: Duration) -> Vec<(u64, T)> {
        let mut st = self.state.lock();
        if st.queue.is_empty() && !st.closed {
            // One bounded wait; the caller loops. A spurious or timed-out
            // wake just returns empty.
            self.cv.wait_for(&mut st, timeout);
        }
        let mut out = Vec::new();
        while out.len() < max {
            let Some((key, work)) = st.queue.pop_front() else { break };
            *st.executing.entry(key).or_insert(0) += 1;
            st.executing_total += 1;
            out.push((key, work));
        }
        out
    }

    /// Release the slots held by a completed (or failed) submission.
    pub fn finish(&self, key: u64) {
        let mut st = self.state.lock();
        if let Some(n) = st.executing.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                st.executing.remove(&key);
            }
            st.executing_total -= 1;
        }
        if let Some(n) = st.held.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                st.held.remove(&key);
            }
        }
    }

    /// Queued (not yet executing) submissions.
    pub fn depth(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Popped-but-unfinished submissions.
    pub fn executing(&self) -> usize {
        self.state.lock().executing_total
    }

    /// Stop admitting; wake every parked worker so it can exit.
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        self.cv.notify_all();
    }

    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_cap_rejects_with_full() {
        let q: Admission<u32> = Admission::new(2, 2);
        q.submit(1, 10).unwrap();
        q.submit(2, 20).unwrap();
        assert_eq!(q.submit(3, 30), Err(SubmitError::Full));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn per_addr_cap_rejects_only_the_flooder() {
        let q: Admission<u32> = Admission::new(16, 2);
        q.submit(1, 10).unwrap();
        q.submit(1, 11).unwrap();
        assert_eq!(q.submit(1, 12), Err(SubmitError::AddrSaturated));
        // Another client still gets in.
        q.submit(2, 20).unwrap();
    }

    #[test]
    fn finish_releases_both_caps() {
        let q: Admission<u32> = Admission::new(2, 1);
        q.submit(1, 10).unwrap();
        let (key, work) = q.next(Duration::from_millis(10)).expect("queued item");
        assert_eq!((key, work), (1, 10));
        // Still held while executing.
        assert_eq!(q.submit(1, 11), Err(SubmitError::AddrSaturated));
        q.finish(key);
        q.submit(1, 11).unwrap();
    }

    #[test]
    fn backlog_halves_the_per_addr_allowance() {
        // Cap 8 total / 4 per address; effective per-addr drops to 2 once
        // the backlog reaches 4.
        let q: Admission<u32> = Admission::new(8, 4);
        q.submit(1, 10).unwrap();
        q.submit(1, 11).unwrap();
        q.submit(2, 20).unwrap();
        q.submit(2, 21).unwrap();
        // Backlog is now 4: address 1 is at the reduced cap and sheds,
        // while a fresh address still gets in under the reduced cap.
        assert_eq!(q.submit(1, 12), Err(SubmitError::Shed));
        q.submit(3, 30).unwrap();
        q.submit(3, 31).unwrap();
        assert_eq!(q.submit(3, 32), Err(SubmitError::Shed));
        assert_eq!(SubmitError::Shed.status(), 429);
        // Draining the backlog restores the full allowance.
        while let Some((key, _)) = q.next(Duration::from_millis(1)) {
            q.finish(key);
        }
        q.submit(1, 12).unwrap();
        q.submit(1, 13).unwrap();
        q.submit(1, 14).unwrap();
    }

    #[test]
    fn close_wakes_and_rejects() {
        let q: Admission<u32> = Admission::new(2, 2);
        q.close();
        assert_eq!(q.submit(1, 10), Err(SubmitError::Closed));
        assert!(q.next(Duration::from_millis(1)).is_none());
    }

    #[test]
    fn batch_drain_preserves_fifo() {
        let q: Admission<u32> = Admission::new(16, 8);
        for i in 0..5 {
            q.submit(1, i).unwrap();
        }
        let batch = q.next_batch(3, Duration::from_millis(10));
        assert_eq!(batch.iter().map(|(_, w)| *w).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(q.executing(), 3);
    }
}
