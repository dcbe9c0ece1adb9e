//! Cross-thread command mailbox with pluggable wakeup.
//!
//! Producers (fabric send paths, registration calls) push commands; the
//! owning shard drains them from its event loop. The shard normally
//! sleeps in `epoll_wait`, so the mailbox cannot wake it with a condvar
//! alone — pushes also ring a [`Waker`] (the shard's eventfd). The wake
//! is elided unless the push made the mailbox non-empty: a consumer that
//! saw the previous item is already awake, which is the same
//! "batching via backpressure" dedup the peer queues use.
//!
//! The condvar path exists so `cn-check` can drive the identical
//! push/drain/stop protocol under the model checker with a no-op waker —
//! no epoll, every wakeup owned by the scheduler.

use std::collections::VecDeque;
use std::time::Duration;

use cn_sync::{Condvar, Mutex};

/// How a push wakes the consumer when it may be asleep. The production
/// waker rings the shard's eventfd; tests and checked scenarios use
/// [`NoopWaker`] and rely on the built-in condvar.
pub trait Waker: Send + Sync {
    fn wake(&self);
}

/// No out-of-band wakeup; consumers block on the mailbox condvar.
pub struct NoopWaker;

impl Waker for NoopWaker {
    fn wake(&self) {}
}

struct MailboxState<T> {
    items: VecDeque<T>,
    stopped: bool,
}

/// An unbounded MPSC command queue; see the module docs.
pub struct Mailbox<T> {
    state: Mutex<MailboxState<T>>,
    cv: Condvar,
    waker: Box<dyn Waker>,
}

impl<T> Mailbox<T> {
    pub fn new(waker: Box<dyn Waker>) -> Mailbox<T> {
        Mailbox {
            state: Mutex::named(
                "reactor.mailbox",
                MailboxState { items: VecDeque::new(), stopped: false },
            ),
            cv: Condvar::named("reactor.mailbox_cv"),
            waker,
        }
    }

    /// Enqueue a command; false if the mailbox is stopped (the command is
    /// dropped — the consumer is gone or going).
    pub fn push(&self, item: T) -> bool {
        let mut st = self.state.lock();
        if st.stopped {
            return false;
        }
        let was_empty = st.items.is_empty();
        st.items.push_back(item);
        drop(st);
        #[cfg(not(feature = "mutations"))]
        if was_empty {
            self.cv.notify_one();
            self.waker.wake();
        }
        // Injected ordering bug for cn-check: the empty->non-empty edge is
        // exactly when the consumer may be parked, and exactly the wake
        // this skips.
        #[cfg(feature = "mutations")]
        if !was_empty {
            self.cv.notify_one();
            self.waker.wake();
        }
        true
    }

    /// Stop the mailbox and wake the consumer so it can exit. Items
    /// already queued remain drainable.
    pub fn stop(&self) {
        self.state.lock().stopped = true;
        self.cv.notify_all();
        self.waker.wake();
    }

    /// Nonblocking drain of everything queued into `out`. Returns the
    /// number of items taken. The shard calls this after every wakeup.
    pub fn try_drain(&self, out: &mut Vec<T>) -> usize {
        let mut st = self.state.lock();
        let n = st.items.len();
        out.extend(st.items.drain(..));
        n
    }

    /// Blocking drain for condvar-driven consumers (scenarios, tests):
    /// waits until at least one item or stop, then drains. Returns the
    /// number of items taken; 0 means stopped with nothing left. `poll`
    /// bounds each wait so a lost wakeup surfaces as a timeout escape
    /// under the checker instead of a hang.
    pub fn recv_batch(&self, out: &mut Vec<T>, poll: Duration) -> usize {
        let mut st = self.state.lock();
        loop {
            if !st.items.is_empty() {
                let n = st.items.len();
                out.extend(st.items.drain(..));
                return n;
            }
            if st.stopped {
                return 0;
            }
            self.cv.wait_for(&mut st, poll);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_drain_roundtrip() {
        let mb: Mailbox<u32> = Mailbox::new(Box::new(NoopWaker));
        assert!(mb.push(1));
        assert!(mb.push(2));
        let mut out = Vec::new();
        assert_eq!(mb.try_drain(&mut out), 2);
        assert_eq!(out, vec![1, 2]);
        mb.stop();
        assert!(!mb.push(3), "push after stop");
        assert_eq!(mb.recv_batch(&mut out, Duration::from_millis(1)), 0);
    }

    #[test]
    fn blocking_consumer_sees_pushes_and_stop() {
        let mb: Arc<Mailbox<u32>> = Arc::new(Mailbox::new(Box::new(NoopWaker)));
        let consumer = {
            let mb = Arc::clone(&mb);
            cn_sync::thread::spawn(move || {
                let mut out = Vec::new();
                let mut total = 0;
                loop {
                    let n = mb.recv_batch(&mut out, Duration::from_millis(20));
                    if n == 0 {
                        return total;
                    }
                    total += n;
                }
            })
        };
        for i in 0..10 {
            assert!(mb.push(i));
        }
        mb.stop();
        assert_eq!(consumer.join().unwrap(), 10);
    }
}
