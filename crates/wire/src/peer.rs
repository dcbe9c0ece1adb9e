//! Per-peer send queue drained by the connection's reactor shard.
//!
//! Extracted from the socket fabric so the producer/consumer handoff — any
//! sender thread enqueues, the shard that owns the connection drains on its
//! event loop — can also be driven by `cn-check` under the model checker,
//! with no sockets involved. One consumer preserves per-peer order;
//! batching emerges from backpressure: frames that arrive while a flush is
//! in flight ride the next one.

use std::collections::VecDeque;

use cn_sync::Mutex;

use crate::codec::Frame;

/// Send side of one peer connection: callers enqueue shared [`Frame`]s,
/// the connection's shard drains and coalesces them.
pub struct PeerQueue {
    state: Mutex<QueueState>,
}

#[derive(Default)]
struct QueueState {
    frames: VecDeque<Frame>,
    /// Set by the shard when the stream died: later enqueues fail
    /// so the sender reconnects and surfaces a typed error.
    dead: bool,
}

impl Default for PeerQueue {
    fn default() -> Self {
        Self::new()
    }
}

/// What happened to a [`PeerQueue::push_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Frame enqueued. `was_empty` reports the empty→non-empty edge: the
    /// consumer may be asleep and exactly this push must wake it (the
    /// reactor sender rings the shard's eventfd on it).
    Queued { was_empty: bool },
    /// The consumer declared the stream dead; the frame was dropped.
    Dead,
}

impl PeerQueue {
    pub fn new() -> PeerQueue {
        PeerQueue { state: Mutex::named("wire.peer_queue", QueueState::default()) }
    }

    /// Enqueue a frame, reporting the empty→non-empty edge so reactor
    /// senders know when a cross-thread wakeup is required.
    pub fn push_frame(&self, frame: Frame) -> PushOutcome {
        let mut st = self.state.lock();
        if st.dead {
            return PushOutcome::Dead;
        }
        #[cfg(not(feature = "mutations"))]
        let was_empty = st.frames.is_empty();
        // Injected ordering bug for cn-check: the edge report inverted, so
        // the one push that must ring the consumer (queue was empty, the
        // shard may be asleep) is exactly the one that says it need not.
        #[cfg(feature = "mutations")]
        let was_empty = !st.frames.is_empty();
        st.frames.push_back(frame);
        PushOutcome::Queued { was_empty }
    }

    /// Nonblocking drain for the reactor's flush path: move up to
    /// `max_frames` / `max_bytes` of queued frames into `out` (the byte
    /// cap is soft — a single frame may exceed it). Returns the number of
    /// frames moved; 0 means the queue is currently empty (or dead).
    pub fn try_take_batch(
        &self,
        out: &mut std::collections::VecDeque<Frame>,
        max_frames: usize,
        max_bytes: usize,
    ) -> usize {
        let mut st = self.state.lock();
        let (mut n, mut bytes) = (0, 0);
        for f in st.frames.iter().take(max_frames) {
            if n > 0 && bytes + f.len() > max_bytes {
                break;
            }
            bytes += f.len();
            n += 1;
        }
        out.extend(st.frames.drain(..n));
        n
    }

    /// Mark the queue dead: every later push reports [`PushOutcome::Dead`].
    /// Returns how many queued frames died with it.
    pub fn kill(&self) -> usize {
        let mut st = self.state.lock();
        st.dead = true;
        std::mem::take(&mut st.frames).len()
    }
}
