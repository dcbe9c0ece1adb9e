//! The virtual network fabric: unicast, multicast groups, latency model.
//!
//! "Requests to JobManager are communicated using multicast. JobManagers
//! respond to multicast requests ... if they have free resources and are
//! willing" (paper Section 3). The fabric therefore supports multicast
//! groups natively; CNServers join the discovery group, clients multicast
//! into it.
//!
//! Endpoints and groups live in an [`Endpoints`] table, the one the socket
//! fabric delivers through too. With a zero latency model, messages are
//! handed over synchronously; with a non-zero model, a fabric thread delays
//! each message by `base ± jitter` and applies seeded random loss —
//! deterministic for a fixed seed and send order.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_observe::{Counter, Recorder, Severity};
use cn_sync::channel::Receiver;
use cn_sync::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::endpoints::Endpoints;

/// An endpoint address on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u64);

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "addr:{}", self.0)
    }
}

/// A multicast group id. Group 0 is conventionally the CN discovery group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(pub u32);

/// The CN discovery multicast group (JobManager solicitation).
pub const DISCOVERY_GROUP: GroupId = GroupId(0);

/// A delivered message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    pub from: Addr,
    pub to: Addr,
    pub msg: M,
}

/// Latency/loss configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Base one-way latency.
    pub base: Duration,
    /// Uniform jitter added on top: `[0, jitter]`.
    pub jitter: Duration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_rate: f64,
}

impl LatencyModel {
    /// Instant, lossless delivery (the default for unit tests).
    pub fn zero() -> Self {
        LatencyModel { base: Duration::ZERO, jitter: Duration::ZERO, drop_rate: 0.0 }
    }

    /// A LAN-ish profile: ~200µs ± 100µs, lossless — the paper's Ethernet.
    pub fn lan() -> Self {
        LatencyModel {
            base: Duration::from_micros(200),
            jitter: Duration::from_micros(100),
            drop_rate: 0.0,
        }
    }

    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate.clamp(0.0, 1.0);
        self
    }

    fn is_instant(&self) -> bool {
        self.base.is_zero() && self.jitter.is_zero()
    }
}

/// Send failure. The first two variants are raised by the simulated
/// fabric; the wire variants are raised by the socket transport in
/// `cn-wire` (the error type lives here so both fabrics share one
/// `Result` surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    UnknownAddr(Addr),
    /// The destination endpoint was dropped.
    Closed(Addr),
    /// No TCP connection could be established to the peer process (after
    /// the configured retries).
    ConnectFailed(Addr),
    /// A connect or write did not finish within the configured timeout.
    Timeout(Addr),
    /// The frame could not be encoded/decoded for this destination.
    Codec(Addr),
    /// The peer process closed the connection mid-conversation.
    PeerClosed(Addr),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::UnknownAddr(a) => write!(f, "unknown address {a}"),
            SendError::Closed(a) => write!(f, "endpoint {a} is closed"),
            SendError::ConnectFailed(a) => write!(f, "could not connect to peer of {a}"),
            SendError::Timeout(a) => write!(f, "transport timeout sending to {a}"),
            SendError::Codec(a) => write!(f, "codec failure for {a}"),
            SendError::PeerClosed(a) => write!(f, "peer of {a} closed the connection"),
        }
    }
}

impl std::error::Error for SendError {}

struct Pending<M> {
    due: Instant,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-due first.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

struct Shared<M> {
    table: Endpoints<M>,
    partitioned: Mutex<HashSet<Addr>>,
    /// One-shot faults: drop the next N messages addressed to an endpoint.
    drop_next: Mutex<HashMap<Addr, u32>>,
    queue: Mutex<BinaryHeap<Pending<M>>>,
    queue_cv: Condvar,
    stop: AtomicBool,
    /// Messages popped from the delay queue but not yet handed to their
    /// endpoint (keeps `quiesce` honest).
    in_flight: AtomicU64,
    next_seq: AtomicU64,
    model: LatencyModel,
    rng: Mutex<StdRng>,
    /// `net.*` counters in the recorder's registry; always on, whether or
    /// not span tracing is.
    sent: Counter,
    delivered: Counter,
    dropped: Counter,
    multicasts: Counter,
    recorder: Recorder,
}

impl<M> Shared<M> {
    /// Count `attempted` hand-overs to the table, `failed` of which failed.
    fn tally(&self, attempted: usize, failed: usize) {
        self.delivered.add((attempted - failed) as u64);
        self.dropped.add(failed as u64);
    }
}

/// The network fabric. Cheap to clone; the fabric thread (if any) stops when
/// the last clone is dropped.
pub struct Network<M: Send + Clone + 'static> {
    shared: Arc<Shared<M>>,
}

impl<M: Send + Clone + 'static> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network { shared: Arc::clone(&self.shared) }
    }
}

impl<M: Send + Clone + 'static> Network<M> {
    /// Create a fabric with the given latency model and RNG seed.
    pub fn new(model: LatencyModel, seed: u64) -> Self {
        Network::with_recorder(model, seed, Recorder::disabled())
    }

    /// Create a fabric whose counters register in `recorder`'s metrics
    /// registry (`net.*`) and whose fault injection writes flight events.
    pub fn with_recorder(model: LatencyModel, seed: u64, recorder: Recorder) -> Self {
        let shared = Arc::new(Shared {
            table: Endpoints::new(0),
            partitioned: Mutex::named("net.partitioned", HashSet::new()),
            drop_next: Mutex::named("net.drop_next", HashMap::new()),
            queue: Mutex::named("net.delay_queue", BinaryHeap::new()),
            queue_cv: Condvar::named("net.delay_cv"),
            stop: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            model,
            rng: Mutex::named("net.rng", StdRng::seed_from_u64(seed)),
            sent: recorder.metrics().counter("net.sent"),
            delivered: recorder.metrics().counter("net.delivered"),
            dropped: recorder.metrics().counter("net.dropped"),
            multicasts: recorder.metrics().counter("net.multicasts"),
            recorder,
        });
        if !model.is_instant() {
            let weak = Arc::downgrade(&shared);
            std::thread::Builder::new()
                .name("cn-fabric".to_string())
                .spawn(move || fabric_loop(weak))
                .expect("spawn fabric thread");
        }
        Network { shared }
    }

    /// Register a new endpoint; returns its address and receive channel.
    pub fn register(&self) -> (Addr, Receiver<Envelope<M>>) {
        self.shared.table.register()
    }

    /// Remove an endpoint (its receiver will see disconnection).
    pub fn unregister(&self, addr: Addr) {
        self.shared.table.unregister(addr)
    }

    /// Join a multicast group.
    pub fn join_group(&self, addr: Addr, group: GroupId) {
        self.shared.table.join(addr, group)
    }

    /// Unicast send.
    pub fn send(&self, from: Addr, to: Addr, msg: M) -> Result<(), SendError> {
        self.shared.sent.inc();
        if self.dropped_by_fault(from, to) {
            return Ok(()); // silently lost, like the wire
        }
        let env = Envelope { from, to, msg };
        if !self.shared.model.is_instant() {
            self.delay(env);
            return Ok(());
        }
        let result = self.shared.table.deliver(env);
        self.shared.tally(1, result.is_err() as usize);
        result
    }

    /// Multicast to every group member except the sender. Returns how many
    /// endpoints the message was addressed to.
    pub fn multicast(&self, from: Addr, group: GroupId, msg: M) -> usize {
        let mut members = self.shared.table.members(group, from);
        let count = members.len();
        self.shared.multicasts.inc();
        self.shared.sent.add(count as u64);
        members.retain(|&to| !self.dropped_by_fault(from, to));
        if self.shared.model.is_instant() {
            // Unknown/closed members are skipped (they left) and counted.
            let failed = self.shared.table.deliver_each(from, &members, msg).len();
            self.shared.tally(members.len(), failed);
        } else {
            for to in members {
                self.delay(Envelope { from, to, msg: msg.clone() });
            }
        }
        count
    }

    fn dropped_by_fault(&self, from: Addr, to: Addr) -> bool {
        let rec = &self.shared.recorder;
        {
            let parts = self.shared.partitioned.lock();
            if parts.contains(&from) || parts.contains(&to) {
                self.shared.dropped.inc();
                rec.event_with(Severity::Warn, "net", None, || {
                    format!("partition dropped {from} -> {to}")
                });
                return true;
            }
        }
        {
            let mut drops = self.shared.drop_next.lock();
            if let Some(n) = drops.get_mut(&to) {
                if *n > 0 {
                    *n -= 1;
                    if *n == 0 {
                        drops.remove(&to);
                    }
                    self.shared.dropped.inc();
                    rec.event_with(Severity::Warn, "net", None, || {
                        format!("injected drop of {from} -> {to}")
                    });
                    return true;
                }
            }
        }
        if self.shared.model.drop_rate > 0.0 {
            let roll: f64 = self.shared.rng.lock().gen();
            if roll < self.shared.model.drop_rate {
                self.shared.dropped.inc();
                rec.event_with(Severity::Info, "net", None, || {
                    format!("lossy wire dropped {from} -> {to}")
                });
                return true;
            }
        }
        false
    }

    /// Queue `env` for the fabric thread, due `base ± jitter` from now.
    fn delay(&self, env: Envelope<M>) {
        let extra = if self.shared.model.jitter.is_zero() {
            Duration::ZERO
        } else {
            let nanos = self.shared.model.jitter.as_nanos() as u64;
            Duration::from_nanos(self.shared.rng.lock().gen_range(0..=nanos))
        };
        let due = Instant::now() + self.shared.model.base + extra;
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        self.shared.queue.lock().push(Pending { due, seq, env });
        self.shared.queue_cv.notify_one();
    }

    /// Partition an endpoint: all traffic to/from it is dropped until
    /// [`Network::heal`].
    pub fn partition(&self, addr: Addr) {
        self.shared.partitioned.lock().insert(addr);
        self.shared
            .recorder
            .event_with(Severity::Warn, "fault", None, || format!("partitioned {addr}"));
    }

    /// Heal a partition.
    pub fn heal(&self, addr: Addr) {
        self.shared.partitioned.lock().remove(&addr);
        self.shared.recorder.event_with(Severity::Info, "fault", None, || format!("healed {addr}"));
    }

    /// Heal every partition (used before orderly shutdown, so control
    /// messages can reach partitioned endpoints again).
    pub fn heal_all(&self) {
        self.shared.partitioned.lock().clear();
        self.shared.drop_next.lock().clear();
    }

    /// One-shot fault injection: silently drop the next `n` messages
    /// addressed to `addr` (then deliver normally again).
    pub fn drop_next(&self, addr: Addr, n: u32) {
        if n > 0 {
            self.shared.drop_next.lock().insert(addr, n);
            self.shared.recorder.event_with(Severity::Warn, "fault", None, || {
                format!("armed drop of next {n} messages to {addr}")
            });
        }
    }

    /// The observability handle this fabric records into.
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// Block until the delayed-delivery queue is empty (no-op for instant
    /// fabrics). Useful in tests with latency.
    pub fn quiesce(&self) {
        if self.shared.model.is_instant() {
            return;
        }
        loop {
            if self.shared.queue.lock().is_empty()
                && self.shared.in_flight.load(Ordering::Relaxed) == 0
            {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl<M: Send + Clone + 'static> Drop for Network<M> {
    fn drop(&mut self) {
        // Last clone going away: wake the fabric thread so it can exit.
        if Arc::strong_count(&self.shared) == 1 {
            self.shared.stop.store(true, Ordering::Relaxed);
            self.shared.queue_cv.notify_all();
        }
    }
}

fn fabric_loop<M: Send + Clone + 'static>(weak: std::sync::Weak<Shared<M>>) {
    loop {
        let Some(shared) = weak.upgrade() else { return };
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let mut due_now = Vec::new();
        {
            let mut queue = shared.queue.lock();
            let now = Instant::now();
            while let Some(top) = queue.peek() {
                if top.due <= now {
                    // Counted while the queue lock is held so quiesce never
                    // observes "empty queue" with deliveries still pending.
                    shared.in_flight.fetch_add(1, Ordering::Relaxed);
                    due_now.push(queue.pop().expect("peeked").env);
                } else {
                    break;
                }
            }
            if due_now.is_empty() {
                let wait = queue
                    .peek()
                    .map(|p| p.due.saturating_duration_since(now))
                    .unwrap_or(Duration::from_millis(5));
                shared.queue_cv.wait_for(&mut queue, wait.min(Duration::from_millis(5)));
            }
        }
        if !due_now.is_empty() {
            let n = due_now.len();
            for env in due_now {
                shared.tally(1, shared.table.deliver(env).is_err() as usize);
            }
            shared.in_flight.fetch_sub(n as u64, Ordering::Relaxed);
        }
        // Release the Arc before looping so drop-detection can progress.
        drop(shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count<M: Send + Clone + 'static>(net: &Network<M>, counter: &str) -> u64 {
        net.recorder().counter(counter).get()
    }

    #[test]
    fn unicast_roundtrip() {
        let net: Network<u32> = Network::new(LatencyModel::zero(), 7);
        let (a, rx_a) = net.register();
        let (b, rx_b) = net.register();
        net.send(a, b, 42).unwrap();
        assert_eq!(rx_b.recv().unwrap(), Envelope { from: a, to: b, msg: 42 });
        net.send(b, a, 43).unwrap();
        assert_eq!(rx_a.recv().unwrap().msg, 43);
    }

    #[test]
    fn send_to_unknown_addr_fails() {
        let net: Network<u32> = Network::new(LatencyModel::zero(), 7);
        let (a, _rx) = net.register();
        assert_eq!(net.send(a, Addr(999), 1), Err(SendError::UnknownAddr(Addr(999))));
    }

    #[test]
    fn multicast_reaches_all_but_sender() {
        let net: Network<&'static str> = Network::new(LatencyModel::zero(), 7);
        let (a, rx_a) = net.register();
        let (b, rx_b) = net.register();
        let (c, rx_c) = net.register();
        for addr in [a, b, c] {
            net.join_group(addr, DISCOVERY_GROUP);
        }
        let n = net.multicast(a, DISCOVERY_GROUP, "who's willing?");
        assert_eq!(n, 2);
        assert_eq!(rx_b.recv().unwrap().msg, "who's willing?");
        assert_eq!(rx_c.recv().unwrap().msg, "who's willing?");
        assert!(rx_a.try_recv().is_err());
    }

    #[test]
    fn partition_drops_traffic_then_heals() {
        let net: Network<u8> = Network::new(LatencyModel::zero(), 7);
        let (a, _rx_a) = net.register();
        let (b, rx_b) = net.register();
        net.partition(b);
        net.send(a, b, 1).unwrap();
        assert!(rx_b.try_recv().is_err());
        net.heal(b);
        net.send(a, b, 2).unwrap();
        assert_eq!(rx_b.recv().unwrap().msg, 2);
        assert_eq!(count(&net, "net.dropped"), 1);
        assert_eq!(count(&net, "net.delivered"), 1);
    }

    #[test]
    fn latency_delays_but_delivers() {
        let model =
            LatencyModel { base: Duration::from_millis(5), jitter: Duration::ZERO, drop_rate: 0.0 };
        let net: Network<u8> = Network::new(model, 7);
        let (a, _rx_a) = net.register();
        let (b, rx_b) = net.register();
        let start = Instant::now();
        net.send(a, b, 9).unwrap();
        let env = rx_b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(env.msg, 9);
        assert!(start.elapsed() >= Duration::from_millis(4), "delivered too early");
    }

    #[test]
    fn latency_delays_multicasts_too() {
        let model =
            LatencyModel { base: Duration::from_millis(5), jitter: Duration::ZERO, drop_rate: 0.0 };
        let net: Network<u8> = Network::new(model, 7);
        let (a, _rx_a) = net.register();
        let members: Vec<_> = (0..2).map(|_| net.register()).collect();
        members.iter().for_each(|(addr, _)| net.join_group(*addr, DISCOVERY_GROUP));
        assert_eq!(net.multicast(a, DISCOVERY_GROUP, 9), 2);
        for (_, rx) in &members {
            assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap().msg, 9);
        }
        net.quiesce();
        assert_eq!(count(&net, "net.delivered"), 2);
    }

    #[test]
    fn latency_preserves_order_for_equal_delays() {
        let model =
            LatencyModel { base: Duration::from_millis(2), jitter: Duration::ZERO, drop_rate: 0.0 };
        let net: Network<u32> = Network::new(model, 7);
        let (a, _rx_a) = net.register();
        let (b, rx_b) = net.register();
        for i in 0..20 {
            net.send(a, b, i).unwrap();
        }
        for i in 0..20 {
            assert_eq!(rx_b.recv_timeout(Duration::from_secs(2)).unwrap().msg, i);
        }
    }

    #[test]
    fn drop_rate_is_deterministic_per_seed() {
        let loses = |seed: u64| -> Vec<bool> {
            let net: Network<u8> = Network::new(LatencyModel::zero().with_drop_rate(0.5), seed);
            let (a, _rx_a) = net.register();
            let (b, rx_b) = net.register();
            (0..32)
                .map(|_| {
                    net.send(a, b, 0).unwrap();
                    rx_b.try_recv().is_err()
                })
                .collect()
        };
        assert_eq!(loses(42), loses(42));
        assert_ne!(loses(42), loses(43), "different seeds should differ");
    }

    #[test]
    fn metrics_count_sends_and_multicasts() {
        let net: Network<u8> = Network::new(LatencyModel::zero(), 7);
        let (a, _rx_a) = net.register();
        let (b, _rx_b) = net.register();
        net.join_group(a, DISCOVERY_GROUP);
        net.join_group(b, DISCOVERY_GROUP);
        net.send(a, b, 1).unwrap();
        net.multicast(a, DISCOVERY_GROUP, 2);
        assert_eq!(count(&net, "net.sent"), 2);
        assert_eq!(count(&net, "net.multicasts"), 1);
        assert_eq!(count(&net, "net.delivered"), 2);
    }

    #[test]
    fn drop_next_is_one_shot() {
        let net: Network<u8> = Network::new(LatencyModel::zero(), 7);
        let (a, _rx_a) = net.register();
        let (b, rx_b) = net.register();
        net.drop_next(b, 2);
        net.send(a, b, 1).unwrap();
        net.send(a, b, 2).unwrap();
        net.send(a, b, 3).unwrap();
        assert_eq!(rx_b.recv().unwrap().msg, 3);
        assert!(rx_b.try_recv().is_err());
        assert_eq!(count(&net, "net.dropped"), 2);
        // heal_all clears pending drop counters too.
        net.drop_next(b, 5);
        net.heal_all();
        net.send(a, b, 4).unwrap();
        assert_eq!(rx_b.recv().unwrap().msg, 4);
    }

    #[test]
    fn unregister_removes_from_groups() {
        let net: Network<u8> = Network::new(LatencyModel::zero(), 7);
        let (a, _rx) = net.register();
        net.join_group(a, GroupId(3));
        net.unregister(a);
        let (b, _rxb) = net.register();
        net.join_group(b, GroupId(3));
        assert_eq!(net.multicast(b, GroupId(3), 1), 0);
        assert_eq!(net.send(b, a, 1), Err(SendError::UnknownAddr(a)));
    }
}
