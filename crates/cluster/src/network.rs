//! The virtual network fabric: unicast, multicast groups, injected faults.
//!
//! "Requests to JobManager are communicated using multicast. JobManagers
//! respond to multicast requests ... if they have free resources and are
//! willing" (paper Section 3). The fabric therefore supports multicast
//! groups natively; CNServers join the discovery group, clients multicast
//! into it.
//!
//! Endpoints and groups live in an [`Endpoints`] table, the one the socket
//! fabric delivers through too. Every message is handed over on the
//! sender's thread, so the simulated network is instant; real network
//! timing is what the socket fabric's multi-process cluster carries. What
//! the simulated network adds is loss: partitions and one-shot drops
//! injected by a test, and seeded random loss — deterministic for a fixed
//! seed and send order.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use cn_observe::{Counter, Recorder, Severity};
use cn_sync::channel::Receiver;
use cn_sync::Mutex;
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

/// Loss configuration. Delivery itself is always instant: a message is
/// handed to its endpoint on the sender's thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_rate: f64,
}

impl LatencyModel {
    /// Instant, lossless delivery.
    pub fn zero() -> Self {
        LatencyModel { drop_rate: 0.0 }
    }

    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate.clamp(0.0, 1.0);
        self
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

/// The injected faults, under one lock.
#[derive(Default)]
struct Faults {
    partitioned: HashSet<Addr>,
    /// One-shot faults: drop the next N messages addressed to an endpoint.
    drop_next: HashMap<Addr, u32>,
}

impl Faults {
    /// Whether a fault loses `from -> to`, and the words its flight event
    /// starts with; a one-shot drop is spent by the call.
    fn take(&mut self, from: Addr, to: Addr) -> Option<&'static str> {
        if self.partitioned.contains(&from) || self.partitioned.contains(&to) {
            return Some("partition dropped");
        }
        let left = self.drop_next.get_mut(&to)?;
        *left -= 1;
        if *left == 0 {
            self.drop_next.remove(&to);
        }
        Some("injected drop of")
    }
}

struct Shared<M> {
    table: Endpoints<M>,
    faults: Mutex<Faults>,
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

/// The network fabric. Cheap to clone: every clone shares one endpoint
/// table and one fault table.
pub struct Network<M: Send + Clone + 'static> {
    shared: Arc<Shared<M>>,
}

impl<M: Send + Clone + 'static> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network { shared: Arc::clone(&self.shared) }
    }
}

impl<M: Send + Clone + 'static> Network<M> {
    /// Create a fabric with the given loss model and the seed of its loss.
    pub fn new(model: LatencyModel, seed: u64) -> Self {
        Network::with_recorder(model, seed, Recorder::disabled())
    }

    /// Create a fabric whose counters register in `recorder`'s metrics
    /// registry (`net.*`) and whose fault injection writes flight events.
    pub fn with_recorder(model: LatencyModel, seed: u64, recorder: Recorder) -> Self {
        let shared = Arc::new(Shared {
            table: Endpoints::new(0),
            faults: Mutex::named("net.faults", Faults::default()),
            model,
            rng: Mutex::named("net.rng", StdRng::seed_from_u64(seed)),
            sent: recorder.metrics().counter("net.sent"),
            delivered: recorder.metrics().counter("net.delivered"),
            dropped: recorder.metrics().counter("net.dropped"),
            multicasts: recorder.metrics().counter("net.multicasts"),
            recorder,
        });
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
        let result = self.shared.table.deliver(Envelope { from, to, msg });
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
        // Unknown/closed members are skipped (they left) and counted.
        let failed = self.shared.table.deliver_each(from, &members, msg).len();
        self.shared.tally(members.len(), failed);
        count
    }

    /// Whether `from -> to` is lost to an injected fault or to seeded
    /// loss; a lost message is counted and leaves a flight event.
    fn dropped_by_fault(&self, from: Addr, to: Addr) -> bool {
        let model = &self.shared.model;
        let fault = self.shared.faults.lock().take(from, to);
        let (severity, what) = if let Some(what) = fault {
            (Severity::Warn, what)
        } else if model.drop_rate > 0.0 && self.shared.rng.lock().gen::<f64>() < model.drop_rate {
            (Severity::Info, "lossy wire dropped")
        } else {
            return false;
        };
        self.shared.dropped.inc();
        self.shared.recorder.event_with(severity, "net", None, || format!("{what} {from} -> {to}"));
        true
    }

    /// Partition an endpoint: all traffic to/from it is dropped until
    /// [`Network::heal`].
    pub fn partition(&self, addr: Addr) {
        self.shared.faults.lock().partitioned.insert(addr);
        self.shared
            .recorder
            .event_with(Severity::Warn, "fault", None, || format!("partitioned {addr}"));
    }

    /// Heal a partition.
    pub fn heal(&self, addr: Addr) {
        self.shared.faults.lock().partitioned.remove(&addr);
        self.shared.recorder.event_with(Severity::Info, "fault", None, || format!("healed {addr}"));
    }

    /// Heal every partition (used before orderly shutdown, so control
    /// messages can reach partitioned endpoints again).
    pub fn heal_all(&self) {
        let mut faults = self.shared.faults.lock();
        faults.partitioned.clear();
        faults.drop_next.clear();
    }

    /// One-shot fault injection: silently drop the next `n` messages
    /// addressed to `addr` (then deliver normally again).
    pub fn drop_next(&self, addr: Addr, n: u32) {
        if n > 0 {
            self.shared.faults.lock().drop_next.insert(addr, n);
            self.shared.recorder.event_with(Severity::Warn, "fault", None, || {
                format!("armed drop of next {n} messages to {addr}")
            });
        }
    }

    /// The observability handle this fabric records into.
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
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
