//! Message pump: the pending-queue / nested-wait machinery of the CNServer
//! event loop, extracted so `cn-check` can drive it under the model
//! checker without standing up a whole server.
//!
//! The invariant the pump maintains is that a nested wait ([`MsgPump::
//! wait_for`]) consumes *only* the envelope it was waiting for: everything
//! else that arrives meanwhile is stashed and replayed, in order, to the
//! main loop ([`MsgPump::next`]). Losing a stashed envelope loses a
//! protocol message — bids, acks, and task lifecycle events all ride the
//! same queue.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cn_cluster::{Addr, Envelope, DISCOVERY_GROUP};
use cn_sync::channel::Receiver;
use cn_wire::FabricHandle;

/// Multicast `solicitation` into the discovery group and collect the
/// answers to it — the one bid window of the runtime, used by the client
/// (JobManager bids) and the JobManager (TaskManager bids).
///
/// `answer` looks at each *new* message heard on `rx` and extracts an
/// answer to this solicitation, if it is one; every other envelope goes
/// to `other`. At most one answer per sender is kept.
/// The window closes when everyone the multicast addressed has answered,
/// if the fabric can say how many that is
/// ([`cn_wire::Fabric::multicast_is_exact`]); `window` is the upper bound,
/// paid for a peer that never answers (dead, partitioned, unwilling, busy
/// in a nested wait) and on a fabric whose reach is unknown.
pub fn solicit<M: Send + Clone + 'static, A>(
    net: &FabricHandle<M>,
    rx: &Receiver<Envelope<M>>,
    from: Addr,
    solicitation: M,
    window: Duration,
    mut answer: impl FnMut(&M) -> Option<A>,
    mut other: impl FnMut(Envelope<M>),
) -> Vec<A> {
    let addressed = net.multicast(from, DISCOVERY_GROUP, solicitation);
    let quorum = if net.multicast_is_exact() { addressed } else { usize::MAX };
    let deadline = Instant::now() + window;
    let mut answered: Vec<Addr> = Vec::new();
    let mut answers = Vec::new();
    while answered.len() < quorum {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        let Ok(env) = rx.recv_timeout(remaining) else { break };
        match answer(&env.msg) {
            Some(a) if !answered.contains(&env.from) => {
                answered.push(env.from);
                answers.push(a);
            }
            Some(_) => {}
            None => other(env),
        }
    }
    answers
}

/// Pending-queue wrapper around an endpoint's receive channel.
pub struct MsgPump<M> {
    rx: Receiver<Envelope<M>>,
    /// Envelopes stashed during nested waits, replayed FIFO.
    pending: VecDeque<Envelope<M>>,
}

impl<M> MsgPump<M> {
    pub fn new(rx: Receiver<Envelope<M>>) -> MsgPump<M> {
        MsgPump { rx, pending: VecDeque::new() }
    }

    /// Main-loop receive: pending envelopes first, then a blocking receive
    /// that also drains whatever arrived in the same coalesced batch (one
    /// wakeup services the whole flush). `None` means the channel
    /// disconnected.
    #[allow(clippy::should_implement_trait)] // blocking receive, not an Iterator
    pub fn next(&mut self) -> Option<Envelope<M>> {
        if let Some(env) = self.pending.pop_front() {
            return Some(env);
        }
        let env = self.rx.recv().ok()?;
        while let Ok(extra) = self.rx.try_recv() {
            self.pending.push_back(extra);
        }
        Some(env)
    }

    /// Nested receive: wait for an envelope matching `want`, stashing
    /// everything else for the main loop.
    pub fn wait_for(
        &mut self,
        deadline: Instant,
        mut want: impl FnMut(&M) -> bool,
    ) -> Option<Envelope<M>> {
        // The main loop drains coalesced batches into `pending`, so the
        // envelope we want may already be there.
        if let Some(pos) = self.pending.iter().position(|env| want(&env.msg)) {
            return self.pending.remove(pos);
        }
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            match self.rx.recv_timeout(remaining) {
                Ok(env) if want(&env.msg) => return Some(env),
                #[cfg(not(feature = "mutations"))]
                Ok(env) => self.pending.push_back(env),
                // Injected ordering bug for cn-check: a nested wait that
                // discards everything it wasn't waiting for. Any envelope
                // racing the awaited one is silently lost.
                #[cfg(feature = "mutations")]
                Ok(_) => {}
                Err(_) => return None,
            }
        }
    }

    /// [`solicit`] from inside the server loop: whatever the window hears
    /// that is not an answer is stashed for the main loop, in arrival order.
    pub fn solicit<A>(
        &mut self,
        net: &FabricHandle<M>,
        from: Addr,
        solicitation: M,
        window: Duration,
        answer: impl FnMut(&M) -> Option<A>,
    ) -> Vec<A>
    where
        M: Send + Clone + 'static,
    {
        let pending = &mut self.pending;
        solicit(net, &self.rx, from, solicitation, window, answer, |env| pending.push_back(env))
    }

    /// Pull every already-delivered envelope matching `pred` out of the
    /// pump (pending queue plus whatever sits unread in the channel),
    /// preserving arrival order among both the taken and the kept. Used by
    /// the server's fair-admission drain so deficit round-robin sees the
    /// whole burst of contending `CreateTask`s, not just the first arrival.
    pub fn take_matching(&mut self, mut pred: impl FnMut(&M) -> bool) -> Vec<Envelope<M>> {
        while let Ok(env) = self.rx.try_recv() {
            self.pending.push_back(env);
        }
        let mut taken = Vec::new();
        let mut kept = VecDeque::with_capacity(self.pending.len());
        for env in self.pending.drain(..) {
            if pred(&env.msg) {
                taken.push(env);
            } else {
                kept.push_back(env);
            }
        }
        self.pending = kept;
        taken
    }

    /// Number of stashed envelopes (diagnostic).
    pub fn stashed(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_cluster::{GroupId, LatencyModel, Network, SendError};
    use cn_wire::Fabric;

    /// Solicitations and bids carry the key they are about.
    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Solicit(u32),
        Bid(u32, &'static str),
        Other(u32),
    }

    fn bid_for(key: u32) -> impl FnMut(&Msg) -> Option<&'static str> {
        move |m| match m {
            Msg::Bid(k, who) if *k == key => Some(*who),
            _ => None,
        }
    }

    /// A zero-latency network with a solicitor and group members that never
    /// answer by themselves: tests queue the answers before the window
    /// opens, so nothing sleeps or races.
    struct Rig {
        net: Network<Msg>,
        me: Addr,
        pump: MsgPump<Msg>,
        peers: Vec<Addr>,
        _peer_rxs: Vec<Receiver<Envelope<Msg>>>,
    }

    fn rig(peers: usize) -> Rig {
        let net: Network<Msg> = Network::new(LatencyModel::zero(), 7);
        let (me, rx) = net.register();
        let (peers, _peer_rxs) = (0..peers)
            .map(|_| {
                let (addr, rx) = net.register();
                net.join_group(addr, DISCOVERY_GROUP);
                (addr, rx)
            })
            .unzip();
        Rig { net, me, pump: MsgPump::new(rx), peers, _peer_rxs }
    }

    #[test]
    fn window_closes_when_everyone_addressed_has_answered() {
        let Rig { net, me, mut pump, peers, _peer_rxs } = rig(3);
        for (p, who) in peers.iter().zip(["a", "b", "c"]) {
            net.send(*p, me, Msg::Bid(7, who)).unwrap();
        }
        let t0 = Instant::now();
        let bids =
            pump.solicit(&net.into(), me, Msg::Solicit(7), Duration::from_secs(1), bid_for(7));
        assert_eq!(bids, ["a", "b", "c"]);
        assert!(t0.elapsed() < Duration::from_millis(500), "{:?}", t0.elapsed());
    }

    #[test]
    fn a_silent_peer_costs_the_whole_window_and_no_more() {
        let Rig { net, me, mut pump, peers, _peer_rxs } = rig(3);
        net.send(peers[0], me, Msg::Bid(7, "a")).unwrap();
        net.send(peers[2], me, Msg::Bid(7, "c")).unwrap();
        let window = Duration::from_millis(40);
        let t0 = Instant::now();
        let bids = pump.solicit(&net.into(), me, Msg::Solicit(7), window, bid_for(7));
        assert_eq!(bids, ["a", "c"]);
        assert!(t0.elapsed() >= window, "{:?}", t0.elapsed());
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }

    #[test]
    fn only_distinct_answers_to_this_solicitation_count() {
        let Rig { net, me, mut pump, peers, _peer_rxs } = rig(2);
        net.send(peers[0], me, Msg::Other(1)).unwrap();
        net.send(peers[0], me, Msg::Bid(7, "a")).unwrap();
        net.send(peers[1], me, Msg::Bid(8, "late, for another task")).unwrap();
        net.send(peers[0], me, Msg::Bid(7, "a again")).unwrap();
        net.send(peers[1], me, Msg::Other(2)).unwrap();
        let window = Duration::from_millis(40);
        let t0 = Instant::now();
        let bids = pump.solicit(&net.into(), me, Msg::Solicit(7), window, bid_for(7));
        // Two peers were addressed and only one answered: neither its second
        // answer nor the other peer's answer to something else is quorum.
        assert_eq!(bids, ["a"]);
        assert!(t0.elapsed() >= window, "{:?}", t0.elapsed());
        // What was not an answer waits for the main loop, in arrival order.
        assert_eq!(pump.stashed(), 3);
        let stashed: Vec<Msg> = (0..3).map(|_| pump.next().unwrap().msg).collect();
        assert_eq!(stashed, [Msg::Other(1), Msg::Bid(8, "late, for another task"), Msg::Other(2)]);
    }

    /// A fabric that, like UDP multicast, cannot say whom it reached.
    struct Inexact(Network<Msg>);

    impl Fabric<Msg> for Inexact {
        fn register(&self) -> (Addr, Receiver<Envelope<Msg>>) {
            self.0.register()
        }
        fn unregister(&self, addr: Addr) {
            self.0.unregister(addr)
        }
        fn join_group(&self, addr: Addr, group: GroupId) {
            self.0.join_group(addr, group)
        }
        fn leave_group(&self, addr: Addr, group: GroupId) {
            self.0.leave_group(addr, group)
        }
        fn send(&self, from: Addr, to: Addr, msg: Msg) -> Result<(), SendError> {
            self.0.send(from, to, msg)
        }
        fn multicast(&self, from: Addr, group: GroupId, msg: Msg) -> usize {
            self.0.multicast(from, group, msg)
        }
        fn recorder(&self) -> &cn_observe::Recorder {
            self.0.recorder()
        }
        fn shared_memory(&self) -> bool {
            true
        }
    }

    #[test]
    fn unknown_reach_runs_the_full_window() {
        let Rig { net, me, mut pump, peers, _peer_rxs } = rig(2);
        net.send(peers[0], me, Msg::Bid(7, "a")).unwrap();
        net.send(peers[1], me, Msg::Bid(7, "b")).unwrap();
        let window = Duration::from_millis(40);
        let t0 = Instant::now();
        let bids =
            pump.solicit(&FabricHandle::new(Inexact(net)), me, Msg::Solicit(7), window, bid_for(7));
        assert_eq!(bids, ["a", "b"]);
        assert!(t0.elapsed() >= window, "{:?}", t0.elapsed());
    }
}
