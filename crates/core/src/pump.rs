//! Message pump and bid window: the receive side of every endpoint the
//! runtime reads — the CNServer event loop, tasks, clients — and the one
//! solicitation window, extracted so `cn-check` can drive the pump under the
//! model checker without standing up a whole server.
//!
//! The server never waits inside a handler: an open bid window or an
//! outstanding assignment is a deadline of its placement round that its
//! loop receives against ([`MsgPump::next_before`]). Envelopes leave
//! arrival order in two places: [`MsgPump::take_matching`], which pulls a
//! burst's `CreateTask`s forward for fair admission, and
//! [`MsgPump::next_matching`], the selective receive tasks and clients wait
//! on (a client's bid window, [`MsgPump::solicit`], too). Everything either
//! passes over must still come out of [`MsgPump::next`], in order. Losing
//! one loses a protocol message — bids, acks, and task lifecycle events all
//! ride the same queue.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cn_cluster::{Addr, Envelope, DISCOVERY_GROUP};
use cn_sync::channel::{Receiver, RecvTimeoutError};
use cn_wire::FabricHandle;

/// One solicitation's bid window: who was addressed, who has answered, and
/// the bound. It closes when everyone the multicast addressed has answered,
/// if the fabric can say how many that is
/// ([`cn_wire::Fabric::multicast_is_exact`]); the deadline is the upper
/// bound, paid for a peer that never answers (dead, partitioned, unwilling)
/// and on a fabric whose reach is unknown. A pure value: the client sits in
/// its window ([`MsgPump::solicit`]); the server's placement round holds its
/// own (`placement::Round`), whose deadline the server's loop receives against.
#[derive(Debug)]
pub struct Window {
    quorum: usize,
    answered: Vec<Addr>,
    deadline: Instant,
}

impl Window {
    /// A window that closes on `quorum` distinct answers, or at `deadline`.
    pub fn new(quorum: usize, deadline: Instant) -> Window {
        Window { quorum, answered: Vec::new(), deadline }
    }

    /// Multicast `solicitation` into the discovery group and open its
    /// window, at most `bound` long.
    pub fn open<M: Send + Clone + 'static>(
        net: &FabricHandle<M>,
        from: Addr,
        solicitation: M,
        bound: Duration,
    ) -> Window {
        let addressed = net.multicast(from, DISCOVERY_GROUP, solicitation);
        let quorum = if net.multicast_is_exact() { addressed } else { usize::MAX };
        Window::new(quorum, Instant::now() + bound)
    }

    /// Count an answer from `from`. `false` for a sender that has answered
    /// already: at most one answer per sender is kept.
    pub fn admit(&mut self, from: Addr) -> bool {
        let new = !self.answered.contains(&from);
        if new {
            self.answered.push(from);
        }
        new
    }

    /// Everyone the solicitation addressed has answered.
    pub fn is_complete(&self) -> bool {
        self.answered.len() >= self.quorum
    }

    pub fn deadline(&self) -> Instant {
        self.deadline
    }
}

/// Pending-queue wrapper around an endpoint's receive channel — the one
/// receive side of the runtime: the server's loop, every task's
/// [`crate::TaskContext`] and every client's [`crate::JobHandle`] read
/// through one.
pub struct MsgPump<M> {
    rx: Receiver<Envelope<M>>,
    /// Envelopes read ahead of their receive (a coalesced batch, or what a
    /// selective receive passed over), replayed FIFO.
    pending: VecDeque<Envelope<M>>,
}

impl<M> MsgPump<M> {
    pub fn new(rx: Receiver<Envelope<M>>) -> MsgPump<M> {
        MsgPump { rx, pending: VecDeque::new() }
    }

    /// Blocking receive: pending envelopes first, then the channel. `None`
    /// means the channel disconnected.
    #[allow(clippy::should_implement_trait)] // blocking receive, not an Iterator
    pub fn next(&mut self) -> Option<Envelope<M>> {
        self.next_before(None).ok()
    }

    /// [`MsgPump::next`] that gives up at `deadline`, so the loop can act on
    /// a timer (a bid window's bound, an assignment's timeout) between
    /// envelopes instead of waiting inside a handler.
    pub fn next_before(
        &mut self,
        deadline: Option<Instant>,
    ) -> Result<Envelope<M>, RecvTimeoutError> {
        self.next_matching(deadline, |_| true)
    }

    /// Selective receive: the first envelope, in arrival order, that `pred`
    /// accepts. What it passes over stays pending, in order, for later
    /// receives. It blocks only for envelopes it has not looked at yet, and
    /// each wake-up also drains whatever arrived in the same coalesced batch
    /// (one wake-up services the whole flush).
    pub fn next_matching(
        &mut self,
        deadline: Option<Instant>,
        mut pred: impl FnMut(&M) -> bool,
    ) -> Result<Envelope<M>, RecvTimeoutError> {
        let mut looked = 0;
        loop {
            let found = self.pending.range(looked..).position(|env| pred(&env.msg));
            if let Some(env) = found.and_then(|i| self.pending.remove(looked + i)) {
                return Ok(env);
            }
            looked = self.pending.len();
            let env = match deadline {
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected)?,
                Some(deadline) => {
                    self.rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))?
                }
            };
            self.pending.push_back(env);
            while let Ok(extra) = self.rx.try_recv() {
                self.pending.push_back(extra);
            }
        }
    }

    /// Multicast `solicitation` and sit in its [`Window`] — how the client
    /// collects JobManager bids. `answer` extracts an answer to this
    /// solicitation from a message, if it is one; anything else stays pending
    /// for later receives.
    pub fn solicit<A>(
        &mut self,
        net: &FabricHandle<M>,
        from: Addr,
        solicitation: M,
        window: Duration,
        mut answer: impl FnMut(&M) -> Option<A>,
    ) -> Vec<A>
    where
        M: Send + Clone + 'static,
    {
        let mut window = Window::open(net, from, solicitation, window);
        let mut answers = Vec::new();
        while !window.is_complete() {
            let mut heard = None;
            let is_answer = |m: &M| {
                heard = answer(m);
                heard.is_some()
            };
            let Ok(env) = self.next_matching(Some(window.deadline), is_answer) else { break };
            answers.extend(heard.filter(|_| window.admit(env.from)));
        }
        answers
    }

    /// Pull every already-delivered envelope matching `pred` out of the
    /// pump (pending queue plus whatever sits unread in the channel),
    /// preserving arrival order among both the taken and the kept. Used by
    /// the server when a placement round starts, so deficit round-robin sees
    /// the whole burst of contending `CreateTask`s, not just the first
    /// arrival.
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
        // Injected ordering bug for cn-check: a drain that forgets what it
        // passed over. Any envelope that raced the burst is silently lost.
        #[cfg(feature = "mutations")]
        kept.clear();
        self.pending = kept;
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_cluster::{GroupId, LatencyModel, Network, SendError};
    use cn_wire::Fabric;
    use std::sync::Arc;

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
        net: FabricHandle<Msg>,
        me: Addr,
        rx: Receiver<Envelope<Msg>>,
        peers: Vec<Addr>,
        _peer_rxs: Vec<Receiver<Envelope<Msg>>>,
    }

    fn rig(peers: usize) -> Rig {
        let net: FabricHandle<Msg> = Arc::new(Network::new(LatencyModel::zero(), 7));
        let (me, rx) = net.register();
        let (peers, _peer_rxs) = (0..peers)
            .map(|_| {
                let (addr, rx) = net.register();
                net.join_group(addr, DISCOVERY_GROUP);
                (addr, rx)
            })
            .unzip();
        Rig { net, me, rx, peers, _peer_rxs }
    }

    #[test]
    fn window_closes_when_everyone_addressed_has_answered() {
        let Rig { net, me, rx, peers, _peer_rxs } = rig(3);
        for (p, who) in peers.iter().zip(["a", "b", "c"]) {
            net.send(*p, me, Msg::Bid(7, who)).unwrap();
        }
        let t0 = Instant::now();
        let bids =
            MsgPump::new(rx).solicit(&net, me, Msg::Solicit(7), Duration::from_secs(1), bid_for(7));
        assert_eq!(bids, ["a", "b", "c"]);
        assert!(t0.elapsed() < Duration::from_millis(500), "{:?}", t0.elapsed());
    }

    #[test]
    fn a_silent_peer_costs_the_whole_window_and_no_more() {
        let Rig { net, me, rx, peers, _peer_rxs } = rig(3);
        net.send(peers[0], me, Msg::Bid(7, "a")).unwrap();
        net.send(peers[2], me, Msg::Bid(7, "c")).unwrap();
        let window = Duration::from_millis(40);
        let t0 = Instant::now();
        let bids = MsgPump::new(rx).solicit(&net, me, Msg::Solicit(7), window, bid_for(7));
        assert_eq!(bids, ["a", "c"]);
        assert!(t0.elapsed() >= window, "{:?}", t0.elapsed());
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }

    #[test]
    fn only_distinct_answers_to_this_solicitation_count() {
        let Rig { net, me, rx, peers, _peer_rxs } = rig(2);
        net.send(peers[0], me, Msg::Other(1)).unwrap();
        net.send(peers[0], me, Msg::Bid(7, "a")).unwrap();
        net.send(peers[1], me, Msg::Bid(8, "late, for another task")).unwrap();
        net.send(peers[0], me, Msg::Bid(7, "a again")).unwrap();
        net.send(peers[1], me, Msg::Other(2)).unwrap();
        let window = Duration::from_millis(40);
        let t0 = Instant::now();
        let mut pump = MsgPump::new(rx);
        let bids = pump.solicit(&net, me, Msg::Solicit(7), window, bid_for(7));
        // Two peers were addressed and only one answered: neither its second
        // answer nor the other peer's answer to something else is quorum.
        assert_eq!(bids, ["a"]);
        assert!(t0.elapsed() >= window, "{:?}", t0.elapsed());
        // What is not an answer stays for later receives, in order.
        assert_eq!(pump.next().unwrap().msg, Msg::Other(1));
        assert_eq!(pump.next().unwrap().msg, Msg::Bid(8, "late, for another task"));
        assert_eq!(pump.next().unwrap().msg, Msg::Other(2));
    }

    #[test]
    fn the_pump_hands_out_what_a_sweep_passed_over_in_arrival_order() {
        let Rig { net, me, rx, peers, _peer_rxs } = rig(1);
        let mut pump = MsgPump::new(rx);
        for msg in [Msg::Other(1), Msg::Bid(7, "a"), Msg::Other(2), Msg::Bid(8, "b"), Msg::Other(3)]
        {
            net.send(peers[0], me, msg).unwrap();
        }
        // The main loop's receive reads the batch ahead; the sweep then looks
        // at both what was read ahead and what still sits in the channel.
        assert_eq!(pump.next().unwrap().msg, Msg::Other(1));
        net.send(peers[0], me, Msg::Bid(9, "c")).unwrap();
        let swept: Vec<Msg> = pump
            .take_matching(|m| matches!(m, Msg::Bid(..)))
            .into_iter()
            .map(|env| env.msg)
            .collect();
        assert_eq!(swept, [Msg::Bid(7, "a"), Msg::Bid(8, "b"), Msg::Bid(9, "c")]);
        let soon = Some(Instant::now() + Duration::from_secs(1));
        assert_eq!(pump.next_before(soon).unwrap().msg, Msg::Other(2));
        assert_eq!(pump.next().unwrap().msg, Msg::Other(3));
        // Nothing left: a deadline-bound receive gives up at its deadline.
        let t0 = Instant::now();
        let err = pump.next_before(Some(t0 + Duration::from_millis(20))).unwrap_err();
        assert_eq!(err, RecvTimeoutError::Timeout);
        assert!(t0.elapsed() >= Duration::from_millis(20), "{:?}", t0.elapsed());

        // A selective receive takes the first match in arrival order, across
        // what was read ahead and what still sits in the channel.
        for msg in [Msg::Other(4), Msg::Bid(1, "x"), Msg::Other(5), Msg::Bid(2, "y")] {
            net.send(peers[0], me, msg).unwrap();
        }
        assert_eq!(pump.next().unwrap().msg, Msg::Other(4));
        net.send(peers[0], me, Msg::Other(6)).unwrap();
        let bid = |m: &Msg| matches!(m, Msg::Bid(..));
        assert_eq!(pump.next_matching(soon, bid).unwrap().msg, Msg::Bid(1, "x"));
        let six = |m: &Msg| *m == Msg::Other(6);
        assert_eq!(pump.next_matching(soon, six).unwrap().msg, Msg::Other(6));
        // Nothing new matches: it returns at its deadline, keeping what it saw.
        let t0 = Instant::now();
        let never = |m: &Msg| *m == Msg::Solicit(0);
        let err = pump.next_matching(Some(t0 + Duration::from_millis(20)), never).unwrap_err();
        assert_eq!(err, RecvTimeoutError::Timeout);
        assert!(t0.elapsed() >= Duration::from_millis(20), "{:?}", t0.elapsed());
        // What the selective receives passed over comes out of `next`, in order.
        assert_eq!(pump.next().unwrap().msg, Msg::Other(5));
        assert_eq!(pump.next().unwrap().msg, Msg::Bid(2, "y"));
    }

    /// A fabric that, like UDP multicast, cannot say whom it reached.
    struct Inexact(FabricHandle<Msg>);

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
        fn send(&self, from: Addr, to: Addr, msg: Msg) -> Result<(), SendError> {
            self.0.send(from, to, msg)
        }
        fn multicast(&self, from: Addr, group: GroupId, msg: Msg) -> usize {
            self.0.multicast(from, group, msg)
        }
        fn recorder(&self) -> &cn_observe::Recorder {
            self.0.recorder()
        }
    }

    #[test]
    fn unknown_reach_runs_the_full_window() {
        let Rig { net, me, rx, peers, _peer_rxs } = rig(2);
        net.send(peers[0], me, Msg::Bid(7, "a")).unwrap();
        net.send(peers[1], me, Msg::Bid(7, "b")).unwrap();
        let window = Duration::from_millis(40);
        let t0 = Instant::now();
        let net: FabricHandle<Msg> = Arc::new(Inexact(net));
        let bids = MsgPump::new(rx).solicit(&net, me, Msg::Solicit(7), window, bid_for(7));
        assert_eq!(bids, ["a", "b"]);
        assert!(t0.elapsed() >= window, "{:?}", t0.elapsed());
    }
}
