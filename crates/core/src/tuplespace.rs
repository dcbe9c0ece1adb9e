//! Tuple-space coordination.
//!
//! "CN also supports communication via tuple spaces" (paper Section 2,
//! parenthetical). This is the classic Linda model: `out` deposits a tuple,
//! `rd` copies a matching tuple, `in` (`take`) removes one. One space exists
//! per job, and its JobManager holds it ([`HeldSpace`]). Every task and the
//! client reach it the same way, by messages (`TupleOut`, `TupleAsk`,
//! `TupleGive`), through a [`Space`] handle.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use cn_cluster::Addr;
use cn_observe::Counter;
use cn_sync::Mutex;

use crate::endpoint::{deadline, is_stop, Endpoint};
use crate::message::NetMsg;

/// One field of a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    I(i64),
    F(f64),
    S(String),
    B(Vec<u8>),
}

impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::I(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::S(v.to_string())
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F(v)
    }
}

/// A tuple: a non-empty sequence of fields.
pub type Tuple = Vec<Field>;

/// A match pattern: `Some(field)` matches exactly, `None` is a wildcard.
pub type Pattern = Vec<Option<Field>>;

/// Build a pattern from exact fields (no wildcards).
pub fn exact(fields: &[Field]) -> Pattern {
    fields.iter().cloned().map(Some).collect()
}

fn matches(tuple: &Tuple, pattern: &Pattern) -> bool {
    tuple.len() == pattern.len()
        && tuple.iter().zip(pattern).all(|(f, p)| match p {
            Some(want) => f == want,
            None => true,
        })
}

/// A Linda-style tuple store: the tuples of one job's space.
///
/// Tuples are bucketed by arity: a pattern can only match tuples of its own
/// length, so a read scans one bucket instead of the whole space. The store
/// never waits: what no tuple answers yet is parked by the [`HeldSpace`]
/// around it.
#[derive(Debug)]
pub struct TupleSpace {
    buckets: Mutex<HashMap<usize, VecDeque<Tuple>>>,
    /// Operation counters (`out` / `rd`-family / `in`-family). Standalone
    /// atomics by default; [`TupleSpace::with_counters`] shares them with a
    /// metrics registry.
    out_ops: Counter,
    rd_ops: Counter,
    in_ops: Counter,
}

impl Default for TupleSpace {
    fn default() -> Self {
        Self::with_counters(Counter::standalone(), Counter::standalone(), Counter::standalone())
    }
}

impl TupleSpace {
    pub fn new() -> Self {
        Self::default()
    }

    /// A space whose operation counters are shared (e.g. registry-backed).
    pub fn with_counters(out_ops: Counter, rd_ops: Counter, in_ops: Counter) -> Self {
        Self { buckets: Mutex::named("ts.buckets", HashMap::new()), out_ops, rd_ops, in_ops }
    }

    /// Deposit a tuple (`out` in Linda terms).
    pub fn out(&self, tuple: Tuple) {
        assert!(!tuple.is_empty(), "tuples must be non-empty");
        self.out_ops.inc();
        self.buckets.lock().entry(tuple.len()).or_default().push_back(tuple);
    }

    /// Non-blocking read: copy a matching tuple if present.
    pub fn try_rd(&self, pattern: &Pattern) -> Option<Tuple> {
        self.rd_ops.inc();
        let buckets = self.buckets.lock();
        buckets.get(&pattern.len())?.iter().find(|t| matches(t, pattern)).cloned()
    }

    /// Non-blocking take: remove and return a matching tuple if present.
    pub fn try_in(&self, pattern: &Pattern) -> Option<Tuple> {
        self.in_ops.inc();
        let mut buckets = self.buckets.lock();
        let bucket = buckets.get_mut(&pattern.len())?;
        let pos = bucket.iter().position(|t| matches(t, pattern))?;
        bucket.remove(pos)
    }

    /// Number of tuples currently in the space.
    pub fn len(&self) -> usize {
        self.buckets.lock().values().map(VecDeque::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An ask no tuple has answered yet.
#[derive(Debug)]
struct Ask {
    pattern: Pattern,
    take: bool,
    reply_to: Addr,
}

/// A job's space as its JobManager holds it, from `CreateJob` until the
/// job ends: the tuples, and the asks that nothing matched yet. Each asker
/// blocks on one ask at a time, so a new ask from an endpoint replaces the
/// one it left parked (that one timed out): the parked asks are bounded by
/// the job's endpoints.
#[derive(Debug)]
pub struct HeldSpace {
    space: TupleSpace,
    /// In arrival order.
    parked: Vec<Ask>,
}

impl HeldSpace {
    pub fn new(space: TupleSpace) -> HeldSpace {
        HeldSpace { space, parked: Vec::new() }
    }

    /// Deposit `tuple`, serving the parked asks it matches in arrival
    /// order: every `rd`, then at most one `take`, which removes it. Returns
    /// who gets which tuple.
    pub fn out(&mut self, tuple: Tuple) -> Vec<(Addr, Tuple)> {
        let mut gives = Vec::new();
        let mut taker = None;
        self.parked.retain(|ask| {
            if !matches(&tuple, &ask.pattern) || (ask.take && taker.is_some()) {
                return true;
            }
            if ask.take {
                taker = Some(ask.reply_to);
            } else {
                gives.push((ask.reply_to, tuple.clone()));
            }
            false
        });
        match taker {
            Some(to) => {
                self.space.out_ops.inc();
                gives.push((to, tuple));
            }
            None => self.space.out(tuple),
        }
        gives
    }

    /// Answer an ask from `reply_to` now, or park it in place of the one
    /// that endpoint left parked.
    pub fn ask(&mut self, pattern: Pattern, take: bool, reply_to: Addr) -> Option<Tuple> {
        self.parked.retain(|ask| ask.reply_to != reply_to);
        let found = if take { self.space.try_in(&pattern) } else { self.space.try_rd(&pattern) };
        if found.is_none() {
            self.parked.push(Ask { pattern, take, reply_to });
        }
        found
    }

    /// Asks waiting for a tuple.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Tuples in the space.
    pub fn len(&self) -> usize {
        self.space.len()
    }

    pub fn is_empty(&self) -> bool {
        self.space.is_empty()
    }
}

/// A job's space as a task ([`crate::TaskContext::tuplespace`]) or the
/// client ([`crate::JobHandle::tuplespace`]) reaches it: every operation is
/// a message to the job's JobManager, which holds the space, whether it is
/// on another server or on this one. A blocking `rd`/`take` sends one ask
/// and waits on the endpoint's own queue for the tuple; what else arrives
/// meanwhile stays queued for the endpoint's next receive.
pub struct Space<'a>(pub(crate) &'a mut Endpoint);

impl Space<'_> {
    /// Deposit a tuple (`out` in Linda terms). A deposit that cannot reach
    /// the JobManager is lost with the job, whose next protocol step
    /// reports the failure.
    pub fn out(&self, tuple: Tuple) {
        assert!(!tuple.is_empty(), "tuples must be non-empty");
        let _ = self.0.to_jm(NetMsg::TupleOut { job: self.0.job, tuple });
    }

    /// Blocking read with timeout: a copy of a matching tuple.
    pub fn rd(&mut self, pattern: &Pattern, timeout: Duration) -> Option<Tuple> {
        self.ask(pattern, false, timeout)
    }

    /// Blocking take with timeout: a matching tuple, removed from the space.
    pub fn take(&mut self, pattern: &Pattern, timeout: Duration) -> Option<Tuple> {
        self.ask(pattern, true, timeout)
    }

    /// Send one ask and wait for its tuple. `None` at the deadline, or when
    /// the endpoint is told to shut down.
    fn ask(&mut self, pattern: &Pattern, take: bool, timeout: Duration) -> Option<Tuple> {
        let (job, deadline) = (self.0.job, deadline(timeout));
        // A tuple given after an earlier ask timed out is dropped: the
        // JobManager replaces that ask with this one.
        self.0.pump.take_matching(|m| matches!(m, NetMsg::TupleGive { job: j, .. } if *j == job));
        let ask = NetMsg::TupleAsk { job, pattern: pattern.clone(), take, reply_to: self.0.addr };
        self.0.to_jm(ask).ok()?;
        let answer = |m: &NetMsg| {
            is_stop(m)
                || matches!(m, NetMsg::TupleGive { job: j, tuple } if *j == job && matches(tuple, pattern))
        };
        let given = self.0.recv(deadline, answer, |m| match m {
            NetMsg::TupleGive { tuple, .. } => Some(Some(tuple)),
            _ => Some(None),
        });
        given.ok()?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::tests::one_of_each;
    use crate::message::JobId;
    use cn_cluster::{Envelope, LatencyModel, Network};
    use cn_sync::channel::Receiver;
    use cn_wire::FabricHandle;
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn out_rd_in_basics() {
        let ts = TupleSpace::new();
        ts.out(vec![Field::S("row".into()), Field::I(3), Field::B(vec![1, 2])]);
        let pat: Pattern = vec![Some(Field::S("row".into())), Some(Field::I(3)), None];
        let copy = ts.try_rd(&pat).unwrap();
        assert_eq!(copy[2], Field::B(vec![1, 2]));
        assert_eq!(ts.len(), 1, "rd does not remove");
        let taken = ts.try_in(&pat).unwrap();
        assert_eq!(taken, copy);
        assert!(ts.is_empty());
        assert!(ts.try_in(&pat).is_none());
    }

    #[test]
    fn wildcards_match_any_value() {
        let ts = TupleSpace::new();
        ts.out(vec![Field::S("k".into()), Field::I(1)]);
        ts.out(vec![Field::S("k".into()), Field::I(2)]);
        let pat: Pattern = vec![Some(Field::S("k".into())), None];
        assert!(ts.try_rd(&pat).is_some());
        // Arity must match exactly.
        let wrong_arity: Pattern = vec![Some(Field::S("k".into()))];
        assert!(ts.try_rd(&wrong_arity).is_none());
    }

    /// A JobManager's part, played by hand: one job's held space, serving
    /// what reaches `rx` until a `Shutdown`.
    fn serve(net: FabricHandle<NetMsg>, me: Addr, rx: Receiver<Envelope<NetMsg>>) {
        let mut held = HeldSpace::new(TupleSpace::new());
        while let Ok(env) = rx.recv() {
            let gives = match env.msg {
                NetMsg::TupleOut { tuple, .. } => held.out(tuple),
                NetMsg::TupleAsk { pattern, take, reply_to, .. } => {
                    held.ask(pattern, take, reply_to).map(|t| (reply_to, t)).into_iter().collect()
                }
                _ => return,
            };
            for (to, tuple) in gives {
                net.send(me, to, NetMsg::TupleGive { job: JobId(1), tuple }).unwrap();
            }
        }
    }

    /// A network with a JobManager, and an endpoint to ask from.
    struct Rig {
        net: FabricHandle<NetMsg>,
        jm: Addr,
        ep: Endpoint,
    }

    /// An endpoint of job 1 on `net`, whose JobManager is `jm`.
    fn endpoint(net: &FabricHandle<NetMsg>, jm: Addr) -> Endpoint {
        let (me, rx) = net.register();
        Endpoint::for_task(JobId(1), net, me, jm, rx, HashMap::new())
    }

    impl Rig {
        /// The JobManager's receive side, for the test to play it.
        fn new() -> (Rig, Receiver<Envelope<NetMsg>>) {
            let net: FabricHandle<NetMsg> = Arc::new(Network::new(LatencyModel::zero(), 1));
            let (jm, jm_rx) = net.register();
            let ep = endpoint(&net, jm);
            (Rig { net, jm, ep }, jm_rx)
        }

        fn space(&mut self) -> Space<'_> {
            Space(&mut self.ep)
        }
    }

    #[test]
    fn blocking_take_wakes_on_out() {
        let (mut rig, jm_rx) = Rig::new();
        let (net, jm) = (Arc::clone(&rig.net), rig.jm);
        let serving = std::thread::spawn({
            let net = Arc::clone(&net);
            move || serve(net, jm, jm_rx)
        });
        let producer = std::thread::spawn(move || {
            let mut ep = endpoint(&net, jm);
            std::thread::sleep(Duration::from_millis(20));
            Space(&mut ep).out(vec![Field::I(42)]);
        });
        // Other traffic waits its turn; the tuple is the answer.
        rig.net.send(rig.jm, rig.ep.addr, NetMsg::StartJob { job: JobId(1) }).unwrap();
        let got = rig.space().take(&vec![None], Duration::from_secs(2)).unwrap();
        assert_eq!(got, vec![Field::I(42)]);
        assert_eq!(rig.ep.pump.next().unwrap().msg, NetMsg::StartJob { job: JobId(1) });
        producer.join().unwrap();
        rig.net.send(rig.ep.addr, rig.jm, NetMsg::Shutdown).unwrap();
        serving.join().unwrap();
    }

    #[test]
    fn take_times_out() {
        // The JobManager never answers.
        let (mut rig, _jm_rx) = Rig::new();
        let start = Instant::now();
        assert!(rig.space().take(&vec![None], Duration::from_millis(30)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn a_shutdown_ends_a_blocking_rd() {
        let (mut rig, _jm_rx) = Rig::new();
        rig.net.send(rig.jm, rig.ep.addr, NetMsg::Shutdown).unwrap();
        let start = Instant::now();
        assert!(rig.space().rd(&vec![None], Duration::from_secs(5)).is_none());
        assert!(start.elapsed() < Duration::from_secs(4), "{:?}", start.elapsed());

        // Each kind of message alone in the queue, and nobody serving the
        // ask: a stop signal ends it and is used up, a give left from an
        // earlier ask is dropped, and everything else stays queued.
        let kept = [true, true, false, false, false, true];
        for ((label, msg), kept) in one_of_each().into_iter().zip(kept) {
            let (mut rig, _jm_rx) = Rig::new();
            rig.net.send(rig.jm, rig.ep.addr, msg.clone()).unwrap();
            assert_eq!(rig.space().rd(&vec![None], Duration::from_millis(10)), None, "{label}");
            let left: Vec<NetMsg> =
                std::iter::from_fn(|| rig.ep.pump.next_before(Some(Instant::now())).ok())
                    .map(|env| env.msg)
                    .collect();
            assert_eq!(left, if kept { vec![msg] } else { vec![] }, "{label}");
        }
    }

    fn int(v: i64) -> Tuple {
        vec![Field::S("n".into()), Field::I(v)]
    }

    fn any_int() -> Pattern {
        vec![Some(Field::S("n".into())), None]
    }

    #[test]
    fn no_tuple_taken_twice() {
        // N parked takes and N deposits: each taker gets exactly one tuple,
        // each tuple goes to exactly one taker, and nothing is left.
        let mut held = HeldSpace::new(TupleSpace::new());
        let n = 16;
        for a in 0..n {
            assert!(held.ask(any_int(), true, Addr(a)).is_none());
        }
        let mut gives: Vec<(Addr, Tuple)> = (0..n as i64).flat_map(|v| held.out(int(v))).collect();
        assert_eq!(gives.len(), n as usize);
        gives.sort_by_key(|(to, _)| *to);
        for (i, (to, tuple)) in gives.into_iter().enumerate() {
            assert_eq!((to, tuple), (Addr(i as u64), int(i as i64)), "served in arrival order");
        }
        assert_eq!((held.parked(), held.len()), (0, 0));
    }

    #[test]
    fn an_out_serves_every_parked_rd_then_one_take() {
        let mut held = HeldSpace::new(TupleSpace::new());
        assert!(held.ask(any_int(), true, Addr(1)).is_none());
        assert!(held.ask(any_int(), false, Addr(2)).is_none());
        assert!(held.ask(any_int(), true, Addr(3)).is_none());
        assert!(held.ask(any_int(), false, Addr(4)).is_none());
        let gives = held.out(int(7));
        let to: Vec<Addr> = gives.iter().map(|(to, _)| *to).collect();
        assert_eq!(to, [Addr(2), Addr(4), Addr(1)]);
        assert!(held.is_empty(), "the take removed it");
        assert_eq!(held.parked(), 1, "the second take waits on");
        // Present tuples answer at once; `rd` leaves them, `take` does not.
        held.out(int(8)).iter().for_each(|(to, _)| assert_eq!(*to, Addr(3)));
        held.out(int(9));
        assert_eq!(held.ask(any_int(), false, Addr(5)), Some(int(9)));
        assert_eq!(held.ask(any_int(), true, Addr(5)), Some(int(9)));
        assert!(held.is_empty() && held.parked() == 0);
    }

    #[test]
    fn a_new_ask_replaces_the_endpoints_parked_one() {
        let mut held = HeldSpace::new(TupleSpace::new());
        assert!(held.ask(any_int(), true, Addr(1)).is_none());
        assert!(held.ask(vec![None], true, Addr(1)).is_none());
        assert_eq!(held.parked(), 1);
        // Only the second ask is served: the first one's asker gave up.
        assert!(held.out(int(1)).is_empty());
        assert_eq!(held.out(vec![Field::I(2)]), [(Addr(1), vec![Field::I(2)])]);
        assert_eq!((held.parked(), held.len()), (0, 1));
    }

    #[test]
    fn arity_buckets_stay_disjoint() {
        let ts = TupleSpace::new();
        ts.out(vec![Field::I(1)]);
        ts.out(vec![Field::I(1), Field::I(2)]);
        assert_eq!(ts.len(), 2);
        assert!(ts.try_in(&vec![None, None]).is_some());
        assert!(ts.try_in(&vec![None]).is_some());
        assert!(ts.is_empty());
    }

    #[test]
    fn waiter_survives_traffic_of_other_arities() {
        // A take parked on a 2-field pattern must see the 2-tuple even after
        // a stream of 1-tuples that serve nobody.
        let mut held = HeldSpace::new(TupleSpace::new());
        let pair: Pattern = vec![Some(Field::S("pair".into())), None];
        assert!(held.ask(pair, true, Addr(1)).is_none());
        for i in 0..50 {
            assert!(held.out(vec![Field::I(i)]).is_empty());
        }
        let gives = held.out(vec![Field::S("pair".into()), Field::I(7)]);
        assert_eq!(gives, [(Addr(1), vec![Field::S("pair".into()), Field::I(7)])]);
        assert_eq!(held.len(), 50, "unrelated 1-tuples untouched");
    }

    #[test]
    fn field_conversions() {
        assert_eq!(Field::from(5i64), Field::I(5));
        assert_eq!(Field::from("x"), Field::S("x".into()));
        assert_eq!(Field::from(2.5), Field::F(2.5));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_tuple_rejected() {
        TupleSpace::new().out(vec![]);
    }
}
