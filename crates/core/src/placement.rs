//! The placement round: where the JobManager runs each admitted task (the
//! paper's "JobManager solicits TaskManager for the Tasks", §3; Figure 6
//! step 6), decided over a table of bids with the transport outside it.
//!
//! A [`Round`] is a value: the server's loop turns each `TaskManagerBid`,
//! `Decline`, `AssignAck` and due deadline ([`Round::deadline`]) into an
//! [`Event`] and
//! carries out the [`Action`]s it gets back. The round reads no clock and
//! sends nothing, so its rules (DESIGN.md §14) are tested on a synthetic
//! `now`. What each event does:
//!
//! - `Answer`: a bid goes into the open table, a decline only counts toward
//!   its quorum — if it answers the open solicitation and its sender has not
//!   answered yet; anything else is late and dropped.
//! - `Ack`: settles the offer it answers, or hands a rejected one back for
//!   the next-best entry; an accepted ack that no offer waits for → `Cancel`.
//! - `Tick`: an overdue offer → `Cancel`, then the next-best entry; a window
//!   that is due closes.
//!
//! After every event: what is unplaced on a closed table → `Assign`; what
//! that table could neither host nor refuse → `Solicit` again; the settled
//! tasks at the front → `TaskAck`, in burst order. A table on which every
//! TaskManager, the server's own included, declined refuses at once, naming
//! CN019: no node is big enough for the task, however long it waits.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cn_cluster::Addr;

use crate::message::{Bid, JobId, TaskSpec};
use crate::pump::Window;
use crate::scheduler::{Policy, RoundRobin};

/// What the server's loop hands the round: a `TaskManagerBid` or `Decline`
/// for the solicitation keyed `(job, task)`, an `AssignAck` (the task's
/// endpoint, or why not), or a due deadline.
pub(crate) enum Event {
    Answer { from: Addr, job: JobId, task: String, answer: Answer },
    Ack { from: Addr, job: JobId, task: String, ack: Result<Addr, String> },
    Tick,
}

/// A TaskManager's answer to a solicitation: a bid, or a decline naming all
/// the memory its node has — less than the solicitation asked for. A busy
/// TaskManager does not answer.
#[derive(Debug, Clone)]
pub(crate) enum Answer {
    Bid(Bid),
    Decline { capacity_mb: u64 },
}

/// What the round asks the server's loop to do.
pub(crate) enum Action {
    /// Multicast a `SolicitTaskManager` keyed `(job, task)`, then open its
    /// window with the server's own answer ([`Round::asked`]).
    Solicit { job: JobId, task: String, memory_mb: u64 },
    /// Upload the task's archive to `tm` and `AssignTask` it there.
    Assign { tm: Addr, job: JobId, spec: TaskSpec },
    /// `CancelTask` to `tm`, which may hold an assignment nothing waits for:
    /// its `AssignAck` from the bidder `timed_out` is overdue, or (`None`)
    /// came after its offer had moved on.
    Cancel { tm: Addr, job: JobId, task: String, timed_out: Option<String> },
    /// `TaskAck` to `reply_to`.
    TaskAck { job: JobId, spec: TaskSpec, reply_to: Addr, placed: Placed },
}

/// `(tm server addr, task endpoint, server name)` of a placed task, or why
/// it was not placed.
type Placed = Result<(Addr, Addr, String), String>;

/// One task on its way through a round.
struct Placing {
    job: JobId,
    spec: TaskSpec,
    reply_to: Addr,
    /// Bidders this task has been offered to; none is asked twice.
    tried: Vec<Addr>,
    /// `server: reason` of every offer that fell through.
    failures: Vec<String>,
    state: Offer,
}

/// Where a [`Placing`] stands: waiting for a closed table (or after an
/// offer fell through), assigned to `tm` with its `AssignAck` due by
/// `deadline`, or settled.
enum Offer {
    Unplaced,
    InFlight { tm: Addr, server: String, deadline: Instant },
    Settled(Placed),
}

/// A placement round: everything the fair queue held when it started, in
/// DRR order, placed from **one** solicitation's table of bids, each choice
/// booked on its entry ([`Bid::debit`]). A task is refused for want of a
/// bidder only by a table everybody addressed has answered into
/// (`complete`) and no decliner is big enough for; one that missed
/// somebody asks again, up to one solicitation per task in all
/// (`asks_left`).
pub(crate) struct Round {
    tasks: VecDeque<Placing>,
    /// What the latest solicitation, and so every bid, is keyed by.
    key: (JobId, String),
    /// Open until everyone addressed has bid or its bound passes.
    window: Option<Window>,
    /// The server's own bid first, then arrival order.
    bids: Vec<Bid>,
    /// The largest node a decline to the latest solicitation named.
    declined: Option<u64>,
    /// The server's own TaskManager declined the latest solicitation.
    own_declined: bool,
    /// Everyone the latest solicitation addressed has answered.
    complete: bool,
    /// Solicitations the round may still make.
    asks_left: usize,
    policy: Policy,
    /// The server's rotation, lent for the round (see `offer`).
    rr: RoundRobin,
    assign_timeout: Duration,
}

impl Round {
    /// A round over `tasks` in order, refusing in its turn one whose admission
    /// failed. Its table starts empty and incomplete, so its first event asks.
    pub(crate) fn new(
        tasks: Vec<(JobId, TaskSpec, Addr, Result<(), String>)>,
        policy: Policy,
        rr: RoundRobin,
        assign_timeout: Duration,
    ) -> Round {
        let tasks: VecDeque<Placing> = tasks
            .into_iter()
            .map(|(job, spec, reply_to, admitted)| {
                let state = admitted.map_or_else(|e| Offer::Settled(Err(e)), |()| Offer::Unplaced);
                Placing { job, spec, reply_to, tried: Vec::new(), failures: Vec::new(), state }
            })
            .collect();
        let asks_left = tasks.iter().filter(|t| matches!(t.state, Offer::Unplaced)).count();
        let key = (JobId(0), String::new());
        let (window, bids, declined, own_declined, complete) =
            (None, Vec::new(), None, false, false);
        Round {
            tasks,
            key,
            window,
            bids,
            declined,
            own_declined,
            complete,
            asks_left,
            policy,
            rr,
            assign_timeout,
        }
    }

    /// Take `event` in at `now` and say what to do about it.
    pub(crate) fn on(&mut self, event: Event, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        match event {
            Event::Answer { from, job, task, answer } => {
                let window = self.window.as_mut().filter(|_| self.key == (job, task));
                if window.is_some_and(|w| w.admit(from)) {
                    self.take(answer);
                }
            }
            Event::Ack { from, job, task, ack } => {
                // Matched on the sender too, so a late ack from a bidder that
                // already timed out is not taken for the current one's.
                let awaited = self.tasks.iter_mut().find(|t| {
                    t.job == job
                        && t.spec.name == task
                        && matches!(t.state, Offer::InFlight { tm, .. } if tm == from)
                });
                match (awaited, ack) {
                    (Some(t), ack) => {
                        let Offer::InFlight { server, .. } =
                            std::mem::replace(&mut t.state, Offer::Unplaced)
                        else {
                            unreachable!("matched on InFlight")
                        };
                        match ack {
                            Ok(task_addr) => {
                                t.state = Offer::Settled(Ok((from, task_addr, server)))
                            }
                            Err(reason) => t.failures.push(format!("{server}: rejected: {reason}")),
                        }
                    }
                    // The offer timed out and moved on: release what the
                    // TaskManager set up.
                    (None, Ok(_)) => {
                        actions.push(Action::Cancel { tm: from, job, task, timed_out: None })
                    }
                    (None, Err(_)) => {}
                }
            }
            Event::Tick => {}
        }
        self.advance(now, &mut actions);
        actions
    }

    /// The outcome of the last [`Action::Solicit`]: the window on whom it
    /// reached, and the server's own answer, if it has one.
    pub(crate) fn asked(&mut self, window: Window, own: Option<Answer>) {
        self.window = Some(window);
        (self.bids, self.declined) = (Vec::new(), None);
        self.own_declined = matches!(own, Some(Answer::Decline { .. }));
        own.into_iter().for_each(|answer| self.take(answer));
    }

    /// An answer into the table: a bid as an entry, a decline as its size.
    fn take(&mut self, answer: Answer) {
        match answer {
            Answer::Bid(bid) => self.bids.push(bid),
            Answer::Decline { capacity_mb } => self.declined = self.declined.max(Some(capacity_mb)),
        }
    }

    /// The earliest instant the round needs a [`Event::Tick`].
    pub(crate) fn deadline(&self) -> Option<Instant> {
        let offers = self.tasks.iter().filter_map(|t| match t.state {
            Offer::InFlight { deadline, .. } => Some(deadline),
            _ => None,
        });
        self.window.iter().map(Window::deadline).chain(offers).min()
    }

    /// The rotation back, once every task has been acked.
    pub(crate) fn finish(&mut self) -> Option<RoundRobin> {
        self.tasks.is_empty().then(|| std::mem::take(&mut self.rr))
    }

    /// Time out overdue offers, close the window when it is due, offer
    /// whatever is unplaced on a closed table, ask again for what it could
    /// not place, and ack the settled tasks at the front.
    fn advance(&mut self, now: Instant, actions: &mut Vec<Action>) {
        for t in &mut self.tasks {
            let Offer::InFlight { tm, server, deadline } = &t.state else { continue };
            if *deadline > now {
                continue;
            }
            // The TM may accept after we gave up: the cancel releases it
            // (idempotent on the TM side).
            let (tm, server) = (*tm, server.clone());
            t.state = Offer::Unplaced;
            t.failures.push(format!("{server}: AssignAck timeout"));
            let (job, task) = (t.job, t.spec.name.clone());
            actions.push(Action::Cancel { tm, job, task, timed_out: Some(server) });
        }
        if let Some(window) = self.window.take_if(|w| w.is_complete() || now >= w.deadline()) {
            self.complete = window.is_complete();
        }
        if self.window.is_none() {
            for i in 0..self.tasks.len() {
                if matches!(self.tasks[i].state, Offer::Unplaced) {
                    self.offer(i, now, actions);
                }
            }
            // What the table could neither host nor refuse is asked for
            // again (a lone server's window is complete as it opens).
            let mut unplaced = self.tasks.iter().filter(|t| matches!(t.state, Offer::Unplaced));
            if let Some(first) = unplaced.next() {
                let memory_mb = unplaced.fold(first.spec.memory_mb, |m, t| m.min(t.spec.memory_mb));
                self.key = (first.job, first.spec.name.clone());
                self.complete = false;
                self.asks_left = self.asks_left.saturating_sub(1);
                let (job, task) = self.key.clone();
                actions.push(Action::Solicit { job, task, memory_mb });
            }
        }
        let settled = self.tasks.iter().take_while(|t| matches!(t.state, Offer::Settled(_)));
        for Placing { job, spec, reply_to, state, .. } in self.tasks.drain(..settled.count()) {
            if let Offer::Settled(placed) = state {
                actions.push(Action::TaskAck { job, spec, reply_to, placed });
            }
        }
    }

    /// Offer task `i` to the policy's choice among the closed table's
    /// entries that can still host it and that it has not tried. The
    /// TaskManager may still reject (its state can change between bid and
    /// assignment) or time out; the task then comes back here for the
    /// next-best one.
    fn offer(&mut self, i: usize, now: Instant, actions: &mut Vec<Action>) {
        let Round { tasks, bids, declined, own_declined, complete, asks_left, .. } = self;
        let (policy, rr, assign_timeout) = (self.policy, &mut self.rr, self.assign_timeout);
        let task = &mut tasks[i];
        let candidates: Vec<Bid> = bids
            .iter()
            .filter(|b| b.can_host(task.spec.memory_mb) && !task.tried.contains(&b.addr))
            .cloned()
            .collect();
        let Some(chosen) = policy.choose(rr, &candidates) else {
            // Someone was slow to answer, or declined a larger task than this
            // one, and the rest of the table is used up: not a refusal yet,
            // ask again.
            let need = task.spec.memory_mb;
            let too_big = declined.is_none_or(|largest| need > largest);
            if (!*complete || !too_big) && *asks_left > 0 {
                return;
            }
            // The refusal reaches the client beside the task's name
            // (`ClientError::PlacementFailed`), so it does not repeat it.
            task.state =
                Offer::Settled(Err(if *complete && *own_declined && bids.is_empty() && too_big {
                    let largest = declined.unwrap_or(0);
                    format!(
                        "no willing TaskManager: every TaskManager declined it (CN019): it needs \
                         {need} MB and the largest node has {largest} MB"
                    )
                } else if task.failures.is_empty() {
                    "no willing TaskManager".to_string()
                } else {
                    let failures = task.failures.join("; ");
                    format!("every willing TaskManager failed: {failures}")
                }));
            return;
        };
        let (tm, server) = (chosen.addr, chosen.server.clone());
        task.tried.push(tm);
        if let Some(entry) = bids.iter_mut().find(|b| b.addr == tm) {
            entry.debit(task.spec.memory_mb);
        }
        actions.push(Action::Assign { tm, job: task.job, spec: task.spec.clone() });
        task.state = Offer::InFlight { tm, server, deadline: now + assign_timeout };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::LoadSignal;
    use proptest::prelude::*;

    const JOB: JobId = JobId(1);
    const WINDOW: Duration = Duration::from_millis(40);
    const TIMEOUT: Duration = Duration::from_secs(2);
    const POLICIES: [Policy; 3] = [Policy::LeastLoaded, Policy::RoundRobin, Policy::LoadAware];

    /// A bidder `name` at `Addr(addr)` with `used` of its `slots` taken.
    fn bidder(name: &str, addr: u64, memory_mb: u64, slots: usize, used: usize, queue: u32) -> Bid {
        Bid {
            server: name.to_string(),
            addr: Addr(addr),
            load: used as f64 / slots as f64,
            free_memory_mb: memory_mb,
            free_slots: slots - used,
            signal: LoadSignal { queue_depth: queue, ..LoadSignal::default() },
        }
    }

    fn tasks(memory_mb: &[u64]) -> Vec<TaskSpec> {
        let spec = |(i, mb): (usize, &u64)| TaskSpec {
            memory_mb: *mb,
            ..TaskSpec::new(format!("t{i}"), "x.jar", "X")
        };
        memory_mb.iter().enumerate().map(spec).collect()
    }

    /// A message on its way to the JobManager: a remote bidder's bid for the
    /// solicitation of `task` or a decliner's decline of it, or a bidder's
    /// answer to the assignment of `task`.
    #[derive(Clone)]
    enum Msg {
        Bid(Bid, String),
        Decline(Addr, u64, String),
        Ack(Addr, TaskSpec, bool),
    }

    /// The server's loop around a round, played on a synthetic clock. It
    /// answers a `Solicit` as the server does — a window on `quorum` peers,
    /// and its own TaskManager's answer: a decline if its node is smaller
    /// than asked for, else a bid while it can host the smallest task asked
    /// for — and runs an assignment to its own TaskManager in place. The
    /// remote bidders' bids and acks, and the decliners' declines, wait in
    /// `inbox` for the test to deliver, late, twice or never.
    struct Rig {
        round: Round,
        t0: Instant,
        now: Instant,
        quorum: usize,
        own: Option<Bid>,
        /// The own node's size, where it is too small for every task.
        own_capacity: Option<u64>,
        remotes: Vec<Bid>,
        /// TaskManagers too small for every task: `(addr, node size)`.
        decliners: Vec<(Addr, u64)>,
        inbox: Vec<Msg>,
        /// The own bid each solicitation's table started with.
        asked: Vec<Option<Bid>>,
        solicits: Vec<String>,
        assigns: Vec<(Addr, String)>,
        /// `(task, where it was placed or why not, when)`, in ack order.
        acks: Vec<(String, Placed, Duration)>,
    }

    impl Rig {
        fn new(policy: Policy, specs: &[TaskSpec], quorum: usize, own: Option<Bid>) -> Rig {
            let specs = specs.iter().map(|s| (JOB, s.clone(), Addr(1), Ok(()))).collect();
            let t0 = Instant::now();
            Rig {
                round: Round::new(specs, policy, RoundRobin::new(), TIMEOUT),
                t0,
                now: t0,
                quorum,
                own,
                own_capacity: None,
                remotes: Vec::new(),
                decliners: Vec::new(),
                inbox: Vec::new(),
                asked: Vec::new(),
                solicits: Vec::new(),
                assigns: Vec::new(),
                acks: Vec::new(),
            }
        }

        /// Hand the round `event` at `t0 + at`.
        fn at(&mut self, at: Duration, event: Event) {
            self.now = self.t0 + at;
            self.on(event);
        }

        fn on(&mut self, event: Event) {
            let mut events = VecDeque::from([event]);
            while let Some(event) = events.pop_front() {
                for action in self.round.on(event, self.now) {
                    match action {
                        Action::Solicit { job, task, memory_mb } => {
                            assert_eq!(job, JOB);
                            let own = self.own.clone().filter(|b| b.can_host(memory_mb));
                            self.asked.push(own.clone());
                            let own = match self.own_capacity {
                                Some(capacity_mb) => Some(Answer::Decline { capacity_mb }),
                                None => own.map(Answer::Bid),
                            };
                            self.round.asked(Window::new(self.quorum, self.now + WINDOW), own);
                            let bid = |r: &Bid| Msg::Bid(r.clone(), task.clone());
                            self.inbox.extend(self.remotes.iter().map(bid));
                            let decline =
                                |&(at, mb): &(Addr, u64)| Msg::Decline(at, mb, task.clone());
                            self.inbox.extend(self.decliners.iter().map(decline));
                            self.solicits.push(task);
                            events.push_back(Event::Tick);
                        }
                        Action::Assign { tm, job, spec } => {
                            self.assigns.push((tm, spec.name.clone()));
                            match self.own.as_mut().filter(|own| own.addr == tm) {
                                Some(own) => {
                                    let fits = own.can_host(spec.memory_mb);
                                    let ack = fits.then_some(Addr(1000)).ok_or("full".to_string());
                                    if fits {
                                        own.debit(spec.memory_mb);
                                    }
                                    events.push_back(Event::Ack {
                                        from: tm,
                                        job,
                                        task: spec.name,
                                        ack,
                                    });
                                }
                                None => self.inbox.push(Msg::Ack(tm, spec, true)),
                            }
                        }
                        Action::Cancel { .. } => {}
                        Action::TaskAck { spec, placed, .. } => {
                            self.acks.push((spec.name, placed, self.now - self.t0));
                        }
                    }
                }
            }
        }

        /// Deliver `msg` now. An accepted assignment takes its room on the
        /// bidder, so what it bids next says so.
        fn deliver(&mut self, msg: Msg) {
            let event = match msg {
                Msg::Bid(bid, task) => {
                    Event::Answer { from: bid.addr, job: JOB, task, answer: Answer::Bid(bid) }
                }
                Msg::Decline(from, capacity_mb, task) => {
                    let answer = Answer::Decline { capacity_mb };
                    Event::Answer { from, job: JOB, task, answer }
                }
                Msg::Ack(tm, spec, accepted) => {
                    let remote = self.remotes.iter_mut().find(|r| r.addr == tm);
                    if let Some(r) = remote.filter(|_| accepted) {
                        r.debit(spec.memory_mb);
                    }
                    let ack = accepted.then_some(Addr(1000)).ok_or("full".to_string());
                    Event::Ack { from: tm, job: JOB, task: spec.name, ack }
                }
            };
            self.on(event);
        }

        fn placed(&self) -> Vec<(String, Option<String>)> {
            let server = |placed: &Placed| placed.as_ref().ok().map(|(_, _, s)| s.clone());
            self.acks.iter().map(|(task, placed, _)| (task.clone(), server(placed))).collect()
        }
    }

    /// A bidder that misses the window is missing from the table, not from
    /// the cluster: when the table is used up the round asks again for what
    /// is left — a burst is not refused over a slow bid.
    #[test]
    fn a_used_up_table_that_missed_a_bidder_is_asked_for_again() {
        let own = bidder("node0", 10, 4000, 4, 0, 0);
        // Five tasks, four slots on the server's own TaskManager, and one
        // more peer addressed, which is slow to bid.
        let mut rig = Rig::new(Policy::LeastLoaded, &tasks(&[100; 5]), 1, Some(own));
        rig.at(Duration::ZERO, Event::Tick);
        assert_eq!(rig.solicits, ["t0"]);
        rig.at(WINDOW - Duration::from_millis(1), Event::Tick);
        assert!(rig.assigns.is_empty(), "the window is still open");
        // The first window closes unanswered; the second solicitation is
        // for the task the own four slots had no room for.
        rig.at(WINDOW, Event::Tick);
        assert_eq!(rig.solicits, ["t0", "t4"]);
        assert_eq!(rig.asked[1], None, "the own TaskManager is full by now");
        let slow = bidder("zz-slow", 20, 1000, 1, 0, 0);
        let (from, answer) = (slow.addr, Answer::Bid(slow));
        let bid = Event::Answer { from, job: JOB, task: "t4".into(), answer };
        rig.at(WINDOW + Duration::from_millis(5), bid);
        assert_eq!(rig.assigns.last(), Some(&(Addr(20), "t4".to_string())));
        let ack = Event::Ack { from: Addr(20), job: JOB, task: "t4".into(), ack: Ok(Addr(7)) };
        rig.at(WINDOW + Duration::from_millis(6), ack);
        let on = |server: &str, tasks: &[&str]| -> Vec<(String, Option<String>)> {
            tasks.iter().map(|t| (t.to_string(), Some(server.to_string()))).collect()
        };
        assert_eq!(
            rig.placed(),
            [on("node0", &["t0", "t1", "t2", "t3"]), on("zz-slow", &["t4"])].concat()
        );
        assert!(rig.round.finish().is_some());
    }

    /// The re-asking is bounded by what one auction per task would have
    /// spent: two tasks, two solicitations, then the refusal stands — at the
    /// second window's close, not before.
    #[test]
    fn a_round_asks_no_more_often_than_it_has_tasks() {
        // The one real node has memory for the first task only; one silent
        // peer is addressed too.
        let own = bidder("node0", 10, 4000, 4, 0, 0);
        let mut rig = Rig::new(Policy::LeastLoaded, &tasks(&[2500, 2500]), 1, Some(own));
        rig.at(Duration::ZERO, Event::Tick);
        rig.at(WINDOW, Event::Tick);
        assert_eq!(rig.placed(), [("t0".to_string(), Some("node0".to_string()))]);
        rig.at(2 * WINDOW - Duration::from_millis(1), Event::Tick);
        assert_eq!(rig.acks.len(), 1, "t1 waits for the second window");
        rig.at(2 * WINDOW, Event::Tick);
        assert_eq!(rig.solicits, ["t0", "t1"]);
        let (task, refusal, at) = &rig.acks[1];
        assert_eq!(task, "t1");
        assert!(
            refusal.as_ref().is_err_and(|r| r.contains("no willing TaskManager")),
            "{refusal:?}"
        );
        assert_eq!(*at, 2 * WINDOW);
        assert!(rig.round.finish().is_some());
        // Nothing is left to ask or to wait for.
        rig.at(10 * TIMEOUT, Event::Tick);
        assert_eq!(rig.solicits.len(), 2);
    }

    /// Does `placed` refuse its task naming CN019?
    fn names_cn019(placed: &Placed) -> bool {
        placed.as_ref().is_err_and(|reason| reason.contains("(CN019)"))
    }

    /// A table every TaskManager declined gives its verdict as the last
    /// decline comes in, naming the task's need and the largest node; a
    /// decliner big enough for a later task is asked again instead.
    #[test]
    fn a_table_of_declines_refuses_at_once_naming_cn019() {
        let mut rig = Rig::new(Policy::LeastLoaded, &tasks(&[1000, 1000]), 2, None);
        rig.own_capacity = Some(512);
        rig.decliners = vec![(Addr(20), 256), (Addr(21), 768)];
        rig.at(Duration::ZERO, Event::Tick);
        let declines = std::mem::take(&mut rig.inbox);
        rig.now += Duration::from_millis(1);
        for decline in declines {
            rig.deliver(decline);
        }
        assert_eq!(rig.solicits, ["t0"]);
        assert_eq!(rig.acks.len(), 2);
        for (task, refusal, at) in &rig.acks {
            assert!(names_cn019(refusal), "{task}: {refusal:?}");
            let reason = refusal.as_ref().unwrap_err();
            assert!(reason.starts_with("no willing TaskManager"), "{reason}");
            assert!(reason.contains("needs 1000 MB") && reason.contains("768 MB"), "{reason}");
            assert_eq!(*at, Duration::from_millis(1));
        }
        assert!(rig.round.finish().is_some());

        // A decline of 1000 MB from a 768 MB node does not refuse a 600 MB
        // task that comes back from a rejected offer: it is asked for again.
        let mut rig = Rig::new(Policy::LeastLoaded, &tasks(&[600, 1000, 1000]), 2, None);
        rig.remotes = vec![bidder("x", 10, 700, 4, 0, 0)];
        rig.decliners = vec![(Addr(21), 768)];
        rig.on(Event::Tick);
        // The 768 MB node is busy and says nothing; the window runs out.
        let bid = rig.inbox.remove(0);
        rig.inbox.clear();
        rig.deliver(bid);
        rig.at(WINDOW, Event::Tick);
        assert_eq!(rig.solicits, ["t0", "t1"]);
        let Msg::Ack(tm, spec, _) = rig.inbox.remove(0) else { panic!("t0's offer") };
        for answer in std::mem::take(&mut rig.inbox) {
            rig.deliver(answer);
        }
        rig.deliver(Msg::Ack(tm, spec, false));
        assert_eq!(rig.solicits, ["t0", "t1", "t0"]);
        assert!(rig.acks.is_empty(), "t1 and t2 wait behind t0");
    }

    /// A tiny deterministic die for the interleavings (xorshift).
    struct Dice(u64);

    impl Dice {
        fn roll(&mut self, sides: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % sides as u64) as usize
        }
    }

    /// What one auction per task, each on a quiescent cluster, places: each
    /// task goes to the policy's choice among the table's entries that can
    /// host it, and that entry then hosts it.
    fn one_auction_per_task(
        policy: Policy,
        mut table: Vec<Bid>,
        specs: &[TaskSpec],
    ) -> Vec<(String, Option<String>)> {
        let mut rr = RoundRobin::new();
        let mut auction = |spec: &TaskSpec| {
            let willing: Vec<Bid> =
                table.iter().filter(|b| b.can_host(spec.memory_mb)).cloned().collect();
            let chosen = policy.choose(&mut rr, &willing)?.addr;
            let entry = table.iter_mut().find(|b| b.addr == chosen)?;
            entry.debit(spec.memory_mb);
            Some(entry.server.clone())
        };
        specs.iter().map(|spec| (spec.name.clone(), auction(spec))).collect()
    }

    /// Every answer in before anything else, every ack accepting, in any
    /// order: the burst lands where one auction per task would put it, from
    /// one solicitation. It is refused naming CN019 exactly when every
    /// TaskManager, the server's own included, declined.
    fn everything_answers(
        rig: &mut Rig,
        dice: &mut Dice,
        policy: Policy,
        specs: &[TaskSpec],
        all_decline: bool,
    ) -> Result<(), TestCaseError> {
        rig.on(Event::Tick);
        let mut table: Vec<Bid> = rig.asked[0].iter().cloned().collect();
        while !rig.inbox.is_empty() {
            let msg = rig.inbox.swap_remove(dice.roll(rig.inbox.len()));
            if let Msg::Bid(bid, _) = &msg {
                table.push(bid.clone());
            }
            rig.now += Duration::from_micros(dice.roll(1000) as u64);
            rig.deliver(msg);
        }
        prop_assert_eq!(rig.solicits.len(), 1);
        prop_assert_eq!(rig.placed(), one_auction_per_task(policy, table, specs));
        for (task, placed, _) in &rig.acks {
            prop_assert!(names_cn019(placed) == all_decline, "{}: {:?}", task, placed);
        }
        Ok(())
    }

    /// Answers and acks arrive in any order, some twice, some late, some
    /// never, acks accept or reject, and time jumps past windows and ack
    /// deadlines. CN019 is named only where every TaskManager declines.
    fn anything_goes(
        rig: &mut Rig,
        dice: &mut Dice,
        specs: &[TaskSpec],
        all_decline: bool,
    ) -> Result<(), TestCaseError> {
        let mut delivered: Vec<Msg> = Vec::new();
        rig.on(Event::Tick);
        for _ in 0..48 {
            let pick = |dice: &mut Dice, n: usize| dice.roll(n.max(1));
            match dice.roll(8) {
                0..=2 if !rig.inbox.is_empty() => {
                    let mut msg = rig.inbox.swap_remove(pick(dice, rig.inbox.len()));
                    if let Msg::Ack(_, _, accepted) = &mut msg {
                        *accepted = dice.roll(3) > 0;
                    }
                    delivered.push(msg.clone());
                    rig.deliver(msg);
                }
                // Lost.
                3 if !rig.inbox.is_empty() => {
                    rig.inbox.swap_remove(pick(dice, rig.inbox.len()));
                }
                // Again, and perhaps late by now.
                4 if !delivered.is_empty() => {
                    let msg = delivered[pick(dice, delivered.len())].clone();
                    rig.deliver(msg);
                }
                5 => {
                    rig.now += Duration::from_millis(dice.roll(3000) as u64);
                    rig.on(Event::Tick);
                }
                6 => {
                    rig.now = rig.round.deadline().map_or(rig.now, |d| d.max(rig.now));
                    rig.on(Event::Tick);
                }
                _ => rig.on(Event::Tick),
            }
        }
        // Nothing more arrives: every deadline passes, and each one that
        // does moves the round on.
        for _ in 0..1000 {
            let Some(deadline) = rig.round.deadline() else { break };
            rig.now = rig.now.max(deadline);
            rig.on(Event::Tick);
        }
        prop_assert!(rig.round.deadline().is_none(), "the round never ends");
        prop_assert!(rig.round.finish().is_some());
        let acked: Vec<&str> = rig.acks.iter().map(|(task, _, _)| task.as_str()).collect();
        let burst: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        prop_assert_eq!(acked, burst);
        let mut offers = rig.assigns.clone();
        offers.sort();
        offers.dedup();
        prop_assert!(offers.len() == rig.assigns.len(), "a task offered twice: {:?}", rig.assigns);
        prop_assert!(rig.solicits.len() <= specs.len(), "{} solicitations", rig.solicits.len());
        for (task, placed, _) in &rig.acks {
            prop_assert!(!names_cn019(placed) || all_decline, "{}: {:?}", task, placed);
        }
        // A task lands where its latest offer went, not on a bidder whose
        // ack came after the task had moved on.
        for (task, placed, _) in &rig.acks {
            if let Ok((tm, _, _)) = placed {
                let last = rig.assigns.iter().rev().find(|(_, t)| t == task).map(|(tm, _)| tm);
                prop_assert_eq!(last, Some(tm));
            }
        }
        Ok(())
    }

    /// One case: a fleet of `(free memory, slots, used, queue depth)`
    /// bidders, the first of them the server's own TaskManager if `own` is
    /// 1; `never` TaskManagers too small for every task, the server's own
    /// one of them if `own` is 2; and a burst of tasks of `memory_mb`, under
    /// every policy, first with everything answering and then with anything
    /// going.
    fn a_burst(
        fleet: &[(u64, usize, usize, u32)],
        own: u8,
        never: usize,
        memory_mb: &[u64],
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let bid = |(i, &(mb, slots, used, queue)): (usize, &(u64, usize, usize, u32))| {
            bidder(&format!("b{i}"), 10 + i as u64, mb, slots, used % (slots + 1), queue)
        };
        let fleet: Vec<Bid> = fleet.iter().enumerate().map(bid).collect();
        let (own_bid, remotes) = match own {
            1 if !fleet.is_empty() => (Some(fleet[0].clone()), &fleet[1..]),
            _ => (None, &fleet[..]),
        };
        // Each node too small for the smallest task, the own one largest.
        let smallest = memory_mb.iter().min().copied().unwrap_or(1);
        let own_capacity = (own == 2).then_some(smallest - 1);
        let decliners: Vec<(Addr, u64)> =
            (0..never).map(|i| (Addr(50 + i as u64), (smallest - 1) / (i as u64 + 2))).collect();
        let all_decline = own_capacity.is_some() && remotes.is_empty();
        let specs = tasks(memory_mb);
        let mut dice = Dice(seed | 1);
        let rig = |policy| {
            let mut rig = Rig::new(policy, &specs, remotes.len() + never, own_bid.clone());
            (rig.own_capacity, rig.remotes, rig.decliners) =
                (own_capacity, remotes.to_vec(), decliners.clone());
            rig
        };
        for policy in POLICIES {
            everything_answers(&mut rig(policy), &mut dice, policy, &specs, all_decline)?;
            anything_goes(&mut rig(policy), &mut dice, &specs, all_decline)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn a_round_places_like_one_auction_per_task_and_acks_every_task_once(
            fleet in proptest::collection::vec((0u64..4000, 1usize..5, 0usize..5, 0u32..3), 0..5),
            own in 0u8..3,
            never in 0usize..3,
            memory_mb in proptest::collection::vec(1u64..2000, 1..9),
            seed in any::<u64>(),
        ) {
            a_burst(&fleet, own, never, &memory_mb, seed)?;
        }
    }
}
