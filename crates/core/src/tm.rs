//! The TaskManager's tasks as a value, like `placement::Round` and
//! `job::Job`: the server's loop hands [`Tasks`] the TaskManager's messages
//! and what only it can do — host a task (reserve and register), re-reserve a
//! returned one — and carries out the [`Action`]s it gets back. `now` is an
//! argument, so stealing's timing is tested on a synthetic clock. `H` is what
//! the server holds for a hosted task's endpoint, `R` its reservation.
//!
//! | stage | entered on | holds |
//! |---|---|---|
//! | assigned | `AssignTask`, hosted | `H`, `R` |
//! | queued | `StartTask`; a grant hosted by its thief, or returned | `H`, `R` |
//! | running | a free slot: `Launch` | nothing: its thread has both |
//! | granted | `StealRequest`, at the victim | `H` |
//!
//! A task leaves on `TaskExited` (running), `CancelTask` (assigned, queued),
//! `TaskMigrated` or `StealReturn` (granted). A `CancelTask` that finds it
//! granted marks it, and its thief's commit is answered with `CancelTask`
//! — after the commit's alias is set up like any other, so the thief's
//! `Shutdown` as the task leaves it has an endpoint to end.

use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use cn_cluster::{Addr, Envelope};

use crate::message::{JobId, NetMsg, TaskSpec};
use crate::scheduler::{Ewma, LoadSignal};

/// A victim grants a steal only while its run queue holds this many tasks.
const STEAL_THRESHOLD: u32 = 1;

/// Least interval between two `LoadReport`s, but for the edge into
/// [`STEAL_THRESHOLD`].
const STEAL_HEARTBEAT: Duration = Duration::from_millis(5);

/// How long an unanswered `StealRequest` keeps its thief from raiding again.
const STEAL_STALE: Duration = Duration::from_secs(1);

type Key = (JobId, String);

/// A started task's directory and its job's client.
type Start = (HashMap<String, Addr>, Addr);

/// A hosted task's endpoint, what holds it and its reservation; or why not.
type Hosting<H, R> = Result<(Addr, H, R), String>;

pub(crate) enum Event<H, R> {
    /// A TaskManager message, or anything for the old endpoint of a task
    /// stolen from here.
    Net(Envelope<NetMsg>),
    /// The task of the `AssignTask` or `StealGrant` in `env`, hosted or not.
    Hosted { env: Envelope<NetMsg>, hosted: Hosting<H, R> },
    /// The answer to an [`Action::Reserve`].
    Reserved { job: JobId, task: String, reserved: Result<R, String> },
}

pub(crate) enum Action<H, R> {
    /// `from` is this server, or the sender of a message for a moved endpoint.
    Post { from: Addr, to: Addr, msg: NetMsg },
    /// Give this `LoadReport` to the discovery group.
    Report(NetMsg),
    /// Run a task on a thread.
    Launch(Launch<H, R>),
    /// Unregister `endpoint`: what held it here has gone.
    Release { endpoint: Addr },
    /// Make `old` an alias of this server, and hand what sits in its queue
    /// back as [`Event::Net`]: it goes on to the task's new home.
    Alias { old: Addr, held: H },
    /// Reserve for a returned task; answer [`Event::Reserved`].
    Reserve { job: JobId, task: String, memory_mb: u64 },
    /// A queued task was granted to `thief` (a flight event).
    Granted { job: JobId, task: String, thief: String },
}

/// A task to run, with what holds its endpoint and its reservation.
pub(crate) struct Launch<H, R> {
    pub(crate) job: JobId,
    pub(crate) spec: TaskSpec,
    pub(crate) jm: Addr,
    pub(crate) endpoint: Addr,
    pub(crate) directory: HashMap<String, Addr>,
    pub(crate) held: H,
    pub(crate) reservation: R,
}

struct Task<H, R> {
    spec: TaskSpec,
    /// The JobManager its lifecycle goes to.
    jm: Addr,
    endpoint: Addr,
    held: Option<H>,
    reservation: Option<R>,
    stage: Stage,
    /// Thief side: its endpoint at the victim, told `Shutdown` as it leaves.
    stolen_from: Option<Addr>,
}

/// Victim side: where a task stolen from here went, and the endpoint it had
/// been stolen from before.
struct Moved {
    key: Key,
    thief: Addr,
    new: Addr,
    before: Option<Addr>,
}

enum Stage {
    Assigned,
    Queued,
    Running,
    Granted { start: Start, cancelled: bool },
}

pub(crate) struct Tasks<H, R> {
    name: String,
    me: Addr,
    /// Tasks that may run at once: `exec_slots`, unbounded when unset.
    slots: usize,
    steal: bool,
    tasks: HashMap<Key, Task<H, R>>,
    /// Started tasks waiting for a slot, and since when.
    queue: VecDeque<(Key, Start, Instant)>,
    running: usize,
    /// Queue-to-launch latency, the third part of [`LoadSignal`].
    dispatch: Ewma,
    /// Thief side: each peer's last reported load, and the victim of the
    /// request in flight (cleared by its report, a decline, or a grant).
    peers: HashMap<Addr, LoadSignal>,
    raiding: Option<(Addr, Instant)>,
    /// Victim side: each task stolen from here, by its old endpoint, until it
    /// has left its thief.
    moved: HashMap<Addr, Moved>,
    /// The last report, and when.
    reported: Option<(LoadSignal, Instant)>,
    actions: Vec<Action<H, R>>,
}

impl<H, R> Tasks<H, R> {
    pub(crate) fn new(name: String, me: Addr, exec_slots: Option<usize>, steal: bool) -> Self {
        Tasks {
            name,
            me,
            slots: exec_slots.unwrap_or(usize::MAX),
            steal,
            tasks: HashMap::new(),
            queue: VecDeque::new(),
            running: 0,
            dispatch: Ewma::default(),
            peers: HashMap::new(),
            raiding: None,
            moved: HashMap::new(),
            reported: None,
            actions: Vec::new(),
        }
    }

    /// The load this TaskManager advertises in its bids and reports.
    pub(crate) fn signal(&self) -> LoadSignal {
        let (queue_depth, in_flight) = (self.queue.len() as u32, self.running as u32);
        LoadSignal { queue_depth, in_flight, ewma_dispatch_us: self.dispatch.get() }
    }

    /// The old endpoints this server still serves.
    pub(crate) fn aliases(&self) -> impl Iterator<Item = Addr> + '_ {
        self.moved.keys().copied()
    }

    /// Take `event` in at `now` and say what to do about it.
    pub(crate) fn on(&mut self, event: Event<H, R>, now: Instant) -> Vec<Action<H, R>> {
        match event {
            Event::Net(env) if env.to != self.me => self.forward(env),
            Event::Net(Envelope { msg, .. }) => match msg {
                NetMsg::StartTask { job, task, directory, client } => {
                    self.start((job, task), (directory, client), now)
                }
                NetMsg::CancelTask { job, task } => self.cancel((job, task), now),
                NetMsg::TaskExited { job, task } => self.exited((job, task), now),
                NetMsg::LoadReport { addr, signal, .. } if addr != self.me => {
                    self.raiding = self.raiding.filter(|(victim, _)| *victim != addr);
                    self.peers.insert(addr, signal);
                    self.raid(now);
                }
                NetMsg::StealRequest { thief, reply_to } => self.grant(thief, reply_to, now),
                NetMsg::StealReturn { job, task } => self.returned((job, task), None, now),
                NetMsg::TaskMigrated { job, task, tm, task_addr, .. } => {
                    self.migrated((job, task), tm, task_addr)
                }
                _ => {}
            },
            Event::Hosted { env, hosted } => self.hosted(env, hosted, now),
            Event::Reserved { job, task, reserved } => {
                self.returned((job, task), Some(reserved), now)
            }
        }
        std::mem::take(&mut self.actions)
    }

    /// Queue a started task and launch what slots are free for. Only a start
    /// that has to wait is reported.
    fn start(&mut self, key: Key, start: Start, now: Instant) {
        let Some(t) = self.tasks.get_mut(&key) else { return };
        if matches!(t.stage, Stage::Assigned) {
            t.stage = Stage::Queued;
            let waits = self.running >= self.slots;
            self.queue.push_back((key, start, now));
            self.drain(now);
            if waits {
                self.report(now);
            }
        }
    }

    /// Launch queued tasks, oldest first, while a slot is free.
    fn drain(&mut self, now: Instant) {
        while self.running < self.slots {
            let Some((key, (directory, _), since)) = self.queue.pop_front() else { break };
            let Some(t) = self.tasks.get_mut(&key) else { continue };
            let (Some(held), Some(reservation)) = (t.held.take(), t.reservation.take()) else {
                continue;
            };
            t.stage = Stage::Running;
            self.running += 1;
            self.dispatch.observe(now.duration_since(since).as_micros() as u64);
            let (job, spec, jm, endpoint) = (key.0, t.spec.clone(), t.jm, t.endpoint);
            let launch = Launch { job, spec, jm, endpoint, directory, held, reservation };
            self.actions.push(Action::Launch(launch));
        }
    }

    /// A running task is told to stop (it leaves as its thread ends), a
    /// granted one is marked, a stolen one's thief is told, others leave now.
    fn cancel(&mut self, key: Key, now: Instant) {
        let Some(t) = self.tasks.get_mut(&key) else {
            if let Some(thief) = self.moved.values().find(|m| m.key == key).map(|m| m.thief) {
                let (job, task) = key;
                self.tell(thief, NetMsg::CancelTask { job, task });
            }
            return;
        };
        match &mut t.stage {
            Stage::Running => {
                let endpoint = t.endpoint;
                return self.tell(endpoint, NetMsg::Shutdown);
            }
            Stage::Granted { cancelled, .. } => *cancelled = true,
            Stage::Assigned | Stage::Queued => {
                self.queue.retain(|(k, ..)| *k != key);
                self.leave(&key);
            }
        }
        self.report(now);
    }

    /// A task leaves, and its reservation with it: its endpoint goes (a
    /// running one's thread saw to that), and the one it was stolen from.
    fn leave(&mut self, key: &Key) {
        let Some(t) = self.tasks.remove(key) else { return };
        if !matches!(t.stage, Stage::Running) {
            self.actions.push(Action::Release { endpoint: t.endpoint });
        }
        if let Some(old) = t.stolen_from {
            self.tell(old, NetMsg::Shutdown);
        }
    }

    /// A task's thread has ended: its slot takes the next queued task, and a
    /// TaskManager left idle goes raiding.
    fn exited(&mut self, key: Key, now: Instant) {
        if self.tasks.get(&key).is_some_and(|t| matches!(t.stage, Stage::Running)) {
            self.running -= 1;
            self.leave(&key);
        }
        self.drain(now);
        self.report(now);
        self.raid(now);
    }

    /// Thief side: with a slot free and nothing queued, ask the deepest queue
    /// at or above the threshold for a task, one request at a time.
    fn raid(&mut self, now: Instant) {
        let pending = self.raiding.is_some_and(|(_, at)| now.duration_since(at) < STEAL_STALE);
        if !self.steal || !self.queue.is_empty() || self.running >= self.slots || pending {
            return;
        }
        let deepest = self.peers.iter().filter(|(_, s)| s.queue_depth >= STEAL_THRESHOLD);
        let victim = deepest.max_by_key(|(addr, s)| (s.queue_depth, Reverse(addr.0)));
        if let Some((&victim, _)) = victim {
            self.raiding = Some((victim, now));
            self.tell(victim, NetMsg::StealRequest { thief: self.name.clone(), reply_to: self.me });
        }
    }

    /// Victim side: grant the newest queued task, its reservation released, or
    /// decline with a report (which ends the thief's raid).
    fn grant(&mut self, thief: String, reply_to: Addr, now: Instant) {
        let grantable = self.steal && self.queue.len() as u32 >= STEAL_THRESHOLD;
        let newest = if grantable { self.queue.pop_back() } else { None };
        let Some(((job, task), start, _)) = newest else {
            return self.tell(reply_to, self.load_report());
        };
        let Some(t) = self.tasks.get_mut(&(job, task.clone())) else { return };
        t.reservation = None;
        let (spec, jm, old_endpoint, client) = (t.spec.clone(), t.jm, t.endpoint, start.1);
        let (directory, victim) = (start.0.clone(), self.name.clone());
        t.stage = Stage::Granted { start, cancelled: false };
        self.actions.push(Action::Granted { job, task, thief });
        let grant = NetMsg::StealGrant { job, spec, jm, client, directory, victim, old_endpoint };
        self.tell(reply_to, grant);
        self.report(now);
    }

    /// A hosted assignment waits for its start; a hosted grant is committed,
    /// to its JobManager and its victim, and queued. One not hosted goes back.
    fn hosted(&mut self, env: Envelope<NetMsg>, hosted: Hosting<H, R>, now: Instant) {
        let (job, spec, jm, grant) = match env.msg {
            NetMsg::AssignTask { job, spec, jm, .. } => (job, spec, jm, None),
            NetMsg::StealGrant { job, spec, jm, client, directory, old_endpoint, .. } => {
                self.raiding = None;
                (job, spec, jm, Some((directory, client, old_endpoint)))
            }
            _ => return,
        };
        let (key, stolen_from) = ((job, spec.name.clone()), grant.as_ref().map(|g| g.2));
        let (endpoint, held, reservation) = match hosted {
            Ok(hosted) => hosted,
            Err(_) if grant.is_some() => {
                return self.tell(env.from, NetMsg::StealReturn { job, task: key.1 })
            }
            Err(_) => return,
        };
        let (held, reservation) = (Some(held), Some(reservation));
        let stage = if grant.is_some() { Stage::Queued } else { Stage::Assigned };
        let t = Task { spec, jm, endpoint, held, reservation, stage, stolen_from };
        self.tasks.insert(key.clone(), t);
        let Some((mut directory, client, _)) = grant else { return };
        // Its own entry points at its new home, so what it sends itself takes
        // no detour through the victim.
        directory.insert(key.1.clone(), endpoint);
        let (task, server, tm) = (key.1.clone(), self.name.clone(), self.me);
        let commit = NetMsg::TaskMigrated { job, task, server, tm, task_addr: endpoint };
        self.tell(jm, commit.clone());
        if env.from != jm {
            self.tell(env.from, commit);
        }
        self.queue.push_back((key, (directory, client), now));
        self.drain(now);
        self.report(now);
    }

    /// Victim side: the thief has the task. Its old endpoint becomes an alias
    /// of this server, which the thief's `Shutdown` ends as the task leaves
    /// it. If its job ended while the grant was in flight, the thief is also
    /// told to cancel it.
    fn migrated(&mut self, key: Key, thief: Addr, task_addr: Addr) {
        let Some(Stage::Granted { cancelled, .. }) = self.tasks.get(&key).map(|t| &t.stage) else {
            return;
        };
        let cancel = cancelled.then(|| NetMsg::CancelTask { job: key.0, task: key.1.clone() });
        let Some(Task { endpoint, held, stolen_from, .. }) = self.tasks.remove(&key) else {
            return;
        };
        self.moved.insert(endpoint, Moved { key, thief, new: task_addr, before: stolen_from });
        if let Some(held) = held {
            self.actions.push(Action::Alias { old: endpoint, held });
        }
        if let Some(cancel) = cancel {
            self.tell(thief, cancel);
        }
    }

    /// Victim side: the thief could not host the task. It is dropped if its
    /// job ended meanwhile; else re-reserved, and queued again or, if that
    /// fails, failed loudly rather than lost.
    fn returned(&mut self, key: Key, reserved: Option<Result<R, String>>, now: Instant) {
        let Some(t) = self.tasks.get_mut(&key) else { return };
        let Stage::Granted { cancelled, .. } = t.stage else { return };
        match reserved {
            _ if cancelled => self.leave(&key),
            None => {
                let ((job, task), memory_mb) = (key, t.spec.memory_mb);
                self.actions.push(Action::Reserve { job, task, memory_mb });
            }
            Some(Ok(reservation)) => {
                t.reservation = Some(reservation);
                if let Stage::Granted { start, .. } = std::mem::replace(&mut t.stage, Stage::Queued)
                {
                    self.queue.push_back((key, start, now));
                }
                self.drain(now);
                self.report(now);
            }
            Some(Err(e)) => {
                let jm = t.jm;
                self.leave(&key);
                let ((job, task), error) = (key, format!("steal return could not re-reserve: {e}"));
                self.tell(jm, NetMsg::TaskFailed { job, task, error });
            }
        }
    }

    /// Victim side: a message for the old endpoint of a task stolen from here
    /// goes on to its new one. The thief's `Shutdown`, sent as the task left,
    /// ends the alias, and goes on to where the task had been stolen from.
    fn forward(&mut self, env: Envelope<NetMsg>) {
        if matches!(env.msg, NetMsg::Shutdown) {
            let before = self.moved.remove(&env.to).and_then(|moved| moved.before);
            self.actions.push(Action::Release { endpoint: env.to });
            if let Some(before) = before {
                self.tell(before, NetMsg::Shutdown);
            }
        } else if let Some(new) = self.moved.get(&env.to).map(|moved| moved.new) {
            self.actions.push(Action::Post { from: env.from, to: new, msg: env.msg });
        }
    }

    /// Report a changed signal at most once per heartbeat, but the edge into
    /// stealable territory at once; and nothing without stealing.
    fn report(&mut self, now: Instant) {
        let (signal, last) = (self.signal(), self.reported.map(|(signal, _)| signal));
        let due = self.reported.is_none_or(|(_, at)| now.duration_since(at) >= STEAL_HEARTBEAT);
        let edge = signal.queue_depth >= STEAL_THRESHOLD
            && last.is_none_or(|last| last.queue_depth < STEAL_THRESHOLD);
        if self.steal && last != Some(signal) && (due || edge) {
            self.reported = Some((signal, now));
            self.actions.push(Action::Report(self.load_report()));
        }
    }

    fn load_report(&self) -> NetMsg {
        NetMsg::LoadReport { server: self.name.clone(), addr: self.me, signal: self.signal() }
    }

    /// Post `msg` from this server.
    fn tell(&mut self, to: Addr, msg: NetMsg) {
        self.actions.push(Action::Post { from: self.me, to, msg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::rc::Rc;

    /// Stands in for what the server holds for a hosted task (its endpoint's
    /// queue, its reservation): it counts itself while it lives.
    struct Token(Rc<Cell<i64>>);

    impl Token {
        fn new(live: &Rc<Cell<i64>>) -> Token {
            live.set(live.get() + 1);
            Token(Rc::clone(live))
        }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            self.0.set(self.0.get() - 1);
        }
    }

    type Tm = Tasks<Token, Token>;
    type Acts = Vec<Action<Token, Token>>;

    const JM: Addr = Addr(100);
    const CLIENT: Addr = Addr(200);
    const ME: Addr = Addr(1);

    fn key(i: usize) -> Key {
        (JobId(1 + i as u64 % 2), format!("t{i}"))
    }

    fn env(from: Addr, to: Addr, msg: NetMsg) -> Envelope<NetMsg> {
        Envelope { from, to, msg }
    }

    /// Host task `i` at `tm` with the endpoint `endpoint`.
    fn assign(tm: &mut Tm, i: usize, endpoint: Addr, live: &Rc<Cell<i64>>, now: Instant) -> Acts {
        let (job, task) = key(i);
        let spec = TaskSpec::new(task, "x.jar", "X");
        let msg = NetMsg::AssignTask { job, spec, jm: JM, reply_to: JM };
        let hosted = Ok((endpoint, Token::new(live), Token::new(live)));
        tm.on(Event::Hosted { env: env(JM, tm.me, msg), hosted }, now)
    }

    fn start(tm: &mut Tm, i: usize, now: Instant) -> Acts {
        let ((job, task), directory) = (key(i), HashMap::new());
        let msg = NetMsg::StartTask { job, task, directory, client: CLIENT };
        tm.on(Event::Net(env(JM, tm.me, msg)), now)
    }

    fn net(tm: &mut Tm, from: Addr, msg: NetMsg, now: Instant) -> Acts {
        tm.on(Event::Net(env(from, tm.me, msg)), now)
    }

    /// The queue depths of the reports among `acts`.
    fn reports(acts: &Acts) -> Vec<u32> {
        let depth = |a: &Action<Token, Token>| match a {
            Action::Report(NetMsg::LoadReport { signal, .. }) => Some(signal.queue_depth),
            _ => None,
        };
        acts.iter().filter_map(depth).collect()
    }

    /// Where the `StealRequest`s among `acts` went.
    fn raids(acts: &Acts) -> Vec<Addr> {
        let to = |a: &Action<Token, Token>| match a {
            Action::Post { to, msg: NetMsg::StealRequest { .. }, .. } => Some(*to),
            _ => None,
        };
        acts.iter().filter_map(to).collect()
    }

    /// One slot, stealing on, and tasks `0..n` assigned.
    fn one_slot(n: usize, live: &Rc<Cell<i64>>, t0: Instant) -> Tm {
        let mut tm = Tm::new("v".into(), ME, Some(1), true);
        for i in 0..n {
            assign(&mut tm, i, Addr(1000 + i as u64), live, t0);
        }
        tm
    }

    #[test]
    fn at_most_one_report_per_heartbeat() {
        let (live, t0, ms) = (Rc::new(Cell::new(0)), Instant::now(), Duration::from_millis(1));
        let (mut tm, nearly) = (one_slot(8, &live, t0), STEAL_HEARTBEAT - Duration::from_nanos(1));
        assert_eq!(reports(&start(&mut tm, 0, t0)), [0u32; 0], "a launch is not news");
        assert_eq!(reports(&start(&mut tm, 1, t0)), [1], "the edge");
        assert_eq!(reports(&start(&mut tm, 2, t0 + ms)), [0u32; 0]);
        assert_eq!(reports(&start(&mut tm, 3, t0 + nearly)), [0u32; 0]);
        assert_eq!(reports(&start(&mut tm, 4, t0 + STEAL_HEARTBEAT)), [4]);
        assert_eq!(reports(&start(&mut tm, 5, t0 + STEAL_HEARTBEAT)), [0u32; 0]);
        assert_eq!(reports(&start(&mut tm, 6, t0 + STEAL_HEARTBEAT + nearly)), [0u32; 0]);
        assert_eq!(reports(&start(&mut tm, 7, t0 + 2 * STEAL_HEARTBEAT)), [7]);
    }

    #[test]
    fn the_edge_into_the_threshold_is_reported_at_once() {
        let (live, t0, us) = (Rc::new(Cell::new(0)), Instant::now(), Duration::from_micros(1));
        let mut tm = one_slot(4, &live, t0);
        start(&mut tm, 0, t0);
        let (job, task) = key(0);
        assert_eq!(reports(&net(&mut tm, ME, NetMsg::TaskExited { job, task }, t0)), [0]);
        assert_eq!(reports(&start(&mut tm, 1, t0 + us)), [0u32; 0], "a launch is not news");
        assert_eq!(reports(&start(&mut tm, 2, t0 + 2 * us)), [1], "into the threshold");
        assert_eq!(reports(&start(&mut tm, 3, t0 + 3 * us)), [0u32; 0], "deeper is not an edge");
    }

    #[test]
    fn a_pending_raid_blocks_another_for_exactly_the_stale_interval() {
        let (t0, ns) = (Instant::now(), Duration::from_nanos(1));
        let mut thief = Tm::new("thief".into(), ME, Some(1), true);
        let report = |addr: u64, queue_depth: u32| NetMsg::LoadReport {
            server: format!("s{addr}"),
            addr: Addr(addr),
            signal: LoadSignal { queue_depth, ..LoadSignal::default() },
        };
        assert_eq!(raids(&net(&mut thief, Addr(2), report(2, 2), t0)), [Addr(2)]);
        let nearly = t0 + STEAL_STALE - ns;
        assert_eq!(raids(&net(&mut thief, Addr(3), report(3, 3), nearly)), []);
        let stale = t0 + STEAL_STALE;
        assert_eq!(raids(&net(&mut thief, Addr(3), report(3, 3), stale)), [Addr(3)]);
        // The victim's report is its decline: the next raid may go at once.
        assert_eq!(raids(&net(&mut thief, Addr(3), report(3, 0), stale + ns)), [Addr(2)]);
    }

    /// The grant of task 1 from a victim with one slot, at `t0`.
    fn granted(live: &Rc<Cell<i64>>, t0: Instant) -> (Tm, Addr) {
        let mut victim = one_slot(2, live, t0);
        start(&mut victim, 0, t0);
        start(&mut victim, 1, t0);
        let thief = Addr(9);
        let acts = net(
            &mut victim,
            thief,
            NetMsg::StealRequest { thief: "t".into(), reply_to: thief },
            t0,
        );
        let grant =
            acts.iter().any(|a| matches!(a, Action::Post { msg: NetMsg::StealGrant { .. }, .. }));
        assert!(grant);
        (victim, thief)
    }

    #[test]
    fn a_commit_that_crossed_a_cancel_is_answered_with_a_cancel() {
        let (live, t0) = (Rc::new(Cell::new(0)), Instant::now());
        let (mut victim, thief) = granted(&live, t0);
        let (job, task) = key(1);
        assert!(net(&mut victim, JM, NetMsg::CancelTask { job, task: task.clone() }, t0).is_empty());
        let (server, tm, task_addr) = ("t".to_string(), thief, Addr(2000));
        let commit = NetMsg::TaskMigrated { job, task: task.clone(), server, tm, task_addr };
        let acts = net(&mut victim, thief, commit, t0);
        assert!(matches!(&acts[..], [
            Action::Alias { old: Addr(1001), .. },
            Action::Post { to, msg: NetMsg::CancelTask { .. }, .. },
        ] if *to == thief));
        drop(acts);
        // The old endpoint stays an alias until the thief's copy leaves and
        // says so: its `Shutdown` there ends the alias.
        assert_eq!(victim.aliases().collect::<Vec<_>>(), [Addr(1001)]);
        let acts = victim.on(Event::Net(env(thief, Addr(1001), NetMsg::Shutdown)), t0);
        assert!(matches!(&acts[..], [Action::Release { endpoint: Addr(1001) }]));
        assert_eq!(victim.aliases().count(), 0);
        // Task 0's tokens went with its launch, which the test dropped, and
        // task 1's with its alias.
        assert_eq!(live.get(), 0);
    }

    #[test]
    fn a_return_that_crossed_a_cancel_drops_the_task() {
        let (live, t0) = (Rc::new(Cell::new(0)), Instant::now());
        let (mut victim, thief) = granted(&live, t0);
        let (job, task) = key(1);
        net(&mut victim, JM, NetMsg::CancelTask { job, task: task.clone() }, t0);
        let acts = net(&mut victim, thief, NetMsg::StealReturn { job, task }, t0);
        assert!(matches!(&acts[..], [Action::Release { endpoint: Addr(1001), .. }]));
    }

    #[test]
    fn a_cancel_after_the_commit_goes_on_to_the_thief() {
        let (live, t0) = (Rc::new(Cell::new(0)), Instant::now());
        let (mut victim, thief) = granted(&live, t0);
        let (job, task) = key(1);
        let (server, tm, task_addr) = ("t".to_string(), thief, Addr(2000));
        let commit = NetMsg::TaskMigrated { job, task: task.clone(), server, tm, task_addr };
        let acts = net(&mut victim, thief, commit, t0);
        assert!(matches!(&acts[..], [Action::Alias { old: Addr(1001), .. }]));
        let acts = net(&mut victim, JM, NetMsg::CancelTask { job, task }, t0);
        assert!(
            matches!(&acts[..], [Action::Post { to, msg: NetMsg::CancelTask { .. }, .. }] if *to == thief)
        );
    }

    /// A tiny deterministic die for the interleavings (xorshift).
    struct Dice(u64);

    impl Dice {
        fn roll(&mut self, sides: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % sides.max(1) as u64) as usize
        }
    }

    /// Where an endpoint stands, as the servers around the values see it.
    enum Ep {
        /// Registered: what is sent to it waits for its task.
        Queue(Vec<Envelope<NetMsg>>),
        /// Its task runs on a thread, which holds the tokens; `stop` once it
        /// has been sent `Shutdown`.
        Running { key: Key, at: usize, stop: bool, _held: (Token, Token) },
        /// An alias of TaskManager `at`.
        Alias(usize),
        /// Unregistered by its TaskManager ([`Action::Release`]).
        Released,
        /// Unregistered by its task's thread as it ended.
        Gone,
    }

    /// What the JobManager knows of a task.
    #[derive(Default)]
    struct Fate {
        placed: Option<Addr>,
        refused: bool,
        started: bool,
        cancelled: bool,
        failed: bool,
        launched: usize,
    }

    /// TaskManagers at `Addr(1)…`, the JobManager of their tasks and the
    /// threads and endpoints around them, on a synthetic clock. What they
    /// post waits in a mailbox that delivers in any order.
    struct World {
        tms: Vec<Tm>,
        steal: bool,
        now: Instant,
        dice: Dice,
        live: Rc<Cell<i64>>,
        mailbox: Vec<Envelope<NetMsg>>,
        endpoints: HashMap<Addr, Ep>,
        fates: Vec<Fate>,
        /// Each task's first endpoint, where its peers' data goes.
        first: HashMap<usize, Addr>,
        /// `Shutdown`s posted to each endpoint.
        shutdowns: HashMap<Addr, usize>,
        /// The old endpoints of committed steals.
        stolen: HashSet<Addr>,
        /// Grants posted, and commits and returns posted for them.
        grants: usize,
        settled: usize,
        data_sent: u64,
        data_got: HashSet<String>,
    }

    fn tm_addr(at: usize) -> Addr {
        Addr(at as u64 + 1)
    }

    fn index(key: &Key) -> usize {
        key.1[1..].parse().unwrap()
    }

    impl World {
        fn new(tms: usize, slots: Option<usize>, steal: bool, tasks: usize, seed: u64) -> World {
            let tm = |at| Tm::new(format!("tm{at}"), tm_addr(at), slots, steal);
            World {
                tms: (0..tms).map(tm).collect(),
                steal,
                now: Instant::now(),
                dice: Dice(seed | 1),
                live: Rc::new(Cell::new(0)),
                mailbox: Vec::new(),
                endpoints: HashMap::new(),
                fates: (0..tasks).map(|_| Fate::default()).collect(),
                first: HashMap::new(),
                shutdowns: HashMap::new(),
                stolen: HashSet::new(),
                grants: 0,
                settled: 0,
                data_sent: 0,
                data_got: HashSet::new(),
            }
        }

        fn endpoint(&mut self) -> Addr {
            let endpoint = Addr(1000 + self.endpoints.len() as u64);
            self.endpoints.insert(endpoint, Ep::Queue(Vec::new()));
            endpoint
        }

        fn hosting(&mut self, refuse: usize) -> Hosting<Token, Token> {
            if self.dice.roll(refuse) == 0 {
                return Err("no room".into());
            }
            Ok((self.endpoint(), Token::new(&self.live), Token::new(&self.live)))
        }

        /// Hand TaskManager `at` the event, and carry out what it asks as its
        /// server would, until it has nothing left to say.
        fn on(&mut self, at: usize, event: Event<Token, Token>) -> Result<(), TestCaseError> {
            let mut events = VecDeque::from([event]);
            while let Some(event) = events.pop_front() {
                for action in self.tms[at].on(event, self.now) {
                    self.carry(at, action, &mut events)?;
                }
                let tm = &self.tms[at];
                let stage =
                    |s: fn(&Stage) -> bool| tm.tasks.values().filter(|t| s(&t.stage)).count();
                prop_assert!(
                    tm.running <= tm.slots,
                    "{} running on {} slots",
                    tm.running,
                    tm.slots
                );
                prop_assert_eq!(tm.running, stage(|s| matches!(s, Stage::Running)));
                let queued = stage(|s| matches!(s, Stage::Queued));
                prop_assert_eq!(tm.signal().queue_depth as usize, queued);
            }
            Ok(())
        }

        fn carry(
            &mut self,
            at: usize,
            action: Action<Token, Token>,
            events: &mut VecDeque<Event<Token, Token>>,
        ) -> Result<(), TestCaseError> {
            match action {
                Action::Post { from, to, msg } => {
                    let stealing =
                        matches!(msg, NetMsg::StealRequest { .. } | NetMsg::LoadReport { .. });
                    prop_assert!(self.steal || !stealing, "{:?} without stealing", msg);
                    // What a TaskManager says itself never goes to an endpoint
                    // that one has unregistered: it could not be delivered.
                    let released = matches!(self.endpoints.get(&to), Some(Ep::Released));
                    prop_assert!(
                        from != tm_addr(at) || !released,
                        "{:?} to released {:?}",
                        msg,
                        to
                    );
                    match &msg {
                        NetMsg::Shutdown => *self.shutdowns.entry(to).or_default() += 1,
                        NetMsg::StealGrant { .. } => self.grants += 1,
                        NetMsg::StealReturn { .. } => self.settled += 1,
                        NetMsg::TaskMigrated { job, task, .. } if to != JM => {
                            self.settled += 1;
                            let t = self.tms[at].tasks.get(&(*job, task.clone()));
                            let old = t.and_then(|t| t.stolen_from);
                            prop_assert!(old.is_some(), "a commit of a task not stolen");
                            self.stolen.extend(old);
                        }
                        _ => {}
                    }
                    self.mailbox.push(env(from, to, msg));
                }
                Action::Report(msg) => {
                    prop_assert!(self.steal, "a report without stealing");
                    for to in (0..self.tms.len()).filter(|to| *to != at) {
                        self.mailbox.push(env(tm_addr(at), tm_addr(to), msg.clone()));
                    }
                }
                Action::Launch(Launch { job, spec, endpoint, held, reservation, .. }) => {
                    let key = (job, spec.name);
                    let fate = &mut self.fates[index(&key)];
                    fate.launched += 1;
                    prop_assert!(fate.launched == 1, "{:?} launched twice", key);
                    let queued = match self.endpoints.remove(&endpoint) {
                        Some(Ep::Queue(queued)) => queued,
                        _ => return Err(TestCaseError::fail("a launch from a queue that is not")),
                    };
                    let mut stop = false;
                    for env in queued {
                        stop |= matches!(env.msg, NetMsg::Shutdown);
                        self.got(env.msg)?;
                    }
                    let _held = (held, reservation);
                    self.endpoints.insert(endpoint, Ep::Running { key, at, stop, _held });
                }
                Action::Release { endpoint } => {
                    let was = self.endpoints.insert(endpoint, Ep::Released);
                    let alias = matches!(was, Some(Ep::Alias(by)) if by == at);
                    prop_assert!(
                        alias || matches!(was, Some(Ep::Queue(_))),
                        "a release of {:?}",
                        endpoint
                    );
                }
                Action::Alias { old, held } => {
                    let queued = match self.endpoints.insert(old, Ep::Alias(at)) {
                        Some(Ep::Queue(queued)) => queued,
                        _ => return Err(TestCaseError::fail("an alias of a queue that is not")),
                    };
                    events.extend(queued.into_iter().map(Event::Net));
                    drop(held);
                }
                Action::Reserve { job, task, .. } => {
                    let reserved = match self.dice.roll(4) {
                        0 => Err("full".to_string()),
                        _ => Ok(Token::new(&self.live)),
                    };
                    events.push_back(Event::Reserved { job, task, reserved });
                }
                Action::Granted { .. } => {}
            }
            Ok(())
        }

        /// A task's thread takes a peer's data: each piece at most once.
        fn got(&mut self, msg: NetMsg) -> Result<(), TestCaseError> {
            if let NetMsg::TaskStarted { task, .. } = msg {
                prop_assert!(self.data_got.insert(task.clone()), "{} twice", task);
            }
            Ok(())
        }

        fn deliver(&mut self, env: Envelope<NetMsg>) -> Result<(), TestCaseError> {
            if env.to == JM {
                match env.msg {
                    NetMsg::TaskMigrated { job, task, tm, .. } => {
                        self.fates[index(&(job, task))].placed = Some(tm)
                    }
                    NetMsg::TaskFailed { job, task, .. } => {
                        self.fates[index(&(job, task))].failed = true
                    }
                    _ => {}
                }
                return Ok(());
            }
            if let Some(at) = (0..self.tms.len()).find(|at| tm_addr(*at) == env.to) {
                if matches!(env.msg, NetMsg::StealGrant { .. }) {
                    let hosted = self.hosting(4);
                    return self.on(at, Event::Hosted { env, hosted });
                }
                return self.on(at, Event::Net(env));
            }
            match self.endpoints.get_mut(&env.to) {
                Some(Ep::Queue(queued)) => queued.push(env),
                Some(Ep::Running { stop, .. }) => {
                    *stop |= matches!(env.msg, NetMsg::Shutdown);
                    self.got(env.msg)?;
                }
                Some(Ep::Alias(at)) => {
                    let at = *at;
                    return self.on(at, Event::Net(env));
                }
                _ => {}
            }
            Ok(())
        }

        fn deliver_any(&mut self) -> Result<bool, TestCaseError> {
            if self.mailbox.is_empty() {
                return Ok(false);
            }
            let env = self.mailbox.swap_remove(self.dice.roll(self.mailbox.len()));
            self.deliver(env).map(|()| true)
        }

        /// A running task's thread ends: one cancelled only once it has been
        /// told to stop, the others when they like.
        fn exit_any(&mut self) -> Result<bool, TestCaseError> {
            let ending = |ep: &Ep, fates: &[Fate]| matches!(ep, Ep::Running { key, stop, .. } if *stop || !fates[index(key)].cancelled);
            let mut ends: Vec<Addr> = self
                .endpoints
                .iter()
                .filter(|(_, ep)| ending(ep, &self.fates))
                .map(|(a, _)| *a)
                .collect();
            ends.sort();
            if ends.is_empty() {
                return Ok(false);
            }
            let endpoint = ends[self.dice.roll(ends.len())];
            if let Some(Ep::Running { key: (job, task), at, .. }) =
                self.endpoints.insert(endpoint, Ep::Gone)
            {
                self.mailbox.push(env(endpoint, tm_addr(at), NetMsg::TaskExited { job, task }));
            }
            Ok(true)
        }

        /// One step of the JobManager, the mailbox, a thread or the clock.
        fn step(&mut self) -> Result<(), TestCaseError> {
            let i = self.dice.roll(self.fates.len());
            let (job, task) = key(i);
            match self.dice.roll(16) {
                0..=2 if self.fates[i].placed.is_none() && !self.fates[i].refused => {
                    // The first TaskManager gets the most, so queues form.
                    let at = if self.dice.roll(4) > 0 { 0 } else { self.dice.roll(self.tms.len()) };
                    let hosted = self.hosting(6);
                    let Ok((endpoint, held, reservation)) = hosted else {
                        self.fates[i].refused = true;
                        return Ok(());
                    };
                    self.first.insert(i, endpoint);
                    self.fates[i].placed = Some(tm_addr(at));
                    let spec = TaskSpec::new(task, "x.jar", "X");
                    let msg = NetMsg::AssignTask { job, spec, jm: JM, reply_to: JM };
                    let hosted = Ok((endpoint, held, reservation));
                    self.on(at, Event::Hosted { env: env(JM, tm_addr(at), msg), hosted })?;
                }
                3..=5 => {
                    let fate = &mut self.fates[i];
                    let Some(tm) = fate.placed.filter(|_| !fate.cancelled) else { return Ok(()) };
                    // Sometimes twice.
                    fate.started = true;
                    let msg =
                        NetMsg::StartTask { job, task, directory: HashMap::new(), client: CLIENT };
                    self.mailbox.push(env(JM, tm, msg));
                }
                6 if self.dice.roll(4) == 0 => {
                    // Its job ends: most often while a grant or a commit of
                    // it is in flight, the race the handoff has to survive.
                    let moving = |tm: &Tm| {
                        let granted = tm
                            .tasks
                            .iter()
                            .filter(|(_, t)| matches!(t.stage, Stage::Granted { .. }));
                        let moved = tm.moved.values().map(|m| &m.key);
                        granted.map(|(key, _)| key).chain(moved).map(index).collect::<Vec<_>>()
                    };
                    let moving: Vec<usize> = self.tms.iter().flat_map(moving).collect();
                    let i = match self.dice.roll(2) {
                        0 if !moving.is_empty() => moving[self.dice.roll(moving.len())],
                        _ => i,
                    };
                    let fate = &mut self.fates[i];
                    let Some(tm) = fate.placed.filter(|_| !fate.cancelled) else { return Ok(()) };
                    fate.cancelled = true;
                    let (job, task) = key(i);
                    self.mailbox.push(env(JM, tm, NetMsg::CancelTask { job, task }));
                }
                7 => {
                    // A peer's data, sent to the task's first address.
                    let Some(&to) = self.first.get(&i) else { return Ok(()) };
                    self.data_sent += 1;
                    let msg = NetMsg::TaskStarted { job, task: format!("data{}", self.data_sent) };
                    self.mailbox.push(env(CLIENT, to, msg));
                }
                8 => {
                    self.exit_any()?;
                }
                10 => self.now += Duration::from_micros(self.dice.roll(3000) as u64),
                11 if self.dice.roll(6) == 0 => {
                    self.now += STEAL_STALE + Duration::from_millis(self.dice.roll(1000) as u64)
                }
                _ => {
                    self.deliver_any()?;
                }
            }
            Ok(())
        }

        /// Deliver everything and let every thread that can end, end.
        fn settle(&mut self) -> Result<(), TestCaseError> {
            for _ in 0..100_000 {
                if !self.deliver_any()? && !self.exit_any()? {
                    return Ok(());
                }
            }
            Err(TestCaseError::fail("the world never settles"))
        }

        fn check(&self) -> Result<(), TestCaseError> {
            let holds = |i: usize| self.tms.iter().any(|tm| tm.tasks.contains_key(&key(i)));
            for (i, fate) in self.fates.iter().enumerate() {
                if fate.started && !fate.cancelled && !fate.failed {
                    prop_assert!(fate.launched == 1, "t{} started, run {} times", i, fate.launched);
                }
                if fate.cancelled {
                    prop_assert!(!holds(i), "t{} cancelled but still held", i);
                }
            }
            let running = self.endpoints.values().filter(|ep| matches!(ep, Ep::Running { .. }));
            prop_assert!(running.count() == 0, "a cancelled task runs for good");
            prop_assert!(
                self.grants == self.settled,
                "{} grants, {} settled",
                self.grants,
                self.settled
            );
            for old in &self.stolen {
                let told = self.shutdowns.get(old);
                prop_assert!(told == Some(&1), "{:?} told to stop {:?} times", old, told);
            }
            prop_assert!(
                !self.endpoints.values().any(|ep| matches!(ep, Ep::Alias(_))),
                "an alias left"
            );
            let held =
                |t: &Task<Token, Token>| t.held.is_some() as i64 + t.reservation.is_some() as i64;
            let held: i64 = self.tms.iter().flat_map(|tm| tm.tasks.values()).map(held).sum();
            prop_assert!(self.live.get() == held, "{} tokens live, {} held", self.live.get(), held);
            Ok(())
        }
    }

    /// One case: `tms` TaskManagers of `slots` slots each (unbounded for 0),
    /// stealing for `steal` > 0, and `tasks` tasks.
    fn a_world(
        tms: usize,
        slots: usize,
        steal: u8,
        tasks: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let slots = (slots > 0).then_some(slots);
        let mut world = World::new(tms, slots, steal > 0, tasks, seed);
        for _ in 0..400 {
            world.step()?;
        }
        world.settle()?;
        world.check()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn every_task_runs_once_and_every_cancel_is_released_once(
            tms in 2usize..4,
            slots in 0usize..4,
            steal in 0u8..4,
            tasks in 2usize..12,
            seed in any::<u64>(),
        ) {
            a_world(tms, slots, steal, tasks, seed)?;
        }
    }
}
