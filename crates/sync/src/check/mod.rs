//! The controlled scheduler behind the facade.
//!
//! A model run serializes the program onto one *running* task at a time:
//! every instrumented operation (lock, unlock, condvar wait/notify, channel
//! send/receive, spawn, join) is a schedule point where the scheduler may
//! switch tasks. Tasks are real OS threads parked on a turnstile; memory
//! ordering between consecutive running tasks is provided by the scheduler
//! mutex itself, so scenario state needs no extra synchronization.
//!
//! Blocking is *modeled*: a task that would block (contended lock, empty
//! channel, condvar wait) parks in the scheduler, never in the real
//! primitive, which is how deadlocks become observable — when every live
//! task is blocked and no timed wait can fire, the run aborts with a
//! [`HazardKind::Deadlock`] and a replayable counterexample. Timed waits
//! only fire on global quiescence (a "timeout escape"), so a schedule that
//! needs one to make progress has lost a wakeup.
//!
//! Exploration strategies: seeded PCT-style randomized priorities
//! ([`Strategy::Pct`]) and explicit-schedule replay ([`Strategy::Replay`])
//! for reproducing counterexamples.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdGuard, Once};

use crate::model::{Counterexample, Event, Hazard, HazardKind, LockOrderGraph, Op, RunReport};

// ---------------------------------------------------------------------------
// Public exploration API
// ---------------------------------------------------------------------------

/// How to pick the next task at each scheduling decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// PCT-style randomized priority schedules: each schedule assigns
    /// random priorities to tasks from a per-schedule seed and demotes the
    /// highest-priority runnable task at a few random change points.
    Pct { seed: u64, schedules: u32 },
    /// Replay an explicit choice list (a counterexample schedule).
    Replay { schedule: Vec<u32> },
}

/// Options for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreOpts {
    /// Scenario name, copied into the [`RunReport`].
    pub scenario: String,
    pub strategy: Strategy,
    /// Per-schedule step budget; exceeding it records
    /// [`HazardKind::StepLimit`] (livelock guard).
    pub max_steps: u64,
    /// Treat any timeout escape as [`HazardKind::LostNotify`] and abort.
    /// Set for scenarios whose wakeups must never rely on a timed wait.
    pub fail_on_timeout_escape: bool,
}

impl ExploreOpts {
    pub fn new(scenario: impl Into<String>, strategy: Strategy) -> ExploreOpts {
        ExploreOpts {
            scenario: scenario.into(),
            strategy,
            max_steps: 20_000,
            fail_on_timeout_escape: false,
        }
    }
}

/// Run `f` under the controlled scheduler, exploring interleavings per the
/// strategy. `f` is invoked once per schedule as model task 0 and may spawn
/// further tasks through the facade. Returns the merged report; exploration
/// stops at the first hazard, whose witness is in `counterexample`.
pub fn explore<F>(opts: ExploreOpts, f: F) -> RunReport
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut report = RunReport { scenario: opts.scenario.clone(), ..RunReport::default() };
    let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
    let mut cv_hold: BTreeSet<(String, String)> = BTreeSet::new();

    let mut finish = |report: &mut RunReport, out: RunOutcome, seed: u64| -> bool {
        report.schedules += 1;
        report.steps += out.steps;
        report.timeout_escapes += out.timeout_escapes;
        edges.extend(out.lock_edges);
        cv_hold.extend(out.cv_hold);
        if out.hazards.is_empty() {
            return false;
        }
        report.hazards = out.hazards;
        report.counterexample =
            Some(Counterexample { seed, schedule: out.choices, trace: out.trace });
        true
    };

    match opts.strategy.clone() {
        Strategy::Pct { seed, schedules } => {
            let mut est_len = 0u64;
            for i in 0..schedules {
                let sseed = mix_seed(seed, i as u64);
                let out = run_one(
                    Arc::clone(&f),
                    StratState::new_pct(sseed, est_len),
                    opts.max_steps,
                    opts.fail_on_timeout_escape,
                );
                est_len = est_len.max(out.steps);
                if finish(&mut report, out, sseed) {
                    break;
                }
            }
        }
        Strategy::Replay { schedule } => {
            let out = run_one(
                Arc::clone(&f),
                StratState::Replay { schedule, cursor: 0 },
                opts.max_steps,
                opts.fail_on_timeout_escape,
            );
            finish(&mut report, out, 0);
        }
    }

    report.lock_graph = LockOrderGraph::from_edges(edges);
    report.cv_wait_holding = cv_hold.into_iter().collect();
    report
}

fn mix_seed(seed: u64, i: u64) -> u64 {
    let mut r = Rng(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next()
}

// ---------------------------------------------------------------------------
// Strategy state
// ---------------------------------------------------------------------------

/// SplitMix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

enum StratState {
    Pct { rng_state: u64, priorities: Vec<i64>, change_points: Vec<u64>, next_low: i64 },
    Replay { schedule: Vec<u32>, cursor: usize },
}

impl StratState {
    /// `est_len` is the estimated schedule length (max steps observed in
    /// earlier schedules of this exploration); change points are drawn
    /// uniformly from it so demotions actually land inside the run.
    fn new_pct(seed: u64, est_len: u64) -> StratState {
        let mut rng = Rng(seed);
        let span = est_len.max(8);
        let change_points = (0..3).map(|_| rng.next() % span + 1).collect();
        StratState::Pct {
            rng_state: rng.0,
            priorities: Vec::new(),
            change_points,
            next_low: 1 << 31,
        }
    }

    fn on_task_registered(&mut self) {
        if let StratState::Pct { rng_state, priorities, .. } = self {
            let mut rng = Rng(*rng_state);
            let p = (rng.next() % (1 << 32)) as i64 + (1i64 << 32);
            *rng_state = rng.0;
            priorities.push(p);
        }
    }

    /// Pick an index into the ascending-id runnable set.
    fn pick(&mut self, steps: u64, runnable: &[u32]) -> usize {
        match self {
            StratState::Pct { rng_state, priorities, change_points, next_low } => {
                if change_points.contains(&steps) {
                    let mut rng = Rng(*rng_state);
                    let _ = rng.next();
                    *rng_state = rng.0;
                    let demote = runnable
                        .iter()
                        .copied()
                        .max_by_key(|&t| priorities[t as usize])
                        .expect("non-empty runnable");
                    priorities[demote as usize] = *next_low;
                    *next_low -= 1;
                }
                let mut best = 0usize;
                for (i, &t) in runnable.iter().enumerate() {
                    if priorities[t as usize] > priorities[runnable[best] as usize] {
                        best = i;
                    }
                }
                best
            }
            StratState::Replay { schedule, cursor } => {
                let idx = schedule.get(*cursor).copied().unwrap_or(0) as usize;
                *cursor += 1;
                idx.min(runnable.len() - 1)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum BlockedOn {
    Lock { addr: usize, name: String },
    Cv { cv_addr: usize, name: String, timed: bool },
    Chan { id: u64, name: String, timed: bool },
    Join { task: u32 },
}

impl BlockedOn {
    fn timed(&self) -> bool {
        match self {
            BlockedOn::Cv { timed, .. } | BlockedOn::Chan { timed, .. } => *timed,
            _ => false,
        }
    }

    fn describe(&self) -> String {
        match self {
            BlockedOn::Lock { name, .. } => format!("lock {name}"),
            BlockedOn::Cv { name, .. } => format!("condvar {name}"),
            BlockedOn::Chan { name, .. } => format!("channel {name}"),
            BlockedOn::Join { task } => format!("join task-{task}"),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TaskState {
    Runnable,
    Running,
    Blocked(BlockedOn),
    Finished,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Held {
    addr: usize,
    name: String,
}

struct TaskInfo {
    state: TaskState,
    held: Vec<Held>,
    wake_timed_out: bool,
}

impl TaskInfo {
    fn new() -> TaskInfo {
        TaskInfo { state: TaskState::Runnable, held: Vec::new(), wake_timed_out: false }
    }
}

struct LockState {
    name: String,
    holder: Option<u32>,
}

struct ChanState {
    name: String,
    len: usize,
    senders: usize,
}

struct Sched {
    tasks: Vec<TaskInfo>,
    active: Option<u32>,
    locks: HashMap<usize, LockState>,
    anon_locks: u32,
    chans: HashMap<u64, ChanState>,
    next_chan: u64,
    trace: Vec<Event>,
    choices: Vec<u32>,
    steps: u64,
    max_steps: u64,
    strat: StratState,
    hazards: Vec<Hazard>,
    lock_edges: BTreeSet<(String, String)>,
    cv_hold: BTreeSet<(String, String)>,
    timeout_escapes: u64,
    fail_on_escape: bool,
    aborted: bool,
    spawned: u32,
    exited: u32,
}

/// Payload used to unwind tasks when a run aborts; never reported.
pub(crate) struct ModelAbort;

pub(crate) enum RecvMode {
    Try,
    Block,
    Timed,
}

pub(crate) enum RecvOutcome {
    Data,
    Empty,
    Disconnected,
    TimedOut,
}

pub(crate) struct Controller {
    st: StdMutex<Sched>,
    cv: StdCondvar,
    pub(crate) token: u64,
}

static MODEL_RUNS: AtomicUsize = AtomicUsize::new(0);
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: RefCell<Option<Handle>> = const { RefCell::new(None) };
}

/// The calling thread's model identity, if it is a task in an active run.
#[derive(Clone)]
pub(crate) struct Handle {
    pub(crate) ctrl: Arc<Controller>,
    pub(crate) task: u32,
}

pub(crate) fn cur() -> Option<Handle> {
    if MODEL_RUNS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

fn abort_unwind() -> ! {
    panic::panic_any(ModelAbort)
}

/// Keep expected per-schedule unwinds (aborts, assertion probes) out of
/// stderr; panics on non-model threads go to the previous hook untouched.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let model_thread =
                MODEL_RUNS.load(Ordering::Relaxed) > 0 && CURRENT.with(|c| c.borrow().is_some());
            if !model_thread {
                prev(info);
            }
        }));
    });
}

type Guard<'a> = StdGuard<'a, Sched>;

impl Controller {
    fn new(strat: StratState, max_steps: u64, fail_on_escape: bool) -> Controller {
        Controller {
            st: StdMutex::new(Sched {
                tasks: Vec::new(),
                active: None,
                locks: HashMap::new(),
                anon_locks: 0,
                chans: HashMap::new(),
                next_chan: 1,
                trace: Vec::new(),
                choices: Vec::new(),
                steps: 0,
                max_steps,
                strat,
                hazards: Vec::new(),
                lock_edges: BTreeSet::new(),
                cv_hold: BTreeSet::new(),
                timeout_escapes: 0,
                fail_on_escape,
                aborted: false,
                spawned: 0,
                exited: 0,
            }),
            cv: StdCondvar::new(),
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn lock_st(&self) -> Guard<'_> {
        self.st.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn register_task(&self, g: &mut Sched) -> u32 {
        let id = g.tasks.len() as u32;
        g.tasks.push(TaskInfo::new());
        g.strat.on_task_registered();
        g.spawned += 1;
        id
    }

    // -- turnstile -----------------------------------------------------

    fn wait_active<'a>(&'a self, me: u32, mut g: Guard<'a>) -> Guard<'a> {
        loop {
            if g.aborted {
                // A task that is already unwinding may reach a schedule
                // point from a destructor (e.g. a runtime Drop that
                // notifies a condvar on the way out). Re-raising there
                // would be a panic inside drop glue during unwind, which
                // aborts the process — let the task proceed unscheduled
                // instead; the model is dead once `aborted` is set.
                if std::thread::panicking() {
                    return g;
                }
                drop(g);
                abort_unwind();
            }
            if g.active == Some(me) {
                return g;
            }
            g = self.cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Schedule point: current task stays runnable, scheduler decides.
    fn yield_slot<'a>(&'a self, me: u32, mut g: Guard<'a>) -> Guard<'a> {
        if g.aborted {
            if std::thread::panicking() {
                return g; // see wait_active: never unwind out of a Drop
            }
            drop(g);
            abort_unwind();
        }
        self.pick_next(&mut g);
        self.cv.notify_all();
        self.wait_active(me, g)
    }

    fn block_and_wait<'a>(&'a self, me: u32, reason: BlockedOn, mut g: Guard<'a>) -> Guard<'a> {
        g.tasks[me as usize].state = TaskState::Blocked(reason);
        self.pick_next(&mut g);
        self.cv.notify_all();
        self.wait_active(me, g)
    }

    fn pick_next(&self, g: &mut Sched) {
        if g.aborted {
            return;
        }
        g.steps += 1;
        if g.steps > g.max_steps {
            let max = g.max_steps;
            g.hazards.push(Hazard::new(
                HazardKind::StepLimit,
                format!("schedule exceeded the {max}-step budget (livelock or unbounded retry)"),
            ));
            g.aborted = true;
            return;
        }
        if let Some(a) = g.active {
            if g.tasks[a as usize].state == TaskState::Running {
                g.tasks[a as usize].state = TaskState::Runnable;
            }
        }
        g.active = None;
        loop {
            let runnable: Vec<u32> = g
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state == TaskState::Runnable)
                .map(|(i, _)| i as u32)
                .collect();
            if !runnable.is_empty() {
                let idx = if runnable.len() == 1 {
                    0
                } else {
                    let steps = g.steps;
                    let idx = g.strat.pick(steps, &runnable);
                    g.choices.push(idx as u32);
                    idx
                };
                let t = runnable[idx];
                g.tasks[t as usize].state = TaskState::Running;
                g.active = Some(t);
                return;
            }
            if g.tasks.iter().all(|t| t.state == TaskState::Finished) {
                return;
            }
            // Global quiescence: fire the earliest timed wait, or report
            // a deadlock.
            let escape = g.tasks.iter().position(|t| match &t.state {
                TaskState::Blocked(b) => b.timed(),
                _ => false,
            });
            match escape {
                Some(t) if !g.fail_on_escape => {
                    let subject = match &g.tasks[t].state {
                        TaskState::Blocked(b) => b.describe(),
                        _ => unreachable!(),
                    };
                    g.timeout_escapes += 1;
                    let step = g.steps;
                    g.trace.push(Event {
                        step,
                        task: t as u32,
                        op: Op::TimeoutEscape,
                        subject: subject.clone(),
                    });
                    g.tasks[t].wake_timed_out = true;
                    g.tasks[t].state = TaskState::Runnable;
                    continue;
                }
                Some(t) => {
                    let subject = match &g.tasks[t].state {
                        TaskState::Blocked(b) => b.describe(),
                        _ => unreachable!(),
                    };
                    g.hazards.push(
                        Hazard::new(
                            HazardKind::LostNotify,
                            format!(
                                "task {t} had to be woken by a forced timeout on {subject}: \
                                 the wakeup that should have arrived never did"
                            ),
                        )
                        .with_subjects([subject]),
                    );
                    g.aborted = true;
                    return;
                }
                None => {
                    let mut parts = Vec::new();
                    let mut subjects = Vec::new();
                    for (i, t) in g.tasks.iter().enumerate() {
                        if let TaskState::Blocked(b) = &t.state {
                            parts.push(format!("task {i} blocked on {}", b.describe()));
                            subjects.push(b.describe());
                        }
                    }
                    g.hazards.push(
                        Hazard::new(
                            HazardKind::Deadlock,
                            format!("deadlock: {}", parts.join("; ")),
                        )
                        .with_subjects(subjects),
                    );
                    g.aborted = true;
                    return;
                }
            }
        }
    }

    // -- locks ---------------------------------------------------------

    fn ensure_lock(&self, g: &mut Sched, addr: usize, name: Option<&'static str>) {
        if !g.locks.contains_key(&addr) {
            let name = match name {
                Some(n) => n.to_string(),
                None => {
                    g.anon_locks += 1;
                    format!("lock#{}", g.anon_locks)
                }
            };
            g.locks.insert(addr, LockState { name, holder: None });
        }
    }

    pub(crate) fn op_lock(&self, me: u32, addr: usize, name: Option<&'static str>) {
        let g = self.lock_st();
        let mut g = self.yield_slot(me, g);
        self.ensure_lock(&mut g, addr, name);
        let lname = g.locks[&addr].name.clone();
        if g.tasks[me as usize].held.iter().any(|h| h.addr == addr) {
            g.hazards.push(
                Hazard::new(
                    HazardKind::DoubleLock,
                    format!("task {me} re-acquired non-reentrant lock {lname} it already holds"),
                )
                .with_subjects([lname]),
            );
            g.aborted = true;
            self.cv.notify_all();
            drop(g);
            abort_unwind();
        }
        let g = self.acquire_loop(me, addr, g);
        drop(g);
    }

    fn acquire_loop<'a>(&'a self, me: u32, addr: usize, mut g: Guard<'a>) -> Guard<'a> {
        loop {
            if g.locks[&addr].holder.is_none() {
                let lname = g.locks[&addr].name.clone();
                let new_edges: Vec<(String, String)> = g.tasks[me as usize]
                    .held
                    .iter()
                    .filter(|h| h.name != lname)
                    .map(|h| (h.name.clone(), lname.clone()))
                    .collect();
                g.locks.get_mut(&addr).unwrap().holder = Some(me);
                g.tasks[me as usize].held.push(Held { addr, name: lname.clone() });
                // Acquisitions by tasks unwinding past an abort are
                // destructor traffic, not schedule behaviour — keep them
                // out of the graph and the trace.
                if !g.aborted {
                    g.lock_edges.extend(new_edges);
                    let step = g.steps;
                    g.trace.push(Event { step, task: me, op: Op::LockAcquire, subject: lname });
                }
                return g;
            }
            let lname = g.locks[&addr].name.clone();
            g = self.block_and_wait(me, BlockedOn::Lock { addr, name: lname }, g);
        }
    }

    pub(crate) fn op_unlock(&self, me: u32, addr: usize) {
        let mut g = self.lock_st();
        if g.aborted || std::thread::panicking() {
            self.release_inner(&mut g, me, addr, false);
            self.cv.notify_all();
            return;
        }
        self.release_inner(&mut g, me, addr, true);
        let g = self.yield_slot(me, g);
        drop(g);
    }

    fn release_inner(&self, g: &mut Sched, me: u32, addr: usize, record: bool) {
        if let Some(pos) = g.tasks[me as usize].held.iter().rposition(|h| h.addr == addr) {
            g.tasks[me as usize].held.remove(pos);
        }
        let lname = match g.locks.get_mut(&addr) {
            Some(ls) => {
                if ls.holder == Some(me) {
                    ls.holder = None;
                }
                ls.name.clone()
            }
            None => return,
        };
        for t in g.tasks.iter_mut() {
            if matches!(&t.state, TaskState::Blocked(BlockedOn::Lock { addr: a, .. }) if *a == addr)
            {
                t.state = TaskState::Runnable;
            }
        }
        if record {
            let step = g.steps;
            g.trace.push(Event { step, task: me, op: Op::LockRelease, subject: lname });
        }
    }

    // -- condition variables --------------------------------------------

    pub(crate) fn op_cv_wait(
        &self,
        me: u32,
        cv_addr: usize,
        cv_name: &'static str,
        lock_addr: usize,
        timed: bool,
    ) -> bool {
        let g = self.lock_st();
        let mut g = self.yield_slot(me, g);
        if !g.aborted {
            let others: Vec<String> = g.tasks[me as usize]
                .held
                .iter()
                .filter(|h| h.addr != lock_addr)
                .map(|h| h.name.clone())
                .collect();
            for o in others {
                g.cv_hold.insert((cv_name.to_string(), o));
            }
        }
        self.release_inner(&mut g, me, lock_addr, false);
        if !g.aborted {
            let step = g.steps;
            g.trace.push(Event { step, task: me, op: Op::CvWait, subject: cv_name.to_string() });
        }
        g.tasks[me as usize].wake_timed_out = false;
        g = self.block_and_wait(me, BlockedOn::Cv { cv_addr, name: cv_name.to_string(), timed }, g);
        let timed_out = g.tasks[me as usize].wake_timed_out;
        let g = self.acquire_loop(me, lock_addr, g);
        drop(g);
        timed_out
    }

    pub(crate) fn op_cv_notify(
        &self,
        me: u32,
        cv_addr: usize,
        cv_name: &'static str,
        all: bool,
    ) -> usize {
        let g = self.lock_st();
        let mut g = self.yield_slot(me, g);
        let mut woken = 0usize;
        for t in g.tasks.iter_mut() {
            let hit = matches!(&t.state, TaskState::Blocked(BlockedOn::Cv { cv_addr: a, .. }) if *a == cv_addr);
            if hit {
                t.state = TaskState::Runnable;
                t.wake_timed_out = false;
                woken += 1;
                if !all {
                    break;
                }
            }
        }
        if !g.aborted {
            let step = g.steps;
            g.trace.push(Event {
                step,
                task: me,
                op: if all { Op::CvNotifyAll } else { Op::CvNotifyOne },
                subject: cv_name.to_string(),
            });
        }
        self.cv.notify_all();
        drop(g);
        woken
    }

    // -- channels --------------------------------------------------------

    /// Register (or look up) a channel for this run. `reg` caches
    /// `(controller token, channel id)` on the channel itself so ids are
    /// assigned once per run, in deterministic first-use order.
    pub(crate) fn ensure_chan(
        &self,
        reg: &StdMutex<Option<(u64, u64)>>,
        name: Option<&'static str>,
        senders: usize,
        real_len: usize,
    ) -> u64 {
        let mut slot = reg.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((tok, id)) = *slot {
            if tok == self.token {
                return id;
            }
        }
        let mut g = self.lock_st();
        let id = g.next_chan;
        g.next_chan += 1;
        let cname = match name {
            Some(n) => n.to_string(),
            None => format!("chan#{id}"),
        };
        g.chans.insert(id, ChanState { name: cname, len: real_len, senders });
        *slot = Some((self.token, id));
        id
    }

    /// Plain schedule point (used before a channel send).
    pub(crate) fn op_yield(&self, me: u32) {
        let g = self.lock_st();
        let g = self.yield_slot(me, g);
        drop(g);
    }

    pub(crate) fn op_chan_send_commit(&self, me: u32, id: u64) {
        let mut g = self.lock_st();
        let name = match g.chans.get_mut(&id) {
            Some(c) => {
                c.len += 1;
                c.name.clone()
            }
            None => return,
        };
        for t in g.tasks.iter_mut() {
            if matches!(&t.state, TaskState::Blocked(BlockedOn::Chan { id: i, .. }) if *i == id) {
                t.state = TaskState::Runnable;
            }
        }
        if !g.aborted && !std::thread::panicking() {
            let step = g.steps;
            g.trace.push(Event { step, task: me, op: Op::ChanSend, subject: name });
        }
        self.cv.notify_all();
    }

    pub(crate) fn op_chan_recv(&self, me: u32, id: u64, mode: RecvMode) -> RecvOutcome {
        let g = self.lock_st();
        let mut g = self.yield_slot(me, g);
        loop {
            let (len, senders, name) = match g.chans.get(&id) {
                Some(c) => (c.len, c.senders, c.name.clone()),
                None => return RecvOutcome::Disconnected,
            };
            if len > 0 {
                g.chans.get_mut(&id).unwrap().len -= 1;
                let step = g.steps;
                g.trace.push(Event { step, task: me, op: Op::ChanRecv, subject: name });
                return RecvOutcome::Data;
            }
            if senders == 0 {
                let step = g.steps;
                g.trace.push(Event { step, task: me, op: Op::ChanDisconnect, subject: name });
                return RecvOutcome::Disconnected;
            }
            match mode {
                RecvMode::Try => return RecvOutcome::Empty,
                RecvMode::Block | RecvMode::Timed => {
                    g.tasks[me as usize].wake_timed_out = false;
                    let timed = matches!(mode, RecvMode::Timed);
                    g = self.block_and_wait(me, BlockedOn::Chan { id, name, timed }, g);
                    if g.tasks[me as usize].wake_timed_out {
                        return RecvOutcome::TimedOut;
                    }
                }
            }
        }
    }

    pub(crate) fn chan_sender_cloned(&self, id: u64) {
        let mut g = self.lock_st();
        if let Some(c) = g.chans.get_mut(&id) {
            c.senders += 1;
        }
    }

    pub(crate) fn chan_sender_dropped(&self, me: u32, id: u64) {
        let mut g = self.lock_st();
        let name = match g.chans.get_mut(&id) {
            Some(c) => {
                c.senders = c.senders.saturating_sub(1);
                if c.senders > 0 {
                    return;
                }
                c.name.clone()
            }
            None => return,
        };
        for t in g.tasks.iter_mut() {
            if matches!(&t.state, TaskState::Blocked(BlockedOn::Chan { id: i, .. }) if *i == id) {
                t.state = TaskState::Runnable;
            }
        }
        if !g.aborted && !std::thread::panicking() {
            let step = g.steps;
            g.trace.push(Event { step, task: me, op: Op::ChanDisconnect, subject: name });
        }
        self.cv.notify_all();
    }

    // -- tasks -----------------------------------------------------------

    pub(crate) fn op_spawn(&self, me: u32) -> u32 {
        let g = self.lock_st();
        let mut g = self.yield_slot(me, g);
        let id = self.register_task(&mut g);
        let step = g.steps;
        g.trace.push(Event { step, task: me, op: Op::Spawn, subject: format!("task-{id}") });
        drop(g);
        id
    }

    pub(crate) fn op_join(&self, me: u32, target: u32) {
        let g = self.lock_st();
        let mut g = self.yield_slot(me, g);
        loop {
            if g.tasks[target as usize].state == TaskState::Finished {
                let step = g.steps;
                g.trace.push(Event {
                    step,
                    task: me,
                    op: Op::Join,
                    subject: format!("task-{target}"),
                });
                return;
            }
            g = self.block_and_wait(me, BlockedOn::Join { task: target }, g);
        }
    }

    fn first_wait(&self, me: u32) {
        let g = self.lock_st();
        let mut g = self.wait_active(me, g);
        let step = g.steps;
        g.trace.push(Event { step, task: me, op: Op::TaskStart, subject: format!("task-{me}") });
    }

    fn task_finished(&self, me: u32) {
        let mut g = self.lock_st();
        g.tasks[me as usize].state = TaskState::Finished;
        for t in g.tasks.iter_mut() {
            if matches!(&t.state, TaskState::Blocked(BlockedOn::Join { task }) if *task == me) {
                t.state = TaskState::Runnable;
            }
        }
        if !g.aborted {
            let step = g.steps;
            g.trace.push(Event { step, task: me, op: Op::TaskEnd, subject: format!("task-{me}") });
            self.pick_next(&mut g);
        }
        self.cv.notify_all();
    }

    fn task_panicked(&self, me: u32, msg: Option<String>) {
        let mut g = self.lock_st();
        g.tasks[me as usize].state = TaskState::Finished;
        let residue: Vec<Held> = std::mem::take(&mut g.tasks[me as usize].held);
        for h in residue {
            self.release_inner(&mut g, me, h.addr, false);
        }
        for t in g.tasks.iter_mut() {
            if matches!(&t.state, TaskState::Blocked(BlockedOn::Join { task }) if *task == me) {
                t.state = TaskState::Runnable;
            }
        }
        if let Some(m) = msg {
            if !g.aborted {
                g.hazards.push(
                    Hazard::new(
                        HazardKind::AssertionFailed,
                        format!("task {me} panicked under this schedule: {m}"),
                    )
                    .with_subjects([format!("task-{me}")]),
                );
                g.aborted = true;
            }
        }
        if !g.aborted {
            self.pick_next(&mut g);
        }
        self.cv.notify_all();
    }

    fn thread_exited(&self) {
        let mut g = self.lock_st();
        g.exited += 1;
        self.cv.notify_all();
    }
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Body run by every model task's real thread: register TLS, wait for the
/// first grant, run, report the outcome, and count the thread out.
pub(crate) fn task_body<T>(ctrl: Arc<Controller>, id: u32, f: impl FnOnce() -> T) -> Option<T> {
    CURRENT.with(|c| *c.borrow_mut() = Some(Handle { ctrl: Arc::clone(&ctrl), task: id }));
    let res = panic::catch_unwind(AssertUnwindSafe(|| {
        ctrl.first_wait(id);
        f()
    }));
    let out = match res {
        Ok(v) => {
            ctrl.task_finished(id);
            Some(v)
        }
        Err(p) => {
            let msg =
                if p.downcast_ref::<ModelAbort>().is_some() { None } else { Some(panic_msg(&*p)) };
            ctrl.task_panicked(id, msg);
            None
        }
    };
    CURRENT.with(|c| *c.borrow_mut() = None);
    ctrl.thread_exited();
    out
}

// ---------------------------------------------------------------------------
// Single-schedule driver
// ---------------------------------------------------------------------------

struct RunOutcome {
    trace: Vec<Event>,
    choices: Vec<u32>,
    hazards: Vec<Hazard>,
    lock_edges: BTreeSet<(String, String)>,
    cv_hold: BTreeSet<(String, String)>,
    timeout_escapes: u64,
    steps: u64,
}

fn run_one(
    f: Arc<dyn Fn() + Send + Sync>,
    strat: StratState,
    max_steps: u64,
    fail_on_escape: bool,
) -> RunOutcome {
    install_quiet_hook();
    let ctrl = Arc::new(Controller::new(strat, max_steps, fail_on_escape));
    {
        let mut g = ctrl.lock_st();
        ctrl.register_task(&mut g);
    }
    MODEL_RUNS.fetch_add(1, Ordering::SeqCst);
    let c2 = Arc::clone(&ctrl);
    let root = std::thread::spawn(move || {
        let c3 = Arc::clone(&c2);
        task_body(c3, 0, move || f());
    });
    {
        let mut g = ctrl.lock_st();
        ctrl.pick_next(&mut g);
        ctrl.cv.notify_all();
    }
    {
        let mut g = ctrl.lock_st();
        while g.exited < g.spawned {
            g = ctrl.cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
    MODEL_RUNS.fetch_sub(1, Ordering::SeqCst);
    let _ = root.join();
    let mut g = ctrl.lock_st();
    RunOutcome {
        trace: std::mem::take(&mut g.trace),
        choices: std::mem::take(&mut g.choices),
        hazards: std::mem::take(&mut g.hazards),
        lock_edges: std::mem::take(&mut g.lock_edges),
        cv_hold: std::mem::take(&mut g.cv_hold),
        timeout_escapes: g.timeout_escapes,
        steps: g.steps,
    }
}
