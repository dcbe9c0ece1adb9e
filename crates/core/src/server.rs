//! The CNServer servant: one process per node hosting both a JobManager and
//! a TaskManager.
//!
//! "JobManager and the TaskManager are part of the same process, CNServer,
//! which is a servant (since it acts as a client and a server). The
//! JobManager can support multiple Jobs." (paper Section 3)
//!
//! Each server runs an event loop on its own thread, joined to the CN
//! discovery multicast group. The JobManager half answers solicitations,
//! places admitted tasks a round at a time (one solicitation per round, see
//! [`Round`]), manages job DAGs and relays task lifecycle messages to the
//! client; the TaskManager half bids for tasks, receives archive uploads,
//! sets up per-task message queues and runs each task in a thread of its own
//! (`RUN_AS_THREAD_IN_TM`), one a finished task left parked when there is
//! one (`TaskPool`). Nothing waits inside a handler: an open bid
//! window and every outstanding assignment are entries of the loop, each
//! with a deadline the loop's receive honours.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_cluster::{Addr, Envelope, NodeHandle};
use cn_observe::{Counter, Gauge, Recorder, Severity};
use cn_sync::channel::{Receiver, RecvTimeoutError, Sender};
use cn_sync::thread::JoinHandle;
use cn_wire::FabricHandle;

use crate::archive::ArchiveRegistry;
use crate::message::{Bid, JobId, NetMsg, TaskSpec, UserData, CLIENT_TASK_NAME};
use crate::pump::{MsgPump, Window};
use crate::scheduler::{
    select, select_load_aware, Ewma, FairQueue, LoadSignal, Policy, RoundRobin,
};
use crate::spaces::SpaceRegistry;
use crate::task::{panic_text, TaskContext, TaskError};
use crate::tuplespace::{Tuple, TupleSpace};

/// Tunables for a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Upper bound on one TaskManager bid window: it closes as soon as
    /// every peer the solicitation addressed has bid
    /// ([`crate::pump::Window`]).
    pub bid_window: Duration,
    /// How long an assignment may go without its AssignAck before the
    /// JobManager offers the task to the next-best bidder.
    pub assign_timeout: Duration,
    /// Bid selection policy for task placement.
    pub policy: Policy,
    /// Maximum task threads running concurrently on this TaskManager.
    /// `None` keeps the historical behavior (every started task launches
    /// immediately); with a cap, started tasks beyond it wait in the run
    /// queue — the queue that feeds [`LoadSignal`] and the steal protocol.
    pub exec_slots: Option<usize>,
    /// Work stealing: an idle TaskManager raids queued tasks from loaded
    /// peers (DESIGN.md §14). Off means no `LoadReport` heartbeats and no
    /// raids, which also keeps the sim journal free of steal events.
    pub steal: bool,
}

/// A victim grants a steal only while its run queue holds at least this
/// many tasks.
const STEAL_THRESHOLD: u32 = 1;

/// Least interval between one TaskManager's `LoadReport` multicasts
/// ([`ServerState::load_changed`]).
const STEAL_HEARTBEAT: Duration = Duration::from_millis(5);

/// Deficit-round-robin quantum (in task `memory_mb` cost units) for
/// per-client fair admission of `CreateTask`/`CreateTasks` bursts: just
/// above a task's default 1 000 MB, so a client of default-sized tasks is
/// served one per visit and heavier tasks wait their share of rounds.
const FAIR_QUANTUM_MB: u64 = 1024;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bid_window: Duration::from_millis(5),
            assign_timeout: Duration::from_secs(2),
            policy: Policy::LeastLoaded,
            exec_slots: None,
            steal: false,
        }
    }
}

/// Handle to a running CNServer.
pub struct CnServer {
    pub name: String,
    pub addr: Addr,
    net: FabricHandle<NetMsg>,
    thread: Option<JoinHandle<()>>,
}

impl CnServer {
    /// Spawn a server for `node`, joined to the discovery group. The
    /// fabric decides the deployment shape: the simulated network hosts a
    /// whole neighborhood in one process, a socket fabric puts this
    /// server on the wire (`cnctl serve`).
    pub fn spawn(
        name: impl Into<String>,
        node: NodeHandle,
        net: FabricHandle<NetMsg>,
        registry: Arc<ArchiveRegistry>,
        spaces: Arc<SpaceRegistry>,
        config: ServerConfig,
    ) -> CnServer {
        let name = name.into();
        let state = ServerState::new(name.clone(), node, net.clone(), registry, spaces, config);
        let addr = state.addr;
        let thread = cn_sync::thread::Builder::new()
            .name(format!("cnserver-{name}"))
            .spawn(move || state.run())
            .expect("spawn server thread");
        CnServer { name, addr, net, thread: Some(thread) }
    }

    /// Ask the server to stop and wait for its event loop to exit.
    pub fn shutdown(mut self) {
        let _ = self.net.send(self.addr, self.addr, NetMsg::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for CnServer {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = self.net.send(self.addr, self.addr, NetMsg::Shutdown);
            let _ = t.join();
        }
    }
}

/// JobManager-side record of a job.
struct JmJob {
    client: Addr,
    specs: Vec<TaskSpec>,
    /// task name → (tm server addr, task endpoint, server name).
    assigned: HashMap<String, (Addr, Addr, String)>,
    completed: HashMap<String, UserData>,
    started: HashSet<String>,
    job_started: bool,
}

/// TaskManager-side record of an assigned task.
struct TmTask {
    spec: TaskSpec,
    /// The JobManager this task reports lifecycle events to.
    jm: Addr,
    endpoint: Addr,
    rx: Option<Receiver<Envelope<NetMsg>>>,
    /// The job's tuple space, held from assignment: it lives while any of
    /// the job's tasks here does ([`SpaceRegistry`]).
    space: Arc<TupleSpace>,
    reservation: Option<cn_cluster::node::Reservation>,
    /// `StartTask` received (dedup guard).
    started: bool,
    /// Task handed to a thread. `started && !launched` means the task sits in
    /// the run queue waiting for an execution slot.
    launched: bool,
    /// Directory + client held while the task waits in the run queue.
    start_info: Option<(HashMap<String, Addr>, Addr)>,
    /// When the task entered the run queue (feeds the dispatch EWMA).
    enqueued_at: Option<Instant>,
    /// A `StealGrant` is outstanding: the reservation is released and the
    /// task is off the run queue until `TaskMigrated` commits the handoff
    /// or `StealReturn` bounces it back.
    migrated: bool,
    /// Thief side: the task's old endpoint at the victim, sent `Shutdown`
    /// when the stolen task exits so that the victim retires it.
    stolen_from: Option<Addr>,
}

/// One admitted task on its way through a placement round.
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

/// Where a [`Placing`] stands.
enum Offer {
    /// Waiting to be offered: the bid window is still open, or the last
    /// offer fell through.
    Unplaced,
    /// `AssignTask` is on the wire to `tm`; its `AssignAck` is due by
    /// `deadline`.
    InFlight { tm: Addr, server: String, deadline: Instant },
    /// `(tm server addr, task endpoint, server name)`, or why not.
    Settled(Result<(Addr, Addr, String), String>),
}

/// A placement round: everything the fair queue held when it started, in
/// DRR order, placed from **one** solicitation. The bids become a table;
/// each task goes to the policy's choice among the entries that can still
/// host it, the choice is booked on its entry ([`Bid::debit`]), and every
/// assignment is on the wire before any `AssignAck` is looked at. A
/// rejected or timed-out assignment falls to the next-best entry of the
/// same table. Tasks leave the front as they settle, so `TaskAck`s go out
/// and `JmJob::specs` grows in burst order.
///
/// A task is refused for want of a bidder only by a table everybody addressed
/// has answered into (`complete`). One that missed somebody — a peer slow to
/// bid — and whose other entries are used up is not a verdict: the round asks
/// again for the tasks still unplaced, up to one solicitation per task in
/// all (`asks_left`), which is what placing them one auction at a time would
/// have spent before refusing any.
struct Round {
    tasks: VecDeque<Placing>,
    /// The `(job, task)` the solicitation — and so every bid — is keyed
    /// by: the first task it is for.
    key: (JobId, String),
    /// Open until every addressed peer has bid or `bid_window` passes.
    window: Option<Window>,
    /// The bid table: our own bid first (evaluated locally — JM and TM
    /// share this process), then arrival order.
    bids: Vec<Bid>,
    /// Everyone the solicitation addressed has bid.
    complete: bool,
    /// Solicitations the round may still make.
    asks_left: usize,
}

impl Round {
    /// Record an `AssignAck` from `from` — the task's endpoint, or why it was
    /// rejected, in which case the task goes back to be offered to the
    /// next-best bidder. `false` if no offer of this round was waiting for
    /// it — matched on the sender too, so a late ack from a bidder that
    /// already timed out is not taken for the current one's.
    fn acked(&mut self, from: Addr, job: JobId, task: &str, ack: Result<Addr, String>) -> bool {
        let awaited = |t: &&mut Placing| {
            t.job == job
                && t.spec.name == task
                && matches!(t.state, Offer::InFlight { tm, .. } if tm == from)
        };
        let Some(placing) = self.tasks.iter_mut().find(awaited) else { return false };
        let Offer::InFlight { server, .. } = std::mem::replace(&mut placing.state, Offer::Unplaced)
        else {
            unreachable!("matched on InFlight")
        };
        match ack {
            Ok(task_addr) => placing.state = Offer::Settled(Ok((from, task_addr, server))),
            Err(reason) => placing.failures.push(format!("{server}: rejected: {reason}")),
        }
        true
    }
}

/// How long a parked task thread waits for its next task before it exits.
const TASK_THREAD_IDLE: Duration = Duration::from_secs(10);

/// A task's turn on a pool thread: it runs the task and returns the task's
/// report, which the thread sends once it is parked again — so a launch the
/// report makes possible (the next task of the DAG, the next job) finds the
/// thread waiting instead of spawning another.
type TaskRun = Box<dyn FnOnce() -> Box<dyn FnOnce() + Send> + Send>;

/// Starts a thread named by the first argument running the second.
type SpawnThread = fn(String, Box<dyn FnOnce() + Send>) -> std::io::Result<()>;

/// The threads a server runs its tasks on. A finished task's thread parks
/// for the next launch instead of exiting; a launch hands its run to a
/// parked thread, or spawns one when none is. The pool never holds a task
/// back: a Figure-3 worker blocks on its peers' rows, and a pool smaller
/// than a job's blocked tasks would deadlock it. Where `exec_slots` is set
/// the run queue already bounds it to that many threads. Parked threads
/// exit after [`TASK_THREAD_IDLE`], and when the server drops the pool.
struct TaskPool {
    name: String,
    /// Runs handed to parked threads; every thread receives on `parked_rx`.
    runs: Sender<TaskRun>,
    parked_rx: Receiver<TaskRun>,
    /// Parked threads no launch has claimed yet.
    parked: Arc<AtomicUsize>,
    /// Starts a thread (a test refuses to).
    spawn: SpawnThread,
    c_spawned: Counter,
    c_reused: Counter,
}

impl TaskPool {
    fn new(server: &str, rec: &Recorder) -> TaskPool {
        let (runs, parked_rx) = cn_sync::channel::unbounded_named("server.task_pool");
        TaskPool {
            name: format!("task-{server}"),
            runs,
            parked_rx,
            parked: Arc::new(AtomicUsize::new(0)),
            spawn: |name, main| cn_sync::thread::Builder::new().name(name).spawn(main).map(drop),
            c_spawned: rec.counter("server.task_threads_spawned"),
            c_reused: rec.counter("server.task_threads_reused"),
        }
    }

    /// Run `run` on a parked thread, or on a new one. A refused spawn is
    /// returned; `run`, and whatever it holds, is dropped with it.
    fn launch(&self, run: TaskRun) -> std::io::Result<()> {
        if claim(&self.parked) {
            self.c_reused.inc();
            // Cannot fail: the pool holds a receiver.
            let _ = self.runs.send(run);
            return Ok(());
        }
        let (runs, parked) = (self.parked_rx.clone(), Arc::clone(&self.parked));
        (self.spawn)(self.name.clone(), Box::new(move || pool_thread(run, &runs, &parked)))?;
        self.c_spawned.inc();
        Ok(())
    }
}

/// Take one unit of `parked`, if there is one.
fn claim(parked: &AtomicUsize) -> bool {
    parked.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok()
}

/// A pool thread: run, park, report, wait for the next run.
fn pool_thread(mut run: TaskRun, runs: &Receiver<TaskRun>, parked: &AtomicUsize) {
    loop {
        let report = run();
        parked.fetch_add(1, Ordering::SeqCst);
        report();
        run = loop {
            match runs.recv_timeout(TASK_THREAD_IDLE) {
                Ok(next) => break next,
                // Leave only with a unit of our own: if a launch claimed the
                // last one, its run is on the way.
                Err(RecvTimeoutError::Timeout) if claim(parked) => return,
                Err(RecvTimeoutError::Timeout) => {}
                // The server dropped the pool.
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
    }
}

struct ServerState {
    name: String,
    addr: Addr,
    net: FabricHandle<NetMsg>,
    pump: MsgPump<NetMsg>,
    node: NodeHandle,
    registry: Arc<ArchiveRegistry>,
    spaces: Arc<SpaceRegistry>,
    config: ServerConfig,
    jm_jobs: HashMap<JobId, JmJob>,
    tm_tasks: HashMap<(JobId, String), TmTask>,
    /// Jars this TaskManager has received.
    uploaded: HashSet<String>,
    rr: RoundRobin,
    /// Per-client deficit-round-robin admission queue for created tasks.
    fairq: FairQueue<(JobId, TaskSpec, Addr)>,
    /// The placement round in progress; what is admitted meanwhile waits in
    /// `fairq` for the next one.
    round: Option<Round>,
    /// Started-but-not-launched tasks waiting for an execution slot.
    run_queue: VecDeque<(JobId, String)>,
    /// Task threads currently executing (launched, not yet exited).
    running: usize,
    /// The threads tasks run on.
    pool: TaskPool,
    /// Enqueue→launch latency smoother; third component of [`LoadSignal`].
    dispatch_ewma: Ewma,
    /// Last load signal heard from each peer server (steal mode only).
    peer_loads: HashMap<Addr, (String, LoadSignal)>,
    /// Outstanding steal request: victim addr + when it was sent. Cleared
    /// by any `LoadReport` from the victim (the decline path) or by the
    /// grant; the timestamp is a staleness escape hatch.
    steal_pending: Option<(Addr, Instant)>,
    /// Victim side: the old endpoint of each task stolen from here → its new
    /// one. The old endpoint is an alias of this server's address
    /// ([`cn_wire::Fabric::alias`]) until the thief says the task exited.
    moved: HashMap<Addr, Addr>,
    /// Throttle state for `LoadReport` multicasts.
    last_reported: Option<LoadSignal>,
    last_report_at: Option<Instant>,
    rec: Recorder,
    c_jm_bids: Counter,
    c_tm_bids: Counter,
    c_task_solicits: Counter,
    c_rounds: Counter,
    /// `AssignTask`s sent to remote TaskManagers (a task placed on this
    /// server's own TaskManager sends none).
    c_assigns: Counter,
    c_tasks_started: Counter,
    c_tasks_completed: Counter,
    c_tasks_failed: Counter,
    c_steals: Counter,
    c_steal_requests: Counter,
    c_steal_returns: Counter,
    g_queue_depth: Gauge,
    g_inflight: Gauge,
}

impl ServerState {
    /// A server for `node` with its endpoint registered and joined to the
    /// discovery group, ready to [`ServerState::run`].
    fn new(
        name: String,
        node: NodeHandle,
        net: FabricHandle<NetMsg>,
        registry: Arc<ArchiveRegistry>,
        spaces: Arc<SpaceRegistry>,
        config: ServerConfig,
    ) -> ServerState {
        let (addr, rx) = net.register();
        net.join_group(addr, cn_cluster::DISCOVERY_GROUP);
        let rec = net.recorder().clone();
        ServerState {
            pool: TaskPool::new(&name, &rec),
            name,
            addr,
            pump: MsgPump::new(rx),
            node,
            registry,
            spaces,
            config,
            jm_jobs: HashMap::new(),
            tm_tasks: HashMap::new(),
            uploaded: HashSet::new(),
            rr: RoundRobin::new(),
            fairq: FairQueue::new(FAIR_QUANTUM_MB),
            round: None,
            run_queue: VecDeque::new(),
            running: 0,
            dispatch_ewma: Ewma::default(),
            peer_loads: HashMap::new(),
            steal_pending: None,
            moved: HashMap::new(),
            last_reported: None,
            last_report_at: None,
            c_jm_bids: rec.counter("server.jm_bids_sent"),
            c_tm_bids: rec.counter("server.tm_bids_sent"),
            c_task_solicits: rec.counter("server.task_solicitations"),
            c_rounds: rec.counter("server.placement_rounds"),
            c_assigns: rec.counter("server.assigns_sent"),
            c_tasks_started: rec.counter("server.tasks_started"),
            c_tasks_completed: rec.counter("server.tasks_completed"),
            c_tasks_failed: rec.counter("server.tasks_failed"),
            c_steals: rec.counter("server.steals"),
            c_steal_requests: rec.counter("server.steal_requests"),
            c_steal_returns: rec.counter("server.steal_returns"),
            g_queue_depth: rec.gauge("server.run_queue_depth"),
            g_inflight: rec.gauge("server.tasks_inflight"),
            rec,
            net,
        }
    }

    fn run(mut self) {
        loop {
            match self.pump.next_before(self.next_deadline()) {
                Ok(env) if matches!(env.msg, NetMsg::Shutdown) && env.to == self.addr => break,
                Ok(env) => self.handle(env),
                Err(RecvTimeoutError::Timeout) => {}
                // The network is gone.
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.advance_round();
        }
        self.moved.keys().for_each(|old| self.net.unregister(*old));
        self.net.unregister(self.addr);
    }

    /// Everything the event loop sends is posted, never awaited: the peer —
    /// a solicitor whose window closed, the client of a job that timed out —
    /// may be gone by now, a waiting `send` to a departed process sits out a
    /// whole connect-retry cycle on this, the server's only, thread, and the
    /// loop never acted on a send's result anyway. What cannot be delivered
    /// is dropped and counted behind its back (`wire.drops`).
    fn send(&self, to: Addr, msg: NetMsg) {
        self.net.post(self.addr, to, msg);
    }

    fn handle(&mut self, env: Envelope<NetMsg>) {
        if env.to != self.addr {
            return self.forward_moved(env);
        }
        match env.msg {
            // ---- JobManager: discovery --------------------------------
            NetMsg::SolicitJobManager { job, requirements, reply_to } => {
                let willing = self.node.is_alive()
                    && self.node.free_memory_mb() >= requirements.min_free_memory_mb
                    && self.node.free_slots() >= requirements.min_free_slots;
                if willing {
                    self.c_jm_bids.inc();
                    self.send(reply_to, NetMsg::JobManagerBid { job, bid: self.own_bid() });
                }
            }

            // ---- JobManager: job lifecycle ----------------------------
            NetMsg::CreateJob { job, client, reply_to } => {
                let accepted = !self.jm_jobs.contains_key(&job);
                if accepted {
                    self.jm_jobs.insert(
                        job,
                        JmJob {
                            client,
                            specs: Vec::new(),
                            assigned: HashMap::new(),
                            completed: HashMap::new(),
                            started: HashSet::new(),
                            job_started: false,
                        },
                    );
                }
                self.send(
                    reply_to,
                    NetMsg::JobAck {
                        job,
                        accepted,
                        reason: if accepted { String::new() } else { "job already exists".into() },
                    },
                );
            }
            msg @ (NetMsg::CreateTask { .. } | NetMsg::CreateTasks { .. }) => {
                self.admit(msg);
                self.start_round();
            }
            NetMsg::StartJob { job } => self.jm_start_ready(job),
            NetMsg::CancelJob { job } => self.jm_cancel_job(job),

            // ---- TaskManager: placement -------------------------------
            NetMsg::SolicitTaskManager { job, task, memory_mb, reply_to }
                if self.node.can_host(memory_mb) =>
            {
                self.c_tm_bids.inc();
                self.send(reply_to, NetMsg::TaskManagerBid { job, task, bid: self.own_bid() });
            }
            NetMsg::TaskManagerBid { job, task, bid } => {
                // A bid for anything but the open window is late: dropped.
                if let Some(Round { key, window: Some(window), bids, .. }) = &mut self.round {
                    if *key == (job, task) && window.admit(env.from) {
                        bids.push(bid);
                    }
                }
            }
            NetMsg::AssignAck { job, task, accepted, reason, task_addr } => {
                let ack = task_addr.filter(|_| accepted).ok_or(reason);
                let awaited =
                    self.round.as_mut().is_some_and(|r| r.acked(env.from, job, &task, ack));
                if !awaited && accepted {
                    // Nothing is waiting for this ack — the offer timed out
                    // and moved on: release what the TaskManager set up.
                    self.send(env.from, NetMsg::CancelTask { job, task });
                }
            }
            NetMsg::UploadArchive { jar, .. } => self.tm_upload(&jar),
            NetMsg::AssignTask { job, spec, jm, reply_to } => {
                let task = spec.name.clone();
                match self.tm_assign(job, spec, jm) {
                    Ok(task_addr) => self.send(
                        reply_to,
                        NetMsg::AssignAck {
                            job,
                            task,
                            accepted: true,
                            reason: String::new(),
                            task_addr: Some(task_addr),
                        },
                    ),
                    Err(reason) => self.send(
                        reply_to,
                        NetMsg::AssignAck { job, task, accepted: false, reason, task_addr: None },
                    ),
                }
            }
            NetMsg::StartTask { job, task, directory, client } => {
                self.tm_start(job, &task, directory, client)
            }
            NetMsg::CancelTask { job, task } => self.tm_cancel(job, &task),
            NetMsg::TaskExited { job, task } => self.tm_task_exited(job, task),

            // ---- Load-aware scheduling & work stealing -----------------
            NetMsg::LoadReport { server, addr, signal } if addr != self.addr => {
                // A report from the pending victim doubles as the decline
                // signal: clear the outstanding request so the thief may
                // retry (possibly at a different victim).
                if self.steal_pending.is_some_and(|(v, _)| v == addr) {
                    self.steal_pending = None;
                }
                self.peer_loads.insert(addr, (server, signal));
                self.maybe_steal();
            }
            NetMsg::LoadReport { .. } => {}
            NetMsg::StealRequest { thief, reply_to } => self.tm_steal_request(thief, reply_to),
            NetMsg::StealGrant { job, spec, jm, client, directory, victim, old_endpoint } => self
                .tm_steal_grant(env.from, job, spec, jm, client, directory, victim, old_endpoint),
            NetMsg::StealReturn { job, task } => self.tm_steal_return(job, task),
            NetMsg::TaskMigrated { job, task, server, tm, task_addr } => {
                self.task_migrated(job, task, server, tm, task_addr)
            }

            // ---- Tuple seeding (wire mode) ----------------------------
            NetMsg::SeedTuple { job, tuple } => self.seed_tuple(job, tuple),

            // ---- JobManager: task lifecycle from TMs -------------------
            NetMsg::TaskStarted { job, task } => {
                if let Some(j) = self.jm_jobs.get(&job) {
                    let client = j.client;
                    self.send(client, NetMsg::TaskStarted { job, task });
                }
            }
            NetMsg::TaskCompleted { job, task, result } => {
                self.jm_task_completed(job, task, result)
            }
            NetMsg::TaskFailed { job, task, error } => self.jm_task_failed(job, task, error),

            // Not for the server: ignore.
            _ => {}
        }
    }

    /// Wire-mode tuple seeding: deposit into this process's replica of
    /// the job's space and, if we are the job's JobManager, relay to every
    /// distinct remote TaskManager assigned one of its tasks. Per-peer
    /// FIFO ordering on the socket fabric guarantees the relayed tuple
    /// lands before any later `StartTask` to the same TaskManager.
    fn seed_tuple(&mut self, job: JobId, tuple: Tuple) {
        self.spaces.get_or_create(job).out(tuple.clone());
        let Some(j) = self.jm_jobs.get(&job) else { return };
        let mut relayed: HashSet<Addr> = HashSet::new();
        let targets: Vec<Addr> = j
            .assigned
            .values()
            .map(|(tm, _, _)| *tm)
            .filter(|tm| *tm != self.addr && relayed.insert(*tm))
            .collect();
        for tm in targets {
            self.send(tm, NetMsg::SeedTuple { job, tuple: tuple.clone() });
        }
    }

    /// The live load vector this TaskManager advertises: run-queue depth,
    /// in-flight task threads, smoothed dispatch latency. Piggybacked on
    /// every bid and multicast in `LoadReport` heartbeats.
    fn load_signal(&self) -> LoadSignal {
        LoadSignal {
            queue_depth: self.run_queue.len() as u32,
            in_flight: self.running as u32,
            ewma_dispatch_us: self.dispatch_ewma.get(),
        }
    }

    fn own_bid(&self) -> Bid {
        Bid {
            server: self.name.clone(),
            addr: self.addr,
            load: self.node.load(),
            free_memory_mb: self.node.free_memory_mb(),
            free_slots: self.node.free_slots(),
            signal: self.load_signal(),
        }
    }

    // ---- JobManager internals ------------------------------------------

    /// Start every not-yet-started task whose dependencies are complete.
    fn jm_start_ready(&mut self, job: JobId) {
        let Some(j) = self.jm_jobs.get_mut(&job) else { return };
        j.job_started = true;
        if j.specs.is_empty() {
            // A job with no tasks is vacuously complete.
            return self.jm_end_job(job, None, NetMsg::JobCompleted { job, results: Vec::new() });
        }
        // Build the full directory once per call (client included).
        let mut directory: HashMap<String, Addr> =
            j.assigned.iter().map(|(name, (_, task_addr, _))| (name.clone(), *task_addr)).collect();
        directory.insert(CLIENT_TASK_NAME.to_string(), j.client);
        let client = j.client;
        let ready: Vec<(String, Addr)> = j
            .specs
            .iter()
            .filter(|s| {
                !j.started.contains(&s.name)
                    && !j.completed.contains_key(&s.name)
                    && s.depends.iter().all(|d| j.completed.contains_key(d))
            })
            .filter_map(|s| j.assigned.get(&s.name).map(|(tm, _, _)| (s.name.clone(), *tm)))
            .collect();
        for (task, _) in &ready {
            j.started.insert(task.clone());
        }
        for (task, tm_addr) in ready {
            if tm_addr == self.addr {
                self.tm_start(job, &task, directory.clone(), client);
            } else {
                self.send(
                    tm_addr,
                    NetMsg::StartTask { job, task, directory: directory.clone(), client },
                );
            }
        }
    }

    fn jm_task_completed(&mut self, job: JobId, task: String, result: UserData) {
        let Some(j) = self.jm_jobs.get_mut(&job) else { return };
        j.completed.insert(task.clone(), result.clone());
        let client = j.client;
        self.send(client, NetMsg::TaskCompleted { job, task, result });
        let j = &self.jm_jobs[&job];
        if j.completed.len() == j.specs.len() {
            let results = j
                .specs
                .iter()
                .map(|s| {
                    (s.name.clone(), j.completed.get(&s.name).cloned().unwrap_or(UserData::Empty))
                })
                .collect();
            self.jm_end_job(job, None, NetMsg::JobCompleted { job, results });
        } else if j.job_started {
            self.jm_start_ready(job);
        }
    }

    /// Client-requested cancellation: interrupt everything in flight and
    /// report the job as failed.
    fn jm_cancel_job(&mut self, job: JobId) {
        if !self.jm_jobs.contains_key(&job) {
            return;
        }
        self.rec.event_with(Severity::Warn, "job", Some(job.0), || {
            format!("[{}] job cancelled by client", self.name)
        });
        self.jm_end_job(job, None, NetMsg::JobFailed { job, error: "cancelled by client".into() });
    }

    fn jm_task_failed(&mut self, job: JobId, task: String, error: String) {
        let Some(j) = self.jm_jobs.get(&job) else { return };
        let client = j.client;
        self.rec.event_with(Severity::Error, "job", Some(job.0), || {
            format!("[{}] task {task:?} failed: {error}; cancelling the job", self.name)
        });
        self.send(client, NetMsg::TaskFailed { job, task: task.clone(), error: error.clone() });
        let end = NetMsg::JobFailed { job, error: format!("task {task:?} failed: {error}") };
        self.jm_end_job(job, Some(&task), end);
    }

    /// The one way a job ends: every assigned task that has not completed
    /// but `except` is cancelled — running ones are interrupted, never-started
    /// ones release their reservations — the job's state goes, and the
    /// client hears `end`.
    fn jm_end_job(&mut self, job: JobId, except: Option<&str>, end: NetMsg) {
        let Some(j) = self.jm_jobs.remove(&job) else { return };
        for (task, (tm, _, _)) in j.assigned {
            if j.completed.contains_key(&task) || except == Some(task.as_str()) {
                continue;
            }
            if tm == self.addr {
                self.tm_cancel(job, &task);
            } else {
                self.send(tm, NetMsg::CancelTask { job, task });
            }
        }
        self.send(j.client, end);
    }

    // ---- TaskManager internals ------------------------------------------

    fn tm_upload(&mut self, jar: &str) {
        self.uploaded.insert(jar.to_string());
    }

    /// Reserve resources and set up the task's message queue.
    fn tm_assign(&mut self, job: JobId, spec: TaskSpec, jm: Addr) -> Result<Addr, String> {
        if !self.uploaded.contains(&spec.jar) {
            return Err(format!("archive {:?} was not uploaded", spec.jar));
        }
        if !self.registry.contains(&spec.jar) {
            return Err(format!("archive {:?} not present in the registry", spec.jar));
        }
        let reservation = self.node.reserve(spec.memory_mb).map_err(|e| e.to_string())?;
        let (endpoint, rx) = self.net.register();
        let key = (job, spec.name.clone());
        self.tm_tasks.insert(
            key,
            TmTask {
                spec,
                jm,
                endpoint,
                rx: Some(rx),
                space: self.spaces.get_or_create(job),
                reservation: Some(reservation),
                started: false,
                launched: false,
                start_info: None,
                enqueued_at: None,
                migrated: false,
                stolen_from: None,
            },
        );
        Ok(endpoint)
    }

    /// Admit a started task: launch immediately while an execution slot is
    /// free, otherwise park it in the run queue (where it becomes steal
    /// bait). With `exec_slots: None` every task launches immediately —
    /// the historical behavior.
    fn tm_start(&mut self, job: JobId, task: &str, directory: HashMap<String, Addr>, client: Addr) {
        let key = (job, task.to_string());
        let Some(t) = self.tm_tasks.get_mut(&key) else { return };
        if t.started {
            return;
        }
        t.started = true;
        let cap = self.config.exec_slots.unwrap_or(usize::MAX);
        if self.running < cap {
            self.launch_task(job, task, directory, Instant::now());
        } else {
            t.start_info = Some((directory, client));
            t.enqueued_at = Some(Instant::now());
            self.run_queue.push_back(key);
            self.g_queue_depth.add(1);
            self.load_changed();
        }
    }

    /// Launch the next queued task(s) while execution slots are free.
    fn launch_next_queued(&mut self) {
        let cap = self.config.exec_slots.unwrap_or(usize::MAX);
        while self.running < cap {
            let Some((job, task)) = self.run_queue.pop_front() else { break };
            self.g_queue_depth.add(-1);
            let Some(t) = self.tm_tasks.get_mut(&(job, task.clone())) else { continue };
            let Some((directory, _client)) = t.start_info.take() else { continue };
            let since = t.enqueued_at.take().unwrap_or_else(Instant::now);
            self.launch_task(job, &task, directory, since);
        }
    }

    /// Run an assigned task on a thread of the pool.
    fn launch_task(
        &mut self,
        job: JobId,
        task: &str,
        directory: HashMap<String, Addr>,
        queued_since: Instant,
    ) {
        let Some(t) = self.tm_tasks.get_mut(&(job, task.to_string())) else { return };
        if t.launched {
            return;
        }
        t.launched = true;
        let Some(rx) = t.rx.take() else { return };
        self.dispatch_ewma.observe(queued_since.elapsed().as_micros() as u64);
        self.running += 1;
        self.g_inflight.add(1);
        let t = self.tm_tasks.get_mut(&(job, task.to_string())).expect("present above");
        let reservation = t.reservation.take();
        let spec = t.spec.clone();
        let endpoint = t.endpoint;
        let net = self.net.clone();
        let jm = t.jm;
        let work_scale = self.node.work_scale();
        let local_tm = self.addr;
        let registry = Arc::clone(&self.registry);
        let space = Arc::clone(&t.space);
        let server_name = self.name.clone();
        let rec = self.rec.clone();
        let c_started = self.c_tasks_started.clone();
        let c_completed = self.c_tasks_completed.clone();
        let c_failed = self.c_tasks_failed.clone();
        // A task holds its own clones of the network/registry and reports
        // its end with `TaskExited`; pool threads are never joined, so a task
        // waiting on input that will never arrive does not hold up shutdown.
        let run: TaskRun = Box::new(move || {
            let end = match registry.instantiate(&spec.jar, &spec.class) {
                Err(e) => {
                    // Release capacity before reporting: a client that
                    // observes the failure may immediately inspect nodes.
                    drop(reservation);
                    c_failed.inc();
                    rec.event_with(Severity::Error, "task", Some(job.0), || {
                        format!("[{server_name}] could not instantiate {:?}: {e}", spec.name)
                    });
                    NetMsg::TaskFailed {
                        job,
                        task: spec.name.clone(),
                        error: format!("[{server_name}] {e}"),
                    }
                }
                Ok(mut instance) => {
                    let _ = net.send(
                        endpoint,
                        jm,
                        NetMsg::TaskStarted { job, task: spec.name.clone() },
                    );
                    c_started.inc();
                    let span = rec.span_start_job(
                        "task",
                        &spec.name,
                        rec.job_span(job.0),
                        Some(job.0),
                        Some(&spec.name),
                    );
                    let mut ctx = TaskContext {
                        job,
                        name: spec.name.clone(),
                        params: spec.params.clone(),
                        net: net.clone(),
                        addr: endpoint,
                        pump: MsgPump::new(rx),
                        directory,
                        space,
                        work_scale,
                    };
                    // A panic in user code is one more way for the task to
                    // fail: unwinding past here would skip the report, leaving
                    // the job waiting and the slot, reservation and endpoint
                    // held — and the thread would not come back to the pool.
                    let run = std::panic::AssertUnwindSafe(|| instance.run(&mut ctx));
                    let outcome = std::panic::catch_unwind(run).unwrap_or_else(|payload| {
                        Err(TaskError::new(format!("panicked: {}", panic_text(&*payload))))
                    });
                    // The task span must close before TaskCompleted/TaskFailed
                    // is sent: the JobManager forwards completion to the
                    // client, which may immediately close the enclosing job
                    // span.
                    rec.span_end(span);
                    // Release the node reservation before TaskCompleted goes
                    // out: the client unblocks on JobCompleted and may assert
                    // that all slots/memory are free, so the release must
                    // happen first.
                    drop(reservation);
                    match outcome {
                        Ok(result) => {
                            c_completed.inc();
                            NetMsg::TaskCompleted { job, task: spec.name.clone(), result }
                        }
                        Err(e) => {
                            c_failed.inc();
                            rec.event_with(Severity::Error, "task", Some(job.0), || {
                                format!("[{server_name}] task {:?} failed: {}", spec.name, e.msg)
                            });
                            NetMsg::TaskFailed { job, task: spec.name.clone(), error: e.msg }
                        }
                    }
                }
            };
            Box::new(move || {
                let _ = net.send(endpoint, jm, end);
                let _ = net.send(endpoint, local_tm, NetMsg::TaskExited { job, task: spec.name });
                net.unregister(endpoint);
            })
        });
        if let Err(e) = self.pool.launch(run) {
            // The run went with the refused spawn, and the reservation and the
            // task's receive side with it: what is left is the report.
            self.c_tasks_failed.inc();
            self.rec.event_with(Severity::Error, "task", Some(job.0), || {
                format!("[{}] no thread for task {task:?}: {e}", self.name)
            });
            self.net.unregister(endpoint);
            self.send(self.addr, NetMsg::TaskExited { job, task: task.to_string() });
            let error = format!("[{}] could not start a thread for the task: {e}", self.name);
            self.send(jm, NetMsg::TaskFailed { job, task: task.to_string(), error });
        }
    }

    fn tm_cancel(&mut self, job: JobId, task: &str) {
        let key = (job, task.to_string());
        let Some(t) = self.tm_tasks.get(&key) else { return };
        if t.launched {
            // Poke the task's queue; it sees Shutdown at its next recv. The
            // bookkeeping entry is dropped when the thread reports
            // TaskExited.
            let _ = self.net.send(self.addr, t.endpoint, NetMsg::Shutdown);
        } else {
            // Never launched: release the reservation and the queue (and
            // the run-queue slot, if it was parked waiting to execute).
            let t = self.tm_tasks.remove(&key).expect("checked above");
            if self.run_queue.contains(&key) {
                self.run_queue.retain(|k| *k != key);
                self.g_queue_depth.add(-1);
            }
            self.net.unregister(t.endpoint);
            if let Some(old_endpoint) = t.stolen_from {
                self.send(old_endpoint, NetMsg::Shutdown);
            }
            drop(t); // reservation released here
            self.load_changed();
        }
    }

    /// A task thread finished (completed, failed, or was cancelled): free
    /// its slot, launch queued work, and — now that we may be idle — go
    /// raiding.
    fn tm_task_exited(&mut self, job: JobId, task: String) {
        if let Some(t) = self.tm_tasks.remove(&(job, task)) {
            if t.launched {
                self.running = self.running.saturating_sub(1);
                self.g_inflight.add(-1);
            }
            // Thief side of a migration: the victim still serves the task's
            // old endpoint; nothing will ever answer there now.
            if let Some(old_endpoint) = t.stolen_from {
                self.send(old_endpoint, NetMsg::Shutdown);
            }
        }
        self.launch_next_queued();
        self.load_changed();
        self.maybe_steal();
    }

    // ---- Fair admission & placement rounds -------------------------------

    /// Queue the task(s) of a `CreateTask`/`CreateTasks` for placement.
    /// Admission is deficit-round-robin over per-client queues: a client
    /// flooding heavyweight tasks cannot starve one submitting light ones.
    /// A lone client degenerates to FIFO, so single-client placement order
    /// (and the journal) follows the burst.
    fn admit(&mut self, msg: NetMsg) {
        let (job, specs, reply_to) = match msg {
            NetMsg::CreateTask { job, spec, reply_to } => (job, vec![spec], reply_to),
            NetMsg::CreateTasks { job, specs, reply_to } => (job, specs, reply_to),
            _ => return,
        };
        for spec in specs {
            self.fairq.push(reply_to.0, spec.memory_mb, (job, spec, reply_to));
        }
    }

    /// Start a placement round with everything admitted so far, unless one
    /// is in progress (it starts the next as it ends). Creations that have
    /// already arrived behind the one being handled are admitted first, so
    /// every contender is visible to DRR — not just the first arrival.
    fn start_round(&mut self) {
        if self.round.is_some() {
            return;
        }
        let creations =
            |m: &NetMsg| matches!(m, NetMsg::CreateTask { .. } | NetMsg::CreateTasks { .. });
        for env in self.pump.take_matching(creations) {
            self.admit(env.msg);
        }
        let mut tasks = VecDeque::with_capacity(self.fairq.len());
        let mut names: HashSet<(JobId, String)> = HashSet::new();
        while let Some((job, spec, reply_to)) = self.fairq.pop() {
            let state = match self.jm_jobs.get(&job) {
                None => Offer::Settled(Err(format!("no such job {job}"))),
                Some(j)
                    if j.assigned.contains_key(&spec.name)
                        || !names.insert((job, spec.name.clone())) =>
                {
                    Offer::Settled(Err(format!(
                        "task name {:?} already exists in {job}",
                        spec.name
                    )))
                }
                Some(_) => Offer::Unplaced,
            };
            tasks.push_back(Placing {
                job,
                spec,
                reply_to,
                tried: Vec::new(),
                failures: Vec::new(),
                state,
            });
        }
        let placeable = tasks.iter().filter(|t| matches!(t.state, Offer::Unplaced)).count();
        if placeable == 0 {
            // Nothing to place (or nothing admitted at all): refusals only.
            self.ack_settled(&mut tasks);
            return;
        }
        self.c_rounds.inc();
        self.round = Some(self.solicit(tasks, placeable));
    }

    /// One multicast solicitation for all of `tasks` that are unplaced (the
    /// paper's "JobManager solicits TaskManager for the Tasks"): whoever can
    /// host the smallest of them bids, the table decides the rest.
    fn solicit(&mut self, tasks: VecDeque<Placing>, asks_left: usize) -> Round {
        let mut unplaced = tasks.iter().filter(|t| matches!(t.state, Offer::Unplaced));
        let first = unplaced.next().expect("a solicitation is for some task");
        let key = (first.job, first.spec.name.clone());
        let memory_mb = unplaced.map(|t| t.spec.memory_mb).fold(first.spec.memory_mb, u64::min);
        let solicitation = NetMsg::SolicitTaskManager {
            job: key.0,
            task: key.1.clone(),
            memory_mb,
            reply_to: self.addr,
        };
        // Our own TM is evaluated locally (multicast excludes the sender).
        let bids = if self.node.can_host(memory_mb) { vec![self.own_bid()] } else { Vec::new() };
        self.c_task_solicits.inc();
        let window = Window::open(&self.net, self.addr, solicitation, self.config.bid_window);
        let asks_left = asks_left.saturating_sub(1);
        Round { tasks, key, window: Some(window), bids, complete: false, asks_left }
    }

    /// The earliest instant the open round needs the loop's attention.
    fn next_deadline(&self) -> Option<Instant> {
        let round = self.round.as_ref()?;
        let offers = round.tasks.iter().filter_map(|t| match t.state {
            Offer::InFlight { deadline, .. } => Some(deadline),
            _ => None,
        });
        round.window.iter().map(Window::deadline).chain(offers).min()
    }

    /// Advance the round in progress. The handlers only record what arrived
    /// — a bid, an ack; the loop calls this after every message and at every
    /// deadline to act on it: time out overdue assignments, close the window
    /// when it is due, offer whatever is unplaced, ack what has settled, and
    /// start the next round when this one is done.
    fn advance_round(&mut self) {
        while let Some(mut round) = self.round.take() {
            let now = Instant::now();
            for task in &mut round.tasks {
                let Offer::InFlight { tm, server, deadline } = &task.state else { continue };
                if now < *deadline {
                    continue;
                }
                self.rec.event_with(Severity::Warn, "job", Some(task.job.0), || {
                    format!(
                        "[{}] AssignAck timeout from {server} for {:?}",
                        self.name, task.spec.name
                    )
                });
                // The TM may have accepted after we gave up; tell it to
                // release the assignment (best effort — idempotent on the TM
                // side).
                self.send(*tm, NetMsg::CancelTask { job: task.job, task: task.spec.name.clone() });
                task.failures.push(format!("{server}: AssignAck timeout"));
                task.state = Offer::Unplaced;
            }
            loop {
                if let Some(window) =
                    round.window.take_if(|w| w.is_complete() || now >= w.deadline())
                {
                    round.complete = window.is_complete();
                    self.rec.event_with(Severity::Debug, "job", Some(round.key.0 .0), || {
                        format!(
                            "[{}] round of {} task(s) drew {} TaskManager bid(s)",
                            self.name,
                            round.tasks.len(),
                            round.bids.len()
                        )
                    });
                }
                let unplaced =
                    |r: &Round| r.tasks.iter().any(|t| matches!(t.state, Offer::Unplaced));
                if round.window.is_some() || !unplaced(&round) {
                    break;
                }
                for i in 0..round.tasks.len() {
                    if matches!(round.tasks[i].state, Offer::Unplaced) {
                        self.offer(&mut round, i);
                    }
                }
                // What the table could neither host nor refuse is asked for
                // again (a lone server's window is closed as it opens).
                if unplaced(&round) {
                    round = self.solicit(round.tasks, round.asks_left);
                }
            }
            self.ack_settled(&mut round.tasks);
            if !round.tasks.is_empty() {
                self.round = Some(round);
                return;
            }
            self.start_round();
        }
    }

    /// Offer task `i` to the policy's choice among the closed table's
    /// entries that can still host it and that it has not tried: a
    /// TaskManager may still reject (its state can change between bid and
    /// assignment) or time out, in which case the task comes back here for
    /// the next-best one.
    fn offer(&mut self, round: &mut Round, i: usize) {
        let Round { tasks, bids, complete, asks_left, .. } = round;
        let task = &mut tasks[i];
        task.state = loop {
            let candidates: Vec<Bid> = bids
                .iter()
                .filter(|b| b.can_host(task.spec.memory_mb) && !task.tried.contains(&b.addr))
                .cloned()
                .collect();
            let chosen = match self.config.policy {
                Policy::RoundRobin => self.rr.select(&candidates),
                // Load-aware shares the round-robin rotation state so a
                // uniformly loaded neighborhood places identically to
                // `RoundRobin` (the journal-differential property).
                Policy::LoadAware => select_load_aware(&mut self.rr, &candidates),
                p => select(p, &candidates, 0),
            };
            let Some(chosen) = chosen else {
                if !*complete && *asks_left > 0 {
                    // Someone was slow to bid and the rest of the table is
                    // used up: not a refusal yet, ask again.
                    break Offer::Unplaced;
                }
                break Offer::Settled(Err(if task.failures.is_empty() {
                    format!("no willing TaskManager for task {:?}", task.spec.name)
                } else {
                    format!(
                        "every willing TaskManager failed for task {:?}: {}",
                        task.spec.name,
                        task.failures.join("; ")
                    )
                }));
            };
            let (tm, server) = (chosen.addr, chosen.server.clone());
            task.tried.push(tm);
            if let Some(entry) = bids.iter_mut().find(|b| b.addr == tm) {
                entry.debit(task.spec.memory_mb);
            }
            if tm == self.addr {
                // Local fast path: same process.
                self.tm_upload(&task.spec.jar);
                match self.tm_assign(task.job, task.spec.clone(), self.addr) {
                    Ok(task_addr) => break Offer::Settled(Ok((tm, task_addr, server))),
                    Err(reason) => task.failures.push(format!("{server}: {reason}")),
                }
            } else {
                let size = self.registry.get(&task.spec.jar).map(|a| a.size_bytes).unwrap_or(0);
                let jar = task.spec.jar.clone();
                self.send(tm, NetMsg::UploadArchive { jar, size_bytes: size });
                let (job, spec) = (task.job, task.spec.clone());
                self.send(tm, NetMsg::AssignTask { job, spec, jm: self.addr, reply_to: self.addr });
                self.c_assigns.inc();
                let deadline = Instant::now() + self.config.assign_timeout;
                break Offer::InFlight { tm, server, deadline };
            }
        };
    }

    /// Ack the settled tasks at the front of the round, in burst order, and
    /// record the placed ones in their job.
    fn ack_settled(&mut self, tasks: &mut VecDeque<Placing>) {
        while matches!(tasks.front(), Some(Placing { state: Offer::Settled(_), .. })) {
            let Some(Placing { job, spec, reply_to, state: Offer::Settled(outcome), .. }) =
                tasks.pop_front()
            else {
                unreachable!("front is settled")
            };
            let task = spec.name.clone();
            let outcome = outcome.and_then(|(tm, task_addr, server)| {
                match self.jm_jobs.get_mut(&job) {
                    Some(j) => {
                        j.assigned.insert(task.clone(), (tm, task_addr, server.clone()));
                        j.specs.push(spec);
                        Ok((server, task_addr))
                    }
                    None => {
                        // The job went away (cancelled, failed) while the
                        // assignment was in flight: release it.
                        if tm == self.addr {
                            self.tm_cancel(job, &task);
                        } else {
                            self.send(tm, NetMsg::CancelTask { job, task: task.clone() });
                        }
                        Err(format!("no such job {job}"))
                    }
                }
            });
            let (accepted, reason, server, task_addr) = match outcome {
                Ok((server, task_addr)) => (true, String::new(), server, Some(task_addr)),
                Err(reason) => (false, reason, String::new(), None),
            };
            self.send(reply_to, NetMsg::TaskAck { job, task, accepted, reason, server, task_addr });
        }
    }

    // ---- Work stealing --------------------------------------------------

    /// Multicast a `LoadReport` when the load signal changed, throttled to
    /// [`STEAL_HEARTBEAT`] — except that the edge *into* stealable
    /// territory is always reported immediately so idle peers learn about
    /// new prey promptly. No-op unless stealing is enabled, which keeps
    /// non-stealing runs free of extra traffic.
    fn load_changed(&mut self) {
        let sig = self.load_signal();
        if !self.config.steal || self.last_reported == Some(sig) {
            return;
        }
        let now = Instant::now();
        let due = self.last_report_at.is_none_or(|at| now.duration_since(at) >= STEAL_HEARTBEAT);
        let crossing = sig.queue_depth >= STEAL_THRESHOLD
            && self.last_reported.is_none_or(|s| s.queue_depth < STEAL_THRESHOLD);
        if !due && !crossing {
            return;
        }
        self.last_reported = Some(sig);
        self.last_report_at = Some(now);
        self.net.multicast(
            self.addr,
            cn_cluster::DISCOVERY_GROUP,
            NetMsg::LoadReport { server: self.name.clone(), addr: self.addr, signal: sig },
        );
    }

    /// Thief side: if we have a free execution slot and an empty run
    /// queue, raid the most-loaded peer whose last report meets the steal
    /// threshold. At most one request is in flight at a time; a
    /// `LoadReport` from the victim (decline) or a grant clears it, and a
    /// staleness timeout lets us re-arm if the victim vanished.
    fn maybe_steal(&mut self) {
        if !self.config.steal || !self.run_queue.is_empty() {
            return;
        }
        let cap = self.config.exec_slots.unwrap_or(usize::MAX);
        if self.running >= cap {
            return;
        }
        if let Some((_, since)) = self.steal_pending {
            if since.elapsed() < Duration::from_secs(1) {
                return;
            }
        }
        let victim = self
            .peer_loads
            .iter()
            .filter(|(addr, (_, sig))| **addr != self.addr && sig.queue_depth >= STEAL_THRESHOLD)
            .max_by_key(|(addr, (_, sig))| (sig.queue_depth, std::cmp::Reverse(addr.0)))
            .map(|(addr, _)| *addr);
        let Some(victim) = victim else { return };
        self.c_steal_requests.inc();
        self.steal_pending = Some((victim, Instant::now()));
        self.send(victim, NetMsg::StealRequest { thief: self.name.clone(), reply_to: self.addr });
    }

    /// Victim side: grant the newest queued never-launched task to the
    /// thief, or decline with a fresh `LoadReport`. Granting releases our
    /// reservation and marks the entry migrated; the entry stays until the
    /// thief commits (`TaskMigrated`) or bounces (`StealReturn`) — exactly
    /// one of which arrives, making the handoff at-most-once.
    fn tm_steal_request(&mut self, thief: String, reply_to: Addr) {
        let grantable = self.config.steal && self.run_queue.len() as u32 >= STEAL_THRESHOLD;
        let Some((job, task)) = (if grantable { self.run_queue.pop_back() } else { None }) else {
            // Decline: a unicast report refreshes the thief's view of us
            // and clears its pending-request latch.
            let report = NetMsg::LoadReport {
                server: self.name.clone(),
                addr: self.addr,
                signal: self.load_signal(),
            };
            self.send(reply_to, report);
            return;
        };
        self.g_queue_depth.add(-1);
        let key = (job, task.clone());
        let Some(t) = self.tm_tasks.get_mut(&key) else { return };
        let Some((directory, client)) = t.start_info.clone() else { return };
        t.migrated = true;
        t.enqueued_at = None;
        t.reservation = None; // free memory + slot for local work
        let grant = NetMsg::StealGrant {
            job,
            spec: t.spec.clone(),
            jm: t.jm,
            client,
            directory,
            victim: self.name.clone(),
            old_endpoint: t.endpoint,
        };
        self.rec.event_with(Severity::Info, "sched", Some(job.0), || {
            format!("[{}] granting steal of task {task:?} to {thief}", self.name)
        });
        self.send(reply_to, grant);
        self.load_changed();
    }

    /// Thief side: try to take ownership of a granted task. Success means
    /// reserving locally and announcing `TaskMigrated` to both the
    /// JobManager (placement table) and the victim (the old address); any
    /// failure bounces the task back with `StealReturn`.
    #[allow(clippy::too_many_arguments)]
    fn tm_steal_grant(
        &mut self,
        victim_addr: Addr,
        job: JobId,
        spec: TaskSpec,
        jm: Addr,
        client: Addr,
        mut directory: HashMap<String, Addr>,
        victim: String,
        old_endpoint: Addr,
    ) {
        self.steal_pending = None;
        let task = spec.name.clone();
        if !self.registry.contains(&spec.jar) {
            self.c_steal_returns.inc();
            self.send(victim_addr, NetMsg::StealReturn { job, task });
            return;
        }
        let Ok(reservation) = self.node.reserve(spec.memory_mb) else {
            self.c_steal_returns.inc();
            self.send(victim_addr, NetMsg::StealReturn { job, task });
            return;
        };
        let (endpoint, rx) = self.net.register();
        self.uploaded.insert(spec.jar.clone());
        // The task's own directory entry must point at its new home so
        // self-addressed sends do not detour through the victim.
        directory.insert(task.clone(), endpoint);
        self.tm_tasks.insert(
            (job, task.clone()),
            TmTask {
                spec,
                jm,
                endpoint,
                rx: Some(rx),
                space: self.spaces.get_or_create(job),
                reservation: Some(reservation),
                started: true,
                launched: false,
                start_info: Some((directory, client)),
                enqueued_at: Some(Instant::now()),
                migrated: false,
                stolen_from: Some(old_endpoint),
            },
        );
        let commit = NetMsg::TaskMigrated {
            job,
            task: task.clone(),
            server: self.name.clone(),
            tm: self.addr,
            task_addr: endpoint,
        };
        self.send(jm, commit.clone());
        if victim_addr != jm {
            self.send(victim_addr, commit);
        }
        self.c_steals.inc();
        self.rec.event_with(Severity::Info, "sched", Some(job.0), || {
            format!("[{}] stole task {task:?} from {victim}", self.name)
        });
        self.run_queue.push_back((job, task));
        self.g_queue_depth.add(1);
        self.launch_next_queued();
        self.load_changed();
    }

    /// Victim side: the thief could not take the task after all. Re-reserve
    /// and re-queue it; if even that fails now, the task fails loudly
    /// rather than vanishing.
    fn tm_steal_return(&mut self, job: JobId, task: String) {
        self.c_steal_returns.inc();
        let key = (job, task.clone());
        let Some(t) = self.tm_tasks.get_mut(&key) else { return };
        if !t.migrated {
            return;
        }
        match self.node.reserve(t.spec.memory_mb) {
            Ok(reservation) => {
                t.reservation = Some(reservation);
                t.migrated = false;
                t.enqueued_at = Some(Instant::now());
                self.run_queue.push_back(key);
                self.g_queue_depth.add(1);
                self.launch_next_queued();
                self.load_changed();
            }
            Err(e) => {
                let jm = t.jm;
                let endpoint = t.endpoint;
                self.tm_tasks.remove(&key);
                self.net.unregister(endpoint);
                self.c_tasks_failed.inc();
                self.send(
                    jm,
                    NetMsg::TaskFailed {
                        job,
                        task,
                        error: format!("steal return could not re-reserve: {e}"),
                    },
                );
            }
        }
    }

    /// `TaskMigrated` lands on two parties. As the task's JobManager we
    /// repoint the placement table so later `StartTask`/`CancelTask`/
    /// directory builds go to the thief. As the victim we make the task's
    /// old endpoint an alias of our own address, so that messages sent
    /// against a stale directory come to this loop, which sends them on to
    /// the task's new home ([`ServerState::forward_moved`]) behind what
    /// already sat in the old queue. The Figure-3 journals stay canonical
    /// because every message arrives exactly once, in order, just via one
    /// extra hop.
    fn task_migrated(
        &mut self,
        job: JobId,
        task: String,
        server: String,
        tm: Addr,
        task_addr: Addr,
    ) {
        if let Some(j) = self.jm_jobs.get_mut(&job) {
            if let Some(entry) = j.assigned.get_mut(&task) {
                *entry = (tm, task_addr, server);
            }
        }
        let key = (job, task);
        if !self.tm_tasks.get(&key).is_some_and(|t| t.migrated) {
            return;
        }
        let t = self.tm_tasks.remove(&key).expect("checked above");
        if self.net.alias(t.endpoint, self.addr) {
            self.moved.insert(t.endpoint, task_addr);
        }
        // Nothing enters the old queue once it is an alias.
        let Some(rx) = t.rx else { return };
        while let Ok(env) = rx.try_recv() {
            self.forward_moved(env);
        }
    }

    /// Victim side: a message for the old endpoint of a task stolen from
    /// here goes on to its new one — but the thief's `Shutdown`, sent when
    /// the task has exited, retires the old endpoint.
    fn forward_moved(&mut self, env: Envelope<NetMsg>) {
        if matches!(env.msg, NetMsg::Shutdown) {
            self.moved.remove(&env.to);
            self.net.unregister(env.to);
        } else if let Some(&new) = self.moved.get(&env.to) {
            self.net.post(env.from, new, env.msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::TaskArchive;
    use crate::message::JobRequirements;
    use crate::{Neighborhood, NeighborhoodConfig};
    use cn_cluster::{Network, NodeSpec, DISCOVERY_GROUP};
    use cn_wire::{Fabric, SocketFabric, WireConfig};

    /// A party on a simulated neighborhood's network that the test plays by
    /// hand: a client, a scripted TaskManager, a group member that says
    /// nothing. Every step waits on a message, never on a clock.
    struct Party {
        net: Network<NetMsg>,
        addr: Addr,
        rx: Receiver<Envelope<NetMsg>>,
    }

    impl Party {
        fn join(nb: &Neighborhood, in_discovery_group: bool) -> Party {
            let net = nb.network().clone();
            let (addr, rx) = net.register();
            if in_discovery_group {
                net.join_group(addr, DISCOVERY_GROUP);
            }
            Party { net, addr, rx }
        }

        fn send(&self, to: Addr, msg: NetMsg) {
            self.net.send(self.addr, to, msg).expect("send");
        }

        /// The next message `want` picks, skipping what it does not.
        fn expect<T>(&self, mut want: impl FnMut(NetMsg) -> Option<T>) -> T {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                let env = self.rx.recv_timeout(left).expect("the awaited message");
                if let Some(found) = want(env.msg) {
                    return found;
                }
            }
        }

        fn create_job(&self, jm: Addr, job: JobId) {
            self.send(jm, NetMsg::CreateJob { job, client: self.addr, reply_to: self.addr });
            self.expect(|m| matches!(m, NetMsg::JobAck { accepted: true, .. }).then_some(()));
        }
    }

    fn deploy(nodes: usize, bid_window: Duration) -> Neighborhood {
        let nb = Neighborhood::deploy_with(
            NodeSpec::fleet(nodes, 4000, 4),
            NeighborhoodConfig {
                server: ServerConfig { bid_window, ..ServerConfig::default() },
                ..NeighborhoodConfig::default()
            },
        );
        nb.registry().publish(
            TaskArchive::new("x.jar")
                .class("X", || Box::new(|_ctx: &mut TaskContext| Ok(UserData::Empty))),
        );
        nb
    }

    fn light(name: &str) -> TaskSpec {
        let mut spec = TaskSpec::new(name, "x.jar", "X");
        spec.memory_mb = 100;
        spec
    }

    /// The window is an entry of the loop, not a wait inside a handler: a
    /// server holding a round open for a peer that never bids goes on
    /// answering other JobManagers and relaying lifecycle events.
    #[test]
    fn an_open_window_does_not_hold_the_server() {
        let window = Duration::from_secs(1);
        let nb = deploy(1, window);
        let server = nb.server_addr("node0").unwrap();
        // Addressed by every solicitation; never answers.
        let silent = Party::join(&nb, true);
        let client = Party::join(&nb, false);
        let other = Party::join(&nb, false);
        client.create_job(server, JobId(901));
        other.create_job(server, JobId(902));

        let t0 = Instant::now();
        let spec = light("t");
        client.send(server, NetMsg::CreateTask { job: JobId(901), spec, reply_to: client.addr });
        // The round is open once its solicitation is out.
        silent.expect(|m| matches!(m, NetMsg::SolicitTaskManager { .. }).then_some(()));

        let asked = Instant::now();
        other.send(
            server,
            NetMsg::SolicitTaskManager {
                job: JobId(77),
                task: "foreign".into(),
                memory_mb: 1,
                reply_to: other.addr,
            },
        );
        other.send(server, NetMsg::TaskStarted { job: JobId(902), task: "relayed".into() });
        other.expect(|m| matches!(m, NetMsg::TaskManagerBid { job: JobId(77), .. }).then_some(()));
        other.expect(|m| matches!(m, NetMsg::TaskStarted { job: JobId(902), .. }).then_some(()));
        assert!(asked.elapsed() < Duration::from_millis(100), "{:?}", asked.elapsed());

        // The round itself runs to its bound, then places the task from the
        // one bid it has: the server's own.
        let placed_on = client.expect(|m| match m {
            NetMsg::TaskAck { accepted: true, server, .. } => Some(server),
            _ => None,
        });
        assert_eq!(placed_on, "node0");
        assert!(t0.elapsed() >= window, "{:?}", t0.elapsed());
        nb.shutdown();
    }

    /// A bidder that misses the window is missing from the table, not from
    /// the cluster: when the table is used up the round asks again for what
    /// is left — a burst is not refused over a slow bid.
    #[test]
    fn a_used_up_table_that_missed_a_bidder_is_asked_for_again() {
        let nb = deploy(1, Duration::from_millis(40));
        let jm = nb.server_addr("node0").unwrap();
        let client = Party::join(&nb, false);
        let slow = Party::join(&nb, true);
        let job = JobId(904);
        client.create_job(jm, job);
        // Five tasks, four slots on the one real node.
        let specs: Vec<TaskSpec> = (0..5).map(|i| light(&format!("t{i}"))).collect();
        client.send(jm, NetMsg::CreateTasks { job, specs, reply_to: client.addr });

        // The first solicitation goes unanswered; the second, for the task
        // the server's own four slots had no room for, is answered.
        let solicited = |m| match m {
            NetMsg::SolicitTaskManager { task, reply_to, .. } => Some((task, reply_to)),
            _ => None,
        };
        assert_eq!(slow.expect(solicited).0, "t0");
        let (task, reply_to) = slow.expect(solicited);
        assert_eq!(task, "t4");
        let bid = Bid {
            server: "zz-slow".into(),
            addr: slow.addr,
            load: 0.5,
            free_memory_mb: 1000,
            free_slots: 1,
            signal: LoadSignal::default(),
        };
        slow.send(reply_to, NetMsg::TaskManagerBid { job, task, bid });
        let assigned = slow.expect(|m| match m {
            NetMsg::AssignTask { spec, .. } => Some(spec.name),
            _ => None,
        });
        assert_eq!(assigned, "t4");
        slow.send(
            jm,
            NetMsg::AssignAck {
                job,
                task: assigned,
                accepted: true,
                reason: String::new(),
                task_addr: Some(slow.addr),
            },
        );
        let placed: Vec<(String, String)> = (0..5)
            .map(|_| {
                client.expect(|m| match m {
                    NetMsg::TaskAck { accepted: true, task, server, .. } => Some((task, server)),
                    _ => None,
                })
            })
            .collect();
        let on = |server: &str, tasks: &[&str]| -> Vec<(String, String)> {
            tasks.iter().map(|t| (t.to_string(), server.to_string())).collect()
        };
        assert_eq!(
            placed,
            [on("node0", &["t0", "t1", "t2", "t3"]), on("zz-slow", &["t4"])].concat()
        );
        nb.shutdown();
    }

    /// The re-asking is bounded by what one auction per task would have
    /// spent: two tasks, two solicitations, then the refusal stands.
    #[test]
    fn a_round_asks_no_more_often_than_it_has_tasks() {
        let window = Duration::from_millis(30);
        let nb = deploy(1, window);
        let jm = nb.server_addr("node0").unwrap();
        let client = Party::join(&nb, false);
        let silent = Party::join(&nb, true);
        let job = JobId(905);
        client.create_job(jm, job);
        // The one real node has memory for the first task only.
        let mut specs = vec![light("t0"), light("t1")];
        specs.iter_mut().for_each(|s| s.memory_mb = 2500);
        let t0 = Instant::now();
        client.send(jm, NetMsg::CreateTasks { job, specs, reply_to: client.addr });
        let acks: Vec<(String, bool)> = (0..2)
            .map(|_| {
                client.expect(|m| match m {
                    NetMsg::TaskAck { task, accepted, .. } => Some((task, accepted)),
                    _ => None,
                })
            })
            .collect();
        assert_eq!(acks, [("t0".to_string(), true), ("t1".to_string(), false)]);
        assert!(t0.elapsed() >= 2 * window, "{:?}", t0.elapsed());
        let asked = std::iter::from_fn(|| silent.rx.try_recv().ok())
            .filter(|env| matches!(env.msg, NetMsg::SolicitTaskManager { .. }))
            .count();
        assert_eq!(asked, 2);
        nb.shutdown();
    }

    /// `CancelJob` overtakes a round whose assignments are still in flight:
    /// whatever the round then settles is released again, wherever it landed.
    #[test]
    fn cancel_during_a_round_frees_every_assignment() {
        let nb = deploy(3, Duration::from_secs(1));
        let jm = nb.server_addr("node0").unwrap();
        let client = Party::join(&nb, false);
        // Outbids every real server, then sits on its assignment.
        let slow = Party::join(&nb, true);
        let job = JobId(903);
        client.create_job(jm, job);
        let specs = vec![light("t0"), light("t1"), light("t2")];
        client.send(jm, NetMsg::CreateTasks { job, specs, reply_to: client.addr });

        let (task, reply_to) = slow.expect(|m| match m {
            NetMsg::SolicitTaskManager { task, reply_to, .. } => Some((task, reply_to)),
            _ => None,
        });
        let bid = Bid {
            server: "zz-slow".into(),
            addr: slow.addr,
            load: 0.0,
            free_memory_mb: 1 << 40,
            free_slots: 1 << 20,
            signal: LoadSignal::default(),
        };
        slow.send(reply_to, NetMsg::TaskManagerBid { job, task, bid });
        // t0 is on its way to the slow bidder, t1 and t2 to real servers,
        // and nothing has been acked: t0 is the front of the burst.
        let assigned = slow.expect(|m| match m {
            NetMsg::AssignTask { spec, .. } => Some(spec.name),
            _ => None,
        });
        assert_eq!(assigned, "t0");

        client.send(jm, NetMsg::CancelJob { job });
        client.expect(|m| matches!(m, NetMsg::JobFailed { .. }).then_some(()));
        slow.send(
            jm,
            NetMsg::AssignAck {
                job,
                task: assigned,
                accepted: true,
                reason: String::new(),
                task_addr: Some(slow.addr),
            },
        );
        // The late assignment is handed back, and every task of the burst is
        // refused in order.
        slow.expect(|m| matches!(m, NetMsg::CancelTask { .. }).then_some(()));
        for name in ["t0", "t1", "t2"] {
            let (task, reason) = client.expect(|m| match m {
                NetMsg::TaskAck { accepted: false, task, reason, .. } => Some((task, reason)),
                _ => None,
            });
            assert_eq!(task, name);
            assert!(reason.contains("no such job"), "{reason}");
        }
        // The real servers release theirs as the cancels reach them.
        let deadline = Instant::now() + Duration::from_secs(10);
        while nb.nodes().iter().any(|n| (n.free_slots(), n.free_memory_mb()) != (4, 4000)) {
            assert!(Instant::now() < deadline, "an assignment was never released");
            std::thread::yield_now();
        }
        nb.shutdown();
    }

    /// A server on a socket fabric whose connect cycle is long enough to
    /// tell waiting from not waiting (120 ms of backoff), and a client on a
    /// fabric of its own, both directions connected before anything is timed.
    struct Departures {
        rec: Recorder,
        server: CnServer,
        client: SocketFabric<NetMsg>,
        me: Addr,
        rx: Receiver<Envelope<NetMsg>>,
    }

    impl Departures {
        fn new() -> Departures {
            let rec = Recorder::new();
            let cfg = WireConfig {
                max_retries: 2,
                retry_base: Duration::from_millis(40),
                ..WireConfig::default()
            };
            let fabric: SocketFabric<NetMsg> = SocketFabric::new(cfg, rec.clone()).unwrap();
            let server = CnServer::spawn(
                "w0",
                NodeHandle::new(NodeSpec::new("w0", 4000, 4)),
                Arc::new(fabric),
                Arc::new(ArchiveRegistry::new()),
                Arc::new(SpaceRegistry::new()),
                ServerConfig::default(),
            );
            let client: SocketFabric<NetMsg> =
                SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
            let (me, rx) = client.register();
            let d = Departures { rec, server, client, me, rx };
            d.bid_within(Duration::from_secs(5));
            d
        }

        /// An endpoint of a fabric that has already shut down.
        fn departed() -> Addr {
            let gone: SocketFabric<NetMsg> =
                SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
            gone.register().0
        }

        fn send(&self, msg: NetMsg) {
            self.client.send(self.me, self.server.addr, msg).unwrap();
        }

        fn solicit(&self, reply_to: Addr) {
            self.send(NetMsg::SolicitJobManager {
                job: JobId(1),
                requirements: JobRequirements::default(),
                reply_to,
            });
        }

        /// How long the server takes to answer a solicitation sent now.
        fn bid_within(&self, limit: Duration) -> Duration {
            self.solicit(self.me);
            let t0 = Instant::now();
            let env = self.rx.recv_timeout(limit).expect("a bid");
            assert!(matches!(env.msg, NetMsg::JobManagerBid { .. }), "{:?}", env.msg);
            t0.elapsed()
        }

        /// The quickest of three rounds of `behind`, each of which leaves the
        /// server something for a departed peer, is answered within a
        /// scheduling quantum — not the connect cycle a waiting server would
        /// sit through — and the reactor, giving up behind the server's
        /// back, counts what it could not deliver.
        fn assert_not_held(self, behind: impl Fn(&Departures, u64)) {
            let quickest = (0..3)
                .map(|round| {
                    behind(&self, round);
                    self.bid_within(Duration::from_secs(5))
                })
                .min()
                .unwrap();
            assert!(quickest < Duration::from_millis(20), "{quickest:?}");
            let drops = self.rec.counter("wire.drops");
            let deadline = Instant::now() + Duration::from_secs(10);
            while drops.get() < 3 {
                assert!(Instant::now() < deadline, "drops: {}", drops.get());
                std::thread::sleep(Duration::from_millis(10));
            }
            self.server.shutdown();
        }
    }

    /// A bid to a solicitor that is gone must not hold the server: on a
    /// socket fabric a `send` there waits out the whole connect-retry cycle.
    #[test]
    fn bid_to_a_departed_solicitor_does_not_hold_the_server() {
        Departures::new().assert_not_held(|d, _| d.solicit(Departures::departed()));
    }

    /// A finished run's thread takes the next launch; a launch that finds
    /// none parked spawns one, and a refused spawn is the launch's error.
    #[test]
    fn a_pool_reuses_parked_threads_and_reports_a_refused_spawn() {
        let rec = Recorder::new();
        let pool = TaskPool::new("t", &rec);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let run = |done: std::sync::mpsc::Sender<u32>, n: u32| -> TaskRun {
            Box::new(move || Box::new(move || done.send(n).unwrap()))
        };
        for n in 0..3 {
            pool.launch(run(done_tx.clone(), n)).unwrap();
            assert_eq!(done_rx.recv_timeout(Duration::from_secs(5)), Ok(n));
        }
        // The report is sent once the thread is parked, so every launch after
        // the first found it waiting.
        assert_eq!(rec.counter("server.task_threads_spawned").get(), 1);
        assert_eq!(rec.counter("server.task_threads_reused").get(), 2);

        let mut refusing = TaskPool::new("t", &rec);
        refusing.spawn = |_, _| Err(std::io::Error::from_raw_os_error(11));
        let held = Arc::new(());
        let holder = Arc::clone(&held);
        let err = refusing
            .launch(Box::new(move || {
                drop(holder);
                Box::new(|| {})
            }))
            .unwrap_err();
        assert_eq!(err.raw_os_error(), Some(11));
        assert_eq!(Arc::strong_count(&held), 1, "the refused run is dropped");
        assert_eq!(rec.counter("server.task_threads_spawned").get(), 1);
    }

    /// A task the server cannot give a thread fails like any task: its
    /// JobManager hears the OS error, its reservation and endpoint are
    /// released, and the server loop goes on serving.
    #[test]
    fn a_refused_task_thread_fails_the_task_and_keeps_the_server() {
        let nb = deploy(0, Duration::from_millis(5));
        let node = NodeHandle::new(NodeSpec::new("w0", 4000, 4));
        let mut state = ServerState::new(
            "w0".into(),
            node.clone(),
            nb.fabric(),
            Arc::clone(nb.registry()),
            nb.spaces(),
            ServerConfig::default(),
        );
        state.pool.spawn = |_, _| Err(std::io::Error::from_raw_os_error(11));
        let server = state.addr;
        let serving = std::thread::spawn(move || state.run());

        let jm = Party::join(&nb, false);
        let job = JobId(907);
        jm.send(server, NetMsg::UploadArchive { jar: "x.jar".into(), size_bytes: 1 });
        jm.send(
            server,
            NetMsg::AssignTask { job, spec: light("t"), jm: jm.addr, reply_to: jm.addr },
        );
        let task_addr = jm.expect(|m| match m {
            NetMsg::AssignAck { accepted: true, task_addr, .. } => task_addr,
            _ => None,
        });
        assert_eq!(node.free_slots(), 3);
        let directory = HashMap::from([("t".to_string(), task_addr)]);
        jm.send(server, NetMsg::StartTask { job, task: "t".into(), directory, client: jm.addr });
        let error = jm.expect(|m| match m {
            NetMsg::TaskFailed { task, error, .. } if task == "t" => Some(error),
            _ => None,
        });
        let os = std::io::Error::from_raw_os_error(11).to_string();
        assert!(error.contains("could not start a thread") && error.contains(&os), "{error}");
        assert_eq!((node.free_slots(), node.free_memory_mb()), (4, 4000));
        assert!(jm.net.send(jm.addr, task_addr, NetMsg::Shutdown).is_err(), "endpoint kept");

        // Still serving, and the slot is off its books too.
        let reply_to = jm.addr;
        jm.send(
            server,
            NetMsg::SolicitJobManager { job, requirements: JobRequirements::default(), reply_to },
        );
        let bid = jm.expect(|m| match m {
            NetMsg::JobManagerBid { bid, .. } => Some(bid),
            _ => None,
        });
        assert_eq!(bid.signal.in_flight, 0);
        jm.send(server, NetMsg::Shutdown);
        serving.join().unwrap();
        nb.shutdown();
    }

    /// Nor must anything else the loop sends: a `TaskStarted` relayed to a
    /// job whose client has torn its fabric down (a portal job that timed
    /// out) is posted like a bid.
    #[test]
    fn relay_to_a_departed_client_does_not_hold_the_server() {
        Departures::new().assert_not_held(|d, round| {
            let job = JobId(10 + round);
            d.send(NetMsg::CreateJob { job, client: Departures::departed(), reply_to: d.me });
            let ack = d.rx.recv_timeout(Duration::from_secs(5)).expect("a JobAck");
            assert!(matches!(ack.msg, NetMsg::JobAck { accepted: true, .. }), "{:?}", ack.msg);
            d.send(NetMsg::TaskStarted { job, task: "t".to_string() });
        });
    }
}
