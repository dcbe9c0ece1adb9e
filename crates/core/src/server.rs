//! The CNServer servant: one process per node hosting both a JobManager and
//! a TaskManager.
//!
//! "JobManager and the TaskManager are part of the same process, CNServer,
//! which is a servant (since it acts as a client and a server). The
//! JobManager can support multiple Jobs." (paper Section 3)
//!
//! Each server runs an event loop on its own thread, joined to the CN
//! discovery multicast group. The JobManager half answers solicitations,
//! admits created tasks into placement rounds (one solicitation per round;
//! the round is `placement::Round`, and the loop only carries bids, acks and
//! deadlines in and its actions out) and keeps each job as a `job::Job`,
//! whose lifecycle messages the loop carries in and whose starts, cancels
//! and client reports it carries out; the TaskManager half bids for tasks,
//! receives archive uploads, sets up per-task message queues and runs each
//! task in a thread of its own (`RUN_AS_THREAD_IN_TM`), one a finished task
//! left parked when there is one (`TaskPool`). Nothing waits inside a
//! handler: an open bid window and every outstanding assignment are
//! deadlines of the round, which the loop's receive honours.

use std::collections::hash_map::Entry;
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
use crate::job::{Action as JobAction, Event as JobEvent, Job};
use crate::message::{Bid, JobId, NetMsg, TaskSpec};
use crate::placement::{Action, Event, Round};
use crate::pump::{MsgPump, Window};
use crate::scheduler::{Ewma, FairQueue, LoadSignal, Policy, RoundRobin};
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

/// How long an assignment may go without its AssignAck before the
/// JobManager offers the task to the next-best bidder.
const ASSIGN_TIMEOUT: Duration = Duration::from_secs(2);

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
    pub fn shutdown(self) {
        drop(self)
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
    jobs: HashMap<JobId, Job>,
    tm_tasks: HashMap<(JobId, String), TmTask>,
    /// Jars this TaskManager has received.
    uploaded: HashSet<String>,
    /// The placement rotation, lent to each round: it outlives them.
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
            jobs: HashMap::new(),
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
            let deadline = self.round.as_ref().and_then(Round::deadline);
            match self.pump.next_before(deadline) {
                Ok(env) if matches!(env.msg, NetMsg::Shutdown) && env.to == self.addr => break,
                Ok(env) => self.handle(env),
                Err(RecvTimeoutError::Timeout) => {}
                // The network is gone.
                Err(RecvTimeoutError::Disconnected) => break,
            }
            // A deadline that was due is acted on even if messages kept
            // the receive from timing out (a tick with nothing due is a no-op).
            if deadline.is_some_and(|d| d <= Instant::now()) {
                self.place(Event::Tick);
            }
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
                let accepted = !self.jobs.contains_key(&job);
                if accepted {
                    self.jobs.insert(job, Job::new(job, client));
                }
                let reason = if accepted { String::new() } else { "job already exists".into() };
                self.send(reply_to, NetMsg::JobAck { job, accepted, reason });
            }
            msg @ (NetMsg::CreateTask { .. } | NetMsg::CreateTasks { .. }) => {
                self.admit(msg);
                self.start_round();
            }
            NetMsg::StartJob { job } => self.job_on(job, JobEvent::Start),
            NetMsg::CancelJob { job } if self.jobs.contains_key(&job) => {
                self.rec.event_with(Severity::Warn, "job", Some(job.0), || {
                    format!("[{}] job cancelled by client", self.name)
                });
                self.job_on(job, JobEvent::Cancel)
            }

            // ---- TaskManager: placement -------------------------------
            NetMsg::SolicitTaskManager { job, task, memory_mb, reply_to }
                if self.node.can_host(memory_mb) =>
            {
                self.c_tm_bids.inc();
                self.send(reply_to, NetMsg::TaskManagerBid { job, task, bid: self.own_bid() });
            }
            NetMsg::TaskManagerBid { job, task, bid } => {
                self.place(Event::Bid { from: env.from, job, task, bid })
            }
            NetMsg::AssignAck { job, task, accepted, reason, task_addr } => {
                let ack = task_addr.filter(|_| accepted).ok_or(reason);
                if self.round.is_some() {
                    self.place(Event::Ack { from: env.from, job, task, ack });
                } else if accepted {
                    // No round waits for it: release what the TaskManager set up.
                    self.send(env.from, NetMsg::CancelTask { job, task });
                }
            }
            NetMsg::UploadArchive { jar, .. } => {
                self.uploaded.insert(jar);
            }
            NetMsg::AssignTask { job, spec, jm, reply_to } => {
                let task = spec.name.clone();
                let (accepted, reason, task_addr) = match self.tm_assign(job, spec, jm) {
                    Ok(task_addr) => (true, String::new(), Some(task_addr)),
                    Err(reason) => (false, reason, None),
                };
                self.send(reply_to, NetMsg::AssignAck { job, task, accepted, reason, task_addr });
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
                self.steal_pending = self.steal_pending.filter(|(v, _)| *v != addr);
                self.peer_loads.insert(addr, (server, signal));
                self.maybe_steal();
            }
            NetMsg::LoadReport { .. } => {}
            NetMsg::StealRequest { thief, reply_to } => self.tm_steal_request(thief, reply_to),
            NetMsg::StealGrant { job, spec, jm, client, directory, victim, old_endpoint } => self
                .tm_steal_grant(env.from, job, spec, jm, client, directory, victim, old_endpoint),
            NetMsg::StealReturn { job, task } => self.tm_steal_return(job, task),
            NetMsg::TaskMigrated { job, task, tm, task_addr, .. } => {
                let (name, depends) = (task.clone(), None);
                self.job_on(job, JobEvent::Placed { task: name, depends, tm, task_addr });
                self.task_migrated(job, task, task_addr)
            }

            // ---- Tuple seeding (wire mode) ----------------------------
            NetMsg::SeedTuple { job, tuple } => self.seed_tuple(job, tuple),

            // ---- JobManager: task lifecycle from TMs -------------------
            NetMsg::TaskStarted { job, task } => {
                if let Some(client) = self.jobs.get(&job).map(Job::client) {
                    self.send(client, NetMsg::TaskStarted { job, task });
                }
            }
            NetMsg::TaskCompleted { job, task, result } => {
                self.job_on(job, JobEvent::Completed { task, result })
            }
            NetMsg::TaskFailed { job, task, error } => {
                self.job_on(job, JobEvent::Failed { task, error })
            }

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
        let Some(j) = self.jobs.get(&job) else { return };
        let mut relayed: HashSet<Addr> = HashSet::new();
        for tm in j.tms() {
            if tm != self.addr && relayed.insert(tm) {
                self.send(tm, NetMsg::SeedTuple { job, tuple: tuple.clone() });
            }
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

    fn load_report(&self, signal: LoadSignal) -> NetMsg {
        NetMsg::LoadReport { server: self.name.clone(), addr: self.addr, signal }
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

    /// Hand `event` to `job` and carry its actions out.
    fn job_on(&mut self, job: JobId, event: JobEvent) {
        let Some(j) = self.jobs.get_mut(&job) else { return };
        let client = j.client();
        for action in j.on(event) {
            self.job_action(job, client, action);
        }
    }

    /// Do what a job asked. A start or cancel for this server's own
    /// TaskManager runs in place.
    fn job_action(&mut self, job: JobId, client: Addr, action: JobAction) {
        match action {
            JobAction::StartTask { tm, task, directory } if tm == self.addr => {
                self.tm_start(job, &task, directory, client)
            }
            JobAction::StartTask { tm, task, directory } => {
                self.send(tm, NetMsg::StartTask { job, task, directory, client })
            }
            JobAction::ToClient(msg) => {
                // A job reports a task's failure only as it ends over it.
                if let NetMsg::TaskFailed { task, error, .. } = &msg {
                    self.rec.event_with(Severity::Error, "job", Some(job.0), || {
                        format!("[{}] task {task:?} failed: {error}; cancelling the job", self.name)
                    });
                }
                self.send(client, msg)
            }
            JobAction::CancelTask { tm, task } if tm == self.addr => self.tm_cancel(job, &task),
            JobAction::CancelTask { tm, task } => self.send(tm, NetMsg::CancelTask { job, task }),
            JobAction::End(msg) => {
                self.jobs.remove(&job);
                self.send(client, msg)
            }
        }
    }

    // ---- TaskManager internals ------------------------------------------

    /// Reserve resources and set up the task's message queue.
    fn tm_assign(&mut self, job: JobId, spec: TaskSpec, jm: Addr) -> Result<Addr, String> {
        if !self.uploaded.contains(&spec.jar) {
            return Err(format!("archive {:?} was not uploaded", spec.jar));
        }
        self.tm_host(job, spec, jm)
    }

    /// Reserve what `spec` needs and set up its message queue.
    fn tm_host(&mut self, job: JobId, spec: TaskSpec, jm: Addr) -> Result<Addr, String> {
        if !self.registry.contains(&spec.jar) {
            return Err(format!("archive {:?} not present in the registry", spec.jar));
        }
        let reservation = self.node.reserve(spec.memory_mb).map_err(|e| e.to_string())?;
        let (endpoint, rx) = self.net.register();
        let t = TmTask {
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
        };
        self.tm_tasks.insert((job, t.spec.name.clone()), t);
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

    /// Run an assigned task on a thread of the pool; it has waited to
    /// launch since `at` (the dispatch EWMA's sample).
    fn launch_task(
        &mut self,
        job: JobId,
        task: &str,
        directory: HashMap<String, Addr>,
        at: Instant,
    ) {
        let Some(t) = self.tm_tasks.get_mut(&(job, task.to_string())) else { return };
        if t.launched {
            return;
        }
        t.launched = true;
        let Some(rx) = t.rx.take() else { return };
        let reservation = t.reservation.take();
        let (spec, endpoint, jm, space) = (t.spec.clone(), t.endpoint, t.jm, Arc::clone(&t.space));
        self.dispatch_ewma.observe(at.elapsed().as_micros() as u64);
        self.running += 1;
        self.g_inflight.add(1);
        let (net, work_scale, local_tm) = (self.net.clone(), self.node.work_scale(), self.addr);
        let (registry, server_name) = (Arc::clone(&self.registry), self.name.clone());
        let (rec, c_started) = (self.rec.clone(), self.c_tasks_started.clone());
        let (c_completed, c_failed) = (self.c_tasks_completed.clone(), self.c_tasks_failed.clone());
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
                    let error = format!("[{server_name}] {e}");
                    NetMsg::TaskFailed { job, task: spec.name.clone(), error }
                }
                Ok(mut instance) => {
                    let started = NetMsg::TaskStarted { job, task: spec.name.clone() };
                    let _ = net.send(endpoint, jm, started);
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
        let Entry::Occupied(entry) = self.tm_tasks.entry(key.clone()) else { return };
        if entry.get().launched {
            // Poke the task's queue; it sees Shutdown at its next recv. The
            // bookkeeping entry is dropped when the thread reports
            // TaskExited.
            let _ = self.net.send(self.addr, entry.get().endpoint, NetMsg::Shutdown);
        } else {
            // Never launched: release the reservation and the queue (and
            // the run-queue slot, if it was parked waiting to execute).
            let t = entry.remove();
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
    /// every contender is visible to DRR — not just the first arrival. A
    /// task of a job this JobManager does not hold, or whose name its job
    /// already has, is refused in its turn.
    fn start_round(&mut self) {
        if self.round.is_some() {
            return;
        }
        let creations =
            |m: &NetMsg| matches!(m, NetMsg::CreateTask { .. } | NetMsg::CreateTasks { .. });
        for env in self.pump.take_matching(creations) {
            self.admit(env.msg);
        }
        let mut tasks = Vec::with_capacity(self.fairq.len());
        let mut names: HashSet<(JobId, String)> = HashSet::new();
        while let Some((job, spec, reply_to)) = self.fairq.pop() {
            let admitted = match self.jobs.get(&job) {
                None => Err(format!("no such job {job}")),
                Some(j) if j.holds(&spec.name) || !names.insert((job, spec.name.clone())) => {
                    Err(format!("task name {:?} already exists in {job}", spec.name))
                }
                Some(_) => Ok(()),
            };
            tasks.push((job, spec, reply_to, admitted));
        }
        if tasks.is_empty() {
            return;
        }
        if tasks.iter().any(|t| t.3.is_ok()) {
            self.c_rounds.inc();
        }
        let rr = std::mem::take(&mut self.rr);
        self.round = Some(Round::new(tasks, self.config.policy, rr, ASSIGN_TIMEOUT));
        self.place(Event::Tick);
    }

    /// Carry `event` into the round in progress and its actions out, until
    /// the round has nothing left to say; then start the next round if this
    /// one is done.
    fn place(&mut self, event: Event) {
        let Some(mut round) = self.round.take() else { return };
        let mut events = VecDeque::from([event]);
        while let Some(event) = events.pop_front() {
            for action in round.on(event, Instant::now()) {
                events.extend(self.carry_out(&mut round, action));
            }
        }
        match round.finish() {
            Some(rr) => {
                self.rr = rr;
                self.start_round();
            }
            None => self.round = Some(round),
        }
    }

    /// Do what the round asked. An assignment to this server's own TaskManager
    /// runs in place and its result goes back in as an ack; a solicitation's
    /// window, as a tick.
    fn carry_out(&mut self, round: &mut Round, action: Action) -> Option<Event> {
        match action {
            Action::Solicit { job, task, memory_mb } => {
                let own = self.node.can_host(memory_mb).then(|| self.own_bid());
                self.c_task_solicits.inc();
                let ask = NetMsg::SolicitTaskManager { job, task, memory_mb, reply_to: self.addr };
                round.asked(Window::open(&self.net, self.addr, ask, self.config.bid_window), own);
                return Some(Event::Tick);
            }
            Action::Assign { tm, job, spec } if tm == self.addr => {
                self.uploaded.insert(spec.jar.clone());
                let task = spec.name.clone();
                let ack = self.tm_assign(job, spec, tm);
                return Some(Event::Ack { from: tm, job, task, ack });
            }
            Action::Assign { tm, job, spec } => {
                let size_bytes = self.registry.get(&spec.jar).map_or(0, |a| a.size_bytes);
                self.send(tm, NetMsg::UploadArchive { jar: spec.jar.clone(), size_bytes });
                let (jm, reply_to) = (self.addr, self.addr);
                self.send(tm, NetMsg::AssignTask { job, spec, jm, reply_to });
                self.c_assigns.inc();
            }
            Action::Cancel { tm, job, task, timed_out } => {
                if let Some(server) = timed_out {
                    self.rec.event_with(Severity::Warn, "job", Some(job.0), || {
                        format!("[{}] AssignAck timeout from {server} for {task:?}", self.name)
                    });
                }
                self.send(tm, NetMsg::CancelTask { job, task });
            }
            // Place the task in its job. If the job has gone meanwhile
            // (cancelled, failed), release the assignment where it landed.
            Action::TaskAck { job, spec, reply_to, placed } => {
                let task = spec.name.clone();
                let placed = placed.and_then(|(tm, task_addr, server)| {
                    if !self.jobs.contains_key(&job) {
                        let cancel = JobAction::CancelTask { tm, task: task.clone() };
                        self.job_action(job, reply_to, cancel);
                        return Err(format!("no such job {job}"));
                    }
                    let (task, depends) = (task.clone(), Some(spec.depends));
                    self.job_on(job, JobEvent::Placed { task, depends, tm, task_addr });
                    Ok((server, task_addr))
                });
                let (accepted, reason, server, task_addr) = match placed {
                    Ok((server, task_addr)) => (true, String::new(), server, Some(task_addr)),
                    Err(reason) => (false, reason, String::new(), None),
                };
                self.send(
                    reply_to,
                    NetMsg::TaskAck { job, task, accepted, reason, server, task_addr },
                );
            }
        }
        None
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
        self.net.multicast(self.addr, cn_cluster::DISCOVERY_GROUP, self.load_report(sig));
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
        if self.steal_pending.is_some_and(|(_, since)| since.elapsed() < Duration::from_secs(1)) {
            return;
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
            self.send(reply_to, self.load_report(self.load_signal()));
            return;
        };
        self.g_queue_depth.add(-1);
        let key = (job, task.clone());
        let Some(t) = self.tm_tasks.get_mut(&key) else { return };
        let Some((directory, client)) = t.start_info.clone() else { return };
        t.migrated = true;
        t.enqueued_at = None;
        t.reservation = None; // free memory + slot for local work
        let (spec, jm, victim, old_endpoint) =
            (t.spec.clone(), t.jm, self.name.clone(), t.endpoint);
        let grant = NetMsg::StealGrant { job, spec, jm, client, directory, victim, old_endpoint };
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
        let (task, jar) = (spec.name.clone(), spec.jar.clone());
        let Ok(endpoint) = self.tm_host(job, spec, jm) else {
            self.c_steal_returns.inc();
            self.send(victim_addr, NetMsg::StealReturn { job, task });
            return;
        };
        self.uploaded.insert(jar);
        // The task's own directory entry must point at its new home so
        // self-addressed sends do not detour through the victim.
        directory.insert(task.clone(), endpoint);
        if let Some(t) = self.tm_tasks.get_mut(&(job, task.clone())) {
            t.started = true;
            t.start_info = Some((directory, client));
            t.enqueued_at = Some(Instant::now());
            t.stolen_from = Some(old_endpoint);
        }
        let (server, tm, task_addr) = (self.name.clone(), self.addr, endpoint);
        let commit = NetMsg::TaskMigrated { job, task: task.clone(), server, tm, task_addr };
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
                let (jm, endpoint) = (t.jm, t.endpoint);
                self.tm_tasks.remove(&key);
                self.net.unregister(endpoint);
                self.c_tasks_failed.inc();
                let error = format!("steal return could not re-reserve: {e}");
                self.send(jm, NetMsg::TaskFailed { job, task, error });
            }
        }
    }

    /// `TaskMigrated` lands on two parties. The task's JobManager repoints
    /// it in its job (`Placed`), so later `StartTask`/`CancelTask`/directory
    /// builds go to the thief. As the victim we make the task's
    /// old endpoint an alias of our own address, so that messages sent
    /// against a stale directory come to this loop, which sends them on to
    /// the task's new home ([`ServerState::forward_moved`]) behind what
    /// already sat in the old queue. The Figure-3 journals stay canonical
    /// because every message arrives exactly once, in order, just via one
    /// extra hop.
    fn task_migrated(&mut self, job: JobId, task: String, task_addr: Addr) {
        let Entry::Occupied(entry) = self.tm_tasks.entry((job, task)) else { return };
        if !entry.get().migrated {
            return;
        }
        let t = entry.remove();
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
    use crate::message::{JobRequirements, UserData};
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

    /// A server on a socket fabric, whose connect cycle is long enough to
    /// tell waiting from not waiting (350 ms of backoff), and a client on a
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
            let fabric: SocketFabric<NetMsg> =
                SocketFabric::new(WireConfig::default(), rec.clone()).unwrap();
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
