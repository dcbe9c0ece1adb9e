//! The CNServer servant: one process per node hosting both a JobManager and
//! a TaskManager.
//!
//! "JobManager and the TaskManager are part of the same process, CNServer,
//! which is a servant (since it acts as a client and a server). The
//! JobManager can support multiple Jobs." (paper Section 3)
//!
//! Each server runs an event loop on its own thread, joined to the CN
//! discovery multicast group. What the server decides lives in three values
//! with no I/O in them: each placement round (`placement::Round`), each job
//! (`job::Job`) and the TaskManager's tasks (`tm::Tasks`, which queues them
//! for a slot and runs them). The loop answers solicitations, carries
//! messages and due deadlines into those values and their actions out:
//! posts, endpoints registered and reserved for, and tasks run on threads of
//! their own (`RUN_AS_THREAD_IN_TM`), one a finished task left parked when
//! there is one (`TaskPool`). Nothing waits inside a handler.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_cluster::node::Reservation;
use cn_cluster::{Addr, Envelope, NodeHandle};
use cn_observe::{Counter, Gauge, Recorder, Severity};
use cn_sync::channel::{Receiver, RecvTimeoutError, Sender};
use cn_sync::thread::JoinHandle;
use cn_wire::FabricHandle;

use crate::archive::ArchiveRegistry;
use crate::endpoint::Endpoint;
use crate::job::{Action as JobAction, Event as JobEvent, Job};
use crate::message::{Bid, JobId, NetMsg, TaskSpec};
use crate::placement::{Action, Answer, Event, Round};
use crate::pump::{MsgPump, Window};
use crate::scheduler::{FairQueue, Policy, RoundRobin};
use crate::task::{panic_text, TaskContext, TaskError};
use crate::tm::{self, Tasks};
use crate::tuplespace::{HeldSpace, TupleSpace};

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
    /// queue — the queue that feeds `LoadSignal`.
    pub exec_slots: Option<usize>,
}

/// How long an assignment may go without its AssignAck before the
/// JobManager offers the task to the next-best bidder.
const ASSIGN_TIMEOUT: Duration = Duration::from_secs(2);

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
        config: ServerConfig,
    ) -> CnServer {
        let name = name.into();
        let state = ServerState::new(name.clone(), node, net.clone(), registry, config);
        let addr = state.addr;
        // A spawn fails only when the OS refuses the process another thread;
        // every other thread of the runtime (`cn_sync::thread::spawn`: task
        // pools, reactor shards) panics on the same refusal, so a server
        // does too rather than return a half-deployed neighborhood.
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

/// What the server holds for a task hosted here until it runs: its
/// endpoint's receive side.
type Hosted = Receiver<Envelope<NetMsg>>;

type TmEvent = tm::Event<Hosted, Reservation>;
type TmAction = tm::Action<Hosted, Reservation>;

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
    config: ServerConfig,
    /// The jobs this JobManager holds, each with its tuple space beside it:
    /// both go as the job ends.
    jobs: HashMap<JobId, (Job, HeldSpace)>,
    /// The TaskManager's tasks and its run queue.
    tasks: Tasks<Hosted, Reservation>,
    /// Jars this TaskManager has received.
    uploaded: HashSet<String>,
    /// The placement rotation, lent to each round: it outlives them.
    rr: RoundRobin,
    /// Per-client deficit-round-robin admission queue for created tasks.
    fairq: FairQueue<(JobId, TaskSpec, Addr)>,
    /// The placement round in progress; what is admitted meanwhile waits in
    /// `fairq` for the next one.
    round: Option<Round>,
    /// The threads tasks run on.
    pool: TaskPool,
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
    /// The operation counters every held space counts into.
    c_space: [Counter; 3],
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
        config: ServerConfig,
    ) -> ServerState {
        let (addr, rx) = net.register();
        net.join_group(addr, cn_cluster::DISCOVERY_GROUP);
        let rec = net.recorder().clone();
        ServerState {
            pool: TaskPool::new(&name, &rec),
            tasks: Tasks::new(config.exec_slots),
            name,
            addr,
            pump: MsgPump::new(rx),
            node,
            registry,
            config,
            jobs: HashMap::new(),
            uploaded: HashSet::new(),
            rr: RoundRobin::new(),
            fairq: FairQueue::new(FAIR_QUANTUM_MB),
            round: None,
            c_jm_bids: rec.counter("server.jm_bids_sent"),
            c_tm_bids: rec.counter("server.tm_bids_sent"),
            c_task_solicits: rec.counter("server.task_solicitations"),
            c_rounds: rec.counter("server.placement_rounds"),
            c_assigns: rec.counter("server.assigns_sent"),
            c_tasks_started: rec.counter("server.tasks_started"),
            c_tasks_completed: rec.counter("server.tasks_completed"),
            c_tasks_failed: rec.counter("server.tasks_failed"),
            c_space: ["space.out", "space.rd", "space.in"].map(|name| rec.counter(name)),
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
                Ok(Envelope { msg: NetMsg::Shutdown, .. }) => break,
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
                    let [out, rd, take] = self.c_space.clone();
                    let space = HeldSpace::new(TupleSpace::with_counters(out, rd, take));
                    self.jobs.insert(job, (Job::new(job, client), space));
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
            NetMsg::SolicitTaskManager { job, task, memory_mb, reply_to } => {
                match self.answer(memory_mb) {
                    Some(Answer::Bid(bid)) => {
                        self.c_tm_bids.inc();
                        self.send(reply_to, NetMsg::TaskManagerBid { job, task, bid });
                    }
                    Some(Answer::Decline { capacity_mb }) => {
                        self.send(reply_to, NetMsg::Decline { job, task, capacity_mb })
                    }
                    None => {}
                }
            }
            NetMsg::TaskManagerBid { job, task, bid } => {
                let answer = Answer::Bid(bid);
                self.place(Event::Answer { from: env.from, job, task, answer })
            }
            NetMsg::Decline { job, task, capacity_mb } => {
                let answer = Answer::Decline { capacity_mb };
                self.place(Event::Answer { from: env.from, job, task, answer })
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
                let (accepted, reason, task_addr) = match self.host(job, spec, jm) {
                    Ok(task_addr) => (true, String::new(), Some(task_addr)),
                    Err(reason) => (false, reason, None),
                };
                self.send(reply_to, NetMsg::AssignAck { job, task, accepted, reason, task_addr });
            }
            // ---- JobManager: the job's tuple space ----------------------
            NetMsg::TupleOut { job, tuple } => {
                let gives = self.jobs.get_mut(&job).map(|(_, space)| space.out(tuple));
                for (to, tuple) in gives.into_iter().flatten() {
                    self.send(to, NetMsg::TupleGive { job, tuple });
                }
            }
            NetMsg::TupleAsk { job, pattern, take, reply_to } => {
                let found =
                    self.jobs.get_mut(&job).and_then(|(_, s)| s.ask(pattern, take, reply_to));
                if let Some(tuple) = found {
                    self.send(reply_to, NetMsg::TupleGive { job, tuple });
                }
            }

            // ---- JobManager: task lifecycle from TMs -------------------
            NetMsg::TaskStarted { job, task } => {
                if let Some(client) = self.jobs.get(&job).map(|(j, _)| j.client()) {
                    self.send(client, NetMsg::TaskStarted { job, task });
                }
            }
            NetMsg::TaskCompleted { job, task, result } => {
                self.job_on(job, JobEvent::Completed { task, result })
            }
            NetMsg::TaskFailed { job, task, error } => {
                self.job_on(job, JobEvent::Failed { task, error })
            }

            // ---- TaskManager: its tasks ----------------------------------
            msg => self.tm(TmEvent::Net(msg)),
        }
    }

    /// This TaskManager's answer to a solicitation for `memory_mb`: a bid if
    /// it can host that now, a decline if its whole node is smaller, and
    /// nothing if it is only busy (DESIGN.md §14 rule 5).
    fn answer(&self, memory_mb: u64) -> Option<Answer> {
        let capacity_mb = self.node.spec().memory_mb;
        if self.node.can_host(memory_mb) {
            Some(Answer::Bid(self.own_bid()))
        } else {
            (capacity_mb < memory_mb).then_some(Answer::Decline { capacity_mb })
        }
    }

    fn own_bid(&self) -> Bid {
        Bid {
            server: self.name.clone(),
            addr: self.addr,
            load: self.node.load(),
            free_memory_mb: self.node.free_memory_mb(),
            free_slots: self.node.free_slots(),
            signal: self.tasks.signal(),
        }
    }

    // ---- JobManager internals ------------------------------------------

    /// Hand `event` to `job` and carry its actions out.
    fn job_on(&mut self, job: JobId, event: JobEvent) {
        let Some((j, _)) = self.jobs.get_mut(&job) else { return };
        let client = j.client();
        for action in j.on(event) {
            self.job_action(job, client, action);
        }
    }

    /// Do what a job asked. A start or cancel for this server's own
    /// TaskManager runs in place.
    fn job_action(&mut self, job: JobId, client: Addr, action: JobAction) {
        match action {
            JobAction::StartTask { tm, task, directory } => {
                self.send_tm(tm, NetMsg::StartTask { job, task, directory, client })
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
            JobAction::CancelTask { tm, task } => {
                self.send_tm(tm, NetMsg::CancelTask { job, task })
            }
            JobAction::End(msg) => {
                self.jobs.remove(&job);
                self.send(client, msg)
            }
        }
    }

    // ---- TaskManager internals ------------------------------------------

    /// Send `msg` to the TaskManager `tm`; this server's own takes it in place.
    fn send_tm(&mut self, tm: Addr, msg: NetMsg) {
        if tm == self.addr {
            self.tm(TmEvent::Net(msg))
        } else {
            self.send(tm, msg)
        }
    }

    /// Host the task of an `AssignTask` — its archive checked, what it needs
    /// reserved, its endpoint registered — and hand it to the tasks: its
    /// endpoint, or why not.
    fn host(&mut self, job: JobId, spec: TaskSpec, jm: Addr) -> Result<Addr, String> {
        if !self.uploaded.contains(&spec.jar) {
            return Err(format!("archive {:?} was not uploaded", spec.jar));
        }
        if !self.registry.contains(&spec.jar) {
            return Err(format!("archive {:?} not present in the registry", spec.jar));
        }
        let reservation = self.node.reserve(spec.memory_mb).map_err(|e| e.to_string())?;
        let (endpoint, held) = self.net.register();
        self.tm(TmEvent::Hosted { job, spec, jm, endpoint, held, reservation });
        Ok(endpoint)
    }

    /// Hand `event` to the tasks and carry their actions out; then show
    /// their counts.
    fn tm(&mut self, event: TmEvent) {
        let was = self.tasks.signal();
        for action in self.tasks.on(event, Instant::now()) {
            match action {
                TmAction::Launch(launch) => self.launch(launch),
                TmAction::Stop { endpoint } => self.send(endpoint, NetMsg::Shutdown),
                TmAction::Release { endpoint } => self.net.unregister(endpoint),
            }
        }
        // Every server of a simulated neighborhood shares the recorder, so
        // each adds its change.
        let is = self.tasks.signal();
        self.g_queue_depth.add(i64::from(is.queue_depth) - i64::from(was.queue_depth));
        self.g_inflight.add(i64::from(is.in_flight) - i64::from(was.in_flight));
    }

    /// Run a task on a thread of the pool.
    fn launch(&mut self, launch: tm::Launch<Hosted, Reservation>) {
        let tm::Launch { job, spec, jm, endpoint, directory, held: rx, reservation } = launch;
        let task = spec.name.clone();
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
                    let mut ctx = TaskContext {
                        job,
                        name: spec.name.clone(),
                        params: spec.params.clone(),
                        ep: Endpoint::for_task(job, &net, endpoint, jm, rx, directory),
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
            self.send(self.addr, NetMsg::TaskExited { job, task: task.clone() });
            let error = format!("[{}] could not start a thread for the task: {e}", self.name);
            self.send(jm, NetMsg::TaskFailed { job, task, error });
        }
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
                Some((j, _)) if j.holds(&spec.name) || !names.insert((job, spec.name.clone())) => {
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
                let own = self.answer(memory_mb);
                self.c_task_solicits.inc();
                let ask = NetMsg::SolicitTaskManager { job, task, memory_mb, reply_to: self.addr };
                round.asked(Window::open(&self.net, self.addr, ask, self.config.bid_window), own);
                return Some(Event::Tick);
            }
            Action::Assign { tm, job, spec } if tm == self.addr => {
                self.uploaded.insert(spec.jar.clone());
                let task = spec.name.clone();
                let ack = self.host(job, spec, tm);
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
                    let (task, depends) = (task.clone(), spec.depends);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::TaskArchive;
    use crate::message::{JobRequirements, UserData};
    use crate::scheduler::LoadSignal;
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

    /// Each asker waits on one ask at a time, so a second ask from an
    /// endpoint replaces its first: the parked asks are bounded by the job's
    /// endpoints. The job's end takes its space, parked asks and all.
    #[test]
    fn parked_asks_are_one_per_endpoint_and_go_with_the_job() {
        let nb = deploy(0, Duration::from_millis(5));
        let node = NodeHandle::new(NodeSpec::new("w0", 4000, 4));
        let registry = Arc::clone(nb.registry());
        let mut state =
            ServerState::new("w0".into(), node, nb.fabric(), registry, ServerConfig::default());
        let client = Party::join(&nb, false);
        let (job, me, jm) = (JobId(908), client.addr, state.addr);
        let env = |msg| Envelope { from: me, to: jm, msg };
        state.handle(env(NetMsg::CreateJob { job, client: me, reply_to: me }));
        for pattern in [vec![None], vec![None, None]] {
            state.handle(env(NetMsg::TupleAsk { job, pattern, take: true, reply_to: me }));
        }
        assert_eq!(state.jobs[&job].1.parked(), 1);

        state.handle(env(NetMsg::CancelJob { job }));
        client.expect(|m| matches!(m, NetMsg::JobFailed { .. }).then_some(()));
        assert!(state.jobs.is_empty(), "the JobManager still holds the job's space");
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
