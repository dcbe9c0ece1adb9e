//! The CNServer servant: one process per node hosting both a JobManager and
//! a TaskManager.
//!
//! "JobManager and the TaskManager are part of the same process, CNServer,
//! which is a servant (since it acts as a client and a server). The
//! JobManager can support multiple Jobs." (paper Section 3)
//!
//! Each server runs an event loop on its own thread, joined to the CN
//! discovery multicast group. The JobManager half answers solicitations,
//! manages job DAGs and relays task lifecycle messages to the client; the
//! TaskManager half bids for tasks, receives archive uploads, sets up
//! per-task message queues and runs each task in its own thread
//! (`RUN_AS_THREAD_IN_TM`).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_cluster::{Addr, Envelope, NodeHandle};
use cn_observe::{Counter, Gauge, Recorder, Severity};
use cn_sync::channel::Receiver;
use cn_sync::thread::JoinHandle;
use cn_wire::FabricHandle;

use crate::archive::ArchiveRegistry;
use crate::message::{Bid, JobId, NetMsg, TaskSpec, UserData, CLIENT_TASK_NAME};
use crate::pump::MsgPump;
use crate::scheduler::{
    select, select_load_aware, Ewma, FairQueue, LoadSignal, Policy, RoundRobin, StealConfig,
};
use crate::spaces::SpaceRegistry;
use crate::task::{TaskContext, TaskError};
use crate::tuplespace::Tuple;

/// Tunables for a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Upper bound on one TaskManager bid window: it closes as soon as
    /// every peer the solicitation addressed has bid
    /// ([`crate::pump::solicit`]).
    pub bid_window: Duration,
    /// How long the JobManager waits for an AssignAck from a remote TM.
    pub assign_timeout: Duration,
    /// Bid selection policy for task placement.
    pub policy: Policy,
    /// Maximum task threads running concurrently on this TaskManager.
    /// `None` keeps the historical behavior (every started task launches
    /// immediately); with a cap, started tasks beyond it wait in the run
    /// queue — the queue that feeds [`LoadSignal`] and the steal protocol.
    pub exec_slots: Option<usize>,
    /// Work-stealing shape; `None` disables stealing entirely (no
    /// `LoadReport` heartbeats, no raids), which also keeps the sim
    /// journal free of steal events.
    pub steal: Option<StealConfig>,
    /// Deficit-round-robin quantum (in task `memory_mb` cost units) for
    /// per-client fair admission of `CreateTask` bursts.
    pub fair_quantum_mb: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bid_window: Duration::from_millis(5),
            assign_timeout: Duration::from_secs(2),
            policy: Policy::LeastLoaded,
            exec_slots: None,
            steal: None,
            fair_quantum_mb: 1024,
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
        let (addr, rx) = net.register();
        net.join_group(addr, cn_cluster::DISCOVERY_GROUP);
        let rec = net.recorder().clone();
        let fair_quantum = config.fair_quantum_mb;
        let state = ServerState {
            name: name.clone(),
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
            fairq: FairQueue::new(fair_quantum),
            draining: false,
            run_queue: VecDeque::new(),
            running: 0,
            dispatch_ewma: Ewma::default(),
            peer_loads: HashMap::new(),
            steal_pending: None,
            steal_endpoint: None,
            last_reported: None,
            last_report_at: None,
            c_jm_bids: rec.counter("server.jm_bids_sent"),
            c_tm_bids: rec.counter("server.tm_bids_sent"),
            c_task_solicits: rec.counter("server.task_solicitations"),
            c_tasks_started: rec.counter("server.tasks_started"),
            c_tasks_completed: rec.counter("server.tasks_completed"),
            c_tasks_failed: rec.counter("server.tasks_failed"),
            c_steals: rec.counter("server.steals"),
            c_steal_requests: rec.counter("server.steal_requests"),
            c_steal_returns: rec.counter("server.steal_returns"),
            g_queue_depth: rec.gauge("server.run_queue_depth"),
            g_inflight: rec.gauge("server.tasks_inflight"),
            rec,
            net: net.clone(),
        };
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
    failed: bool,
}

/// TaskManager-side record of an assigned task.
struct TmTask {
    spec: TaskSpec,
    /// The JobManager this task reports lifecycle events to.
    jm: Addr,
    endpoint: Addr,
    rx: Option<Receiver<Envelope<NetMsg>>>,
    reservation: Option<cn_cluster::node::Reservation>,
    /// `StartTask` received (dedup guard).
    started: bool,
    /// Task thread spawned. `started && !launched` means the task sits in
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
    /// Thief side: the task's old endpoint at the victim, told to shut its
    /// forwarder down when the stolen task exits.
    stolen_from: Option<Addr>,
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
    /// Per-client deficit-round-robin admission queue for `CreateTask`.
    fairq: FairQueue<(JobId, TaskSpec, Addr)>,
    /// Whether the fair-admission drain loop is already on the stack
    /// (placement recurses into `handle` via nested waits).
    draining: bool,
    /// Started-but-not-launched tasks waiting for an execution slot.
    run_queue: VecDeque<(JobId, String)>,
    /// Task threads currently executing (launched, not yet exited).
    running: usize,
    /// Enqueue→launch latency smoother; third component of [`LoadSignal`].
    dispatch_ewma: Ewma,
    /// Last load signal heard from each peer server (steal mode only).
    peer_loads: HashMap<Addr, (String, LoadSignal)>,
    /// Outstanding steal request: victim addr + when it was sent. Cleared
    /// by any `LoadReport` from the victim (the decline path) or by the
    /// grant; the timestamp is a staleness escape hatch.
    steal_pending: Option<(Addr, Instant)>,
    /// Pre-registered endpoint reused across steal requests.
    steal_endpoint: Option<(Addr, Receiver<Envelope<NetMsg>>)>,
    /// Throttle state for `LoadReport` multicasts.
    last_reported: Option<LoadSignal>,
    last_report_at: Option<Instant>,
    rec: Recorder,
    c_jm_bids: Counter,
    c_tm_bids: Counter,
    c_task_solicits: Counter,
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
    fn run(mut self) {
        // `None` from the pump means the network is gone.
        while let Some(env) = self.pump.next() {
            if matches!(env.msg, NetMsg::Shutdown) {
                break;
            }
            self.handle(env);
        }
        self.net.unregister(self.addr);
    }

    fn send(&self, to: Addr, msg: NetMsg) {
        let _ = self.net.send(self.addr, to, msg);
    }

    /// Answer a solicitation. The solicitor may have closed its window and
    /// left by now, and a `send` to a departed process waits out a whole
    /// connect-retry cycle on this — the server's only — thread; a bid is
    /// posted, never awaited.
    fn post_bid(&self, to: Addr, bid: NetMsg) {
        self.net.post(self.addr, to, bid);
    }

    /// Nested receive: wait for an envelope matching `want`, stashing
    /// everything else for the main loop.
    fn wait_for(
        &mut self,
        deadline: Instant,
        want: impl FnMut(&NetMsg) -> bool,
    ) -> Option<Envelope<NetMsg>> {
        self.pump.wait_for(deadline, want)
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
                    self.post_bid(reply_to, NetMsg::JobManagerBid { job, bid: self.own_bid() });
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
                            failed: false,
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
            NetMsg::CreateTask { job, spec, reply_to } => {
                // Admission is deficit-round-robin over per-client queues:
                // a client flooding heavyweight tasks cannot starve one
                // submitting light ones. A lone client degenerates to FIFO,
                // so single-client placement order (and the journal) is
                // unchanged.
                let cost = spec.memory_mb;
                self.fairq.push(reply_to.0, cost, (job, spec, reply_to));
                self.drain_fair_queue();
            }
            NetMsg::StartJob { job } => self.jm_start_ready(job),
            NetMsg::CancelJob { job } => self.jm_cancel_job(job),

            // ---- TaskManager: placement -------------------------------
            NetMsg::SolicitTaskManager { job, task, memory_mb, reply_to }
                if self.node.can_host(memory_mb) =>
            {
                self.c_tm_bids.inc();
                self.post_bid(reply_to, NetMsg::TaskManagerBid { job, task, bid: self.own_bid() });
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
            NetMsg::StealRequest { thief, reply_to, endpoint } => {
                self.tm_steal_request(thief, reply_to, endpoint)
            }
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

    /// Place one task: solicit TaskManagers (including our own, evaluated
    /// locally — JM and TM share this process), select per policy, upload
    /// the archive, assign.
    fn place_task(&mut self, job: JobId, spec: TaskSpec) -> Result<(Addr, Addr, String), String> {
        match self.jm_jobs.get(&job) {
            None => return Err(format!("no such job {job}")),
            Some(j) if j.assigned.contains_key(&spec.name) => {
                return Err(format!("task name {:?} already exists in {job}", spec.name))
            }
            Some(_) => {}
        }
        // Multicast solicitation (the paper's "JobManager solicits
        // TaskManager for the Tasks"); everything else the window hears is
        // stashed for the main loop.
        self.c_task_solicits.inc();
        let solicitation = NetMsg::SolicitTaskManager {
            job,
            task: spec.name.clone(),
            memory_mb: spec.memory_mb,
            reply_to: self.addr,
        };
        // Our own TM is evaluated locally (multicast excludes the sender).
        let mut bids: Vec<Bid> = Vec::new();
        if self.node.can_host(spec.memory_mb) {
            bids.push(self.own_bid());
        }
        bids.extend(self.pump.solicit(
            &self.net,
            self.addr,
            solicitation,
            self.config.bid_window,
            |m| match m {
                NetMsg::TaskManagerBid { job: bjob, task, bid }
                    if *bjob == job && *task == spec.name =>
                {
                    Some(bid.clone())
                }
                _ => None,
            },
        ));
        // Try bidders in policy order: a TaskManager may still reject (its
        // state can change between bid and assignment) or time out, in
        // which case the JobManager falls back to the next-best bidder.
        self.rec.event_with(Severity::Debug, "job", Some(job.0), || {
            format!("[{}] task {:?} drew {} TaskManager bid(s)", self.name, spec.name, bids.len())
        });
        let mut failures: Vec<String> = Vec::new();
        let mut remaining = bids;
        while !remaining.is_empty() {
            let chosen = match self.config.policy {
                Policy::RoundRobin => self.rr.select(&remaining).cloned(),
                // Load-aware shares the round-robin rotation state so a
                // uniformly loaded neighborhood places identically to
                // `RoundRobin` (the journal-differential property).
                Policy::LoadAware => select_load_aware(&mut self.rr, &remaining).cloned(),
                p => select(p, &remaining, 0).cloned(),
            }
            .expect("remaining is non-empty");
            remaining.retain(|b| b.addr != chosen.addr);
            match self.try_assign(job, &spec, &chosen) {
                Ok(task_addr) => return Ok((chosen.addr, task_addr, chosen.server)),
                Err(reason) => failures.push(format!("{}: {reason}", chosen.server)),
            }
        }
        if failures.is_empty() {
            Err(format!("no willing TaskManager for task {:?}", spec.name))
        } else {
            Err(format!(
                "every willing TaskManager failed for task {:?}: {}",
                spec.name,
                failures.join("; ")
            ))
        }
    }

    /// Attempt one assignment on a specific bidder.
    fn try_assign(&mut self, job: JobId, spec: &TaskSpec, chosen: &Bid) -> Result<Addr, String> {
        if chosen.addr == self.addr {
            // Local fast path: same process.
            self.tm_upload(&spec.jar);
            return self.tm_assign(job, spec.clone(), self.addr);
        }
        let size = self.registry.get(&spec.jar).map(|a| a.size_bytes).unwrap_or(0);
        self.send(chosen.addr, NetMsg::UploadArchive { jar: spec.jar.clone(), size_bytes: size });
        self.send(
            chosen.addr,
            NetMsg::AssignTask { job, spec: spec.clone(), jm: self.addr, reply_to: self.addr },
        );
        let deadline = Instant::now() + self.config.assign_timeout;
        let task_name = spec.name.clone();
        let tm_addr = chosen.addr;
        // Match on the sender too: a late ack from a previously timed-out
        // bidder must not be attributed to this attempt.
        let ack = self.wait_for(deadline, |m| {
            matches!(m, NetMsg::AssignAck { job: j, task, .. } if *j == job && *task == task_name)
        });
        let Some(ack) = ack else {
            // The TM may have accepted after we gave up; tell it to release
            // the assignment (best effort — idempotent on the TM side).
            self.rec.event_with(Severity::Warn, "job", Some(job.0), || {
                format!(
                    "[{}] AssignAck timeout from {} for {:?}",
                    self.name, chosen.server, spec.name
                )
            });
            self.send(tm_addr, NetMsg::CancelTask { job, task: task_name });
            return Err("AssignAck timeout".to_string());
        };
        if ack.from != tm_addr {
            // Stale ack from an earlier bidder: release whatever it set up
            // and report this attempt as failed.
            self.rec.event_with(Severity::Warn, "job", Some(job.0), || {
                format!("[{}] stale AssignAck from {} for {:?}", self.name, ack.from, spec.name)
            });
            self.send(ack.from, NetMsg::CancelTask { job, task: task_name });
            return Err(format!("stale AssignAck from {}", ack.from));
        }
        match ack.msg {
            NetMsg::AssignAck { accepted: true, task_addr: Some(addr), .. } => Ok(addr),
            NetMsg::AssignAck { reason, .. } => Err(format!("rejected: {reason}")),
            _ => unreachable!("wait_for filtered on AssignAck"),
        }
    }

    /// Start every not-yet-started task whose dependencies are complete.
    fn jm_start_ready(&mut self, job: JobId) {
        let Some(j) = self.jm_jobs.get_mut(&job) else { return };
        j.job_started = true;
        if j.failed {
            return;
        }
        if j.specs.is_empty() {
            // A job with no tasks is vacuously complete.
            let client = j.client;
            self.jm_jobs.remove(&job);
            self.send(client, NetMsg::JobCompleted { job, results: Vec::new() });
            return;
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
        let all_done = j.completed.len() == j.specs.len();
        let results: Vec<(String, UserData)> = if all_done {
            j.specs
                .iter()
                .map(|s| {
                    (s.name.clone(), j.completed.get(&s.name).cloned().unwrap_or(UserData::Empty))
                })
                .collect()
        } else {
            Vec::new()
        };
        let job_started = j.job_started;
        self.send(client, NetMsg::TaskCompleted { job, task, result });
        if all_done {
            // The job is finished; drop its JobManager state (and, in wire
            // mode, its local tuple-space replica — client job ids restart
            // per process, so a stale space could leak into a later job).
            self.jm_jobs.remove(&job);
            if !self.net.shared_memory() {
                self.spaces.remove(job);
            }
            self.send(client, NetMsg::JobCompleted { job, results });
        } else if job_started {
            self.jm_start_ready(job);
        }
    }

    /// Client-requested cancellation: interrupt everything in flight and
    /// report the job as failed.
    fn jm_cancel_job(&mut self, job: JobId) {
        let Some(j) = self.jm_jobs.get_mut(&job) else { return };
        if j.failed {
            return;
        }
        j.failed = true;
        let client = j.client;
        self.rec.event_with(Severity::Warn, "job", Some(job.0), || {
            format!("[{}] job cancelled by client", self.name)
        });
        // Everything assigned and not yet complete is cancelled — including
        // tasks that never started (their reservations must be released).
        let to_cancel: Vec<(String, Addr)> = j
            .assigned
            .iter()
            .filter(|(t, _)| !j.completed.contains_key(*t))
            .map(|(t, (tm, _, _))| (t.clone(), *tm))
            .collect();
        for (t, tm_addr) in to_cancel {
            if tm_addr == self.addr {
                self.tm_cancel(job, &t);
            } else {
                self.send(tm_addr, NetMsg::CancelTask { job, task: t });
            }
        }
        self.jm_jobs.remove(&job);
        if !self.net.shared_memory() {
            self.spaces.remove(job);
        }
        self.send(client, NetMsg::JobFailed { job, error: "cancelled by client".to_string() });
    }

    fn jm_task_failed(&mut self, job: JobId, task: String, error: String) {
        let Some(j) = self.jm_jobs.get_mut(&job) else { return };
        let first_failure = !j.failed;
        j.failed = true;
        let client = j.client;
        self.rec.event_with(Severity::Error, "job", Some(job.0), || {
            format!("[{}] task {task:?} failed: {error}; cancelling the job", self.name)
        });
        // Cancel everything assigned and not complete — running tasks are
        // interrupted, never-started ones release their reservations.
        let to_cancel: Vec<(String, Addr)> = j
            .assigned
            .iter()
            .filter(|(t, _)| !j.completed.contains_key(*t) && **t != task)
            .map(|(t, (tm, _, _))| (t.clone(), *tm))
            .collect();
        for (t, tm_addr) in to_cancel {
            if tm_addr == self.addr {
                self.tm_cancel(job, &t);
            } else {
                self.send(tm_addr, NetMsg::CancelTask { job, task: t });
            }
        }
        self.send(client, NetMsg::TaskFailed { job, task: task.clone(), error: error.clone() });
        if first_failure {
            self.jm_jobs.remove(&job);
            if !self.net.shared_memory() {
                self.spaces.remove(job);
            }
            self.send(
                client,
                NetMsg::JobFailed { job, error: format!("task {task:?} failed: {error}") },
            );
        }
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

    /// Run an assigned task on its own thread.
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
        let space = self.spaces.get_or_create(job);
        let server_name = self.name.clone();
        let rec = self.rec.clone();
        let c_started = self.c_tasks_started.clone();
        let c_completed = self.c_tasks_completed.clone();
        let c_failed = self.c_tasks_failed.clone();
        // Detached: a task holds its own clones of the network/registry,
        // reports its end with `TaskExited`, and must not keep shutdown
        // waiting on input that will never arrive.
        cn_sync::thread::Builder::new()
            .name(format!("task-{}-{}", job.0, spec.name))
            .spawn(move || {
                let mut instance = match registry.instantiate(&spec.jar, &spec.class) {
                    Ok(i) => i,
                    Err(e) => {
                        // Release capacity before reporting: a client that
                        // observes the failure may immediately inspect nodes.
                        drop(reservation);
                        c_failed.inc();
                        rec.event_with(Severity::Error, "task", Some(job.0), || {
                            format!("[{server_name}] could not instantiate {:?}: {e}", spec.name)
                        });
                        let _ = net.send(
                            endpoint,
                            jm,
                            NetMsg::TaskFailed {
                                job,
                                task: spec.name.clone(),
                                error: format!("[{server_name}] {e}"),
                            },
                        );
                        let _ = net.send(
                            endpoint,
                            local_tm,
                            NetMsg::TaskExited { job, task: spec.name.clone() },
                        );
                        net.unregister(endpoint);
                        return;
                    }
                };
                let _ =
                    net.send(endpoint, jm, NetMsg::TaskStarted { job, task: spec.name.clone() });
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
                    rx,
                    directory,
                    space,
                    stash: Vec::new(),
                    work_scale,
                };
                // A panic in user code is one more way for the task to fail:
                // unwinding past here would skip every report below, leaving
                // the job waiting and the slot, reservation and endpoint held.
                let run = std::panic::AssertUnwindSafe(|| instance.run(&mut ctx));
                let outcome = std::panic::catch_unwind(run).unwrap_or_else(|payload| {
                    let text = payload
                        .downcast_ref::<&str>()
                        .copied()
                        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                        .unwrap_or("non-string payload");
                    Err(TaskError::new(format!("panicked: {text}")))
                });
                // The task span must close before TaskCompleted/TaskFailed is
                // sent: the JobManager forwards completion to the client, which
                // may immediately close the enclosing job span.
                rec.span_end(span);
                // Release the node reservation before TaskCompleted goes out:
                // the client unblocks on JobCompleted and may assert that all
                // slots/memory are free, so the release must happen first.
                drop(reservation);
                let msg = match outcome {
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
                };
                let _ = net.send(endpoint, jm, msg);
                let _ = net.send(
                    endpoint,
                    local_tm,
                    NetMsg::TaskExited { job, task: spec.name.clone() },
                );
                net.unregister(endpoint);
            })
            .expect("spawn task thread");
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
            // Thief side of a migration: the victim keeps a forwarder
            // thread alive on the task's old endpoint; shut it down now
            // that nothing will ever answer there.
            if let Some(old_endpoint) = t.stolen_from {
                self.send(old_endpoint, NetMsg::Shutdown);
            }
        }
        // Wire mode: this process owns a private replica of the job's
        // tuple space; drop it once the last local task of the job is
        // gone. (On a shared-memory fabric the client's JobHandle owns
        // that cleanup — removing here would hand later tasks of the same
        // job a fresh empty space.)
        if !self.net.shared_memory() && !self.tm_tasks.keys().any(|(j, _)| *j == job) {
            self.spaces.remove(job);
        }
        self.launch_next_queued();
        self.load_changed();
        self.maybe_steal();
    }

    // ---- Fair admission -------------------------------------------------

    /// Serve queued `CreateTask`s in deficit-round-robin order. Before
    /// each pick, envelopes that already arrived (coalesced bursts from
    /// other clients, or stashed during the previous placement's bid
    /// window) are absorbed into the fair queue so every contender is
    /// visible to DRR — not just the first arrival.
    fn drain_fair_queue(&mut self) {
        if self.draining {
            // Placement nests into the pump, which can re-enter handle();
            // the outer drain loop will pick up whatever gets queued.
            return;
        }
        self.draining = true;
        loop {
            for env in self.pump.take_matching(|m| matches!(m, NetMsg::CreateTask { .. })) {
                if let NetMsg::CreateTask { job, spec, reply_to } = env.msg {
                    let cost = spec.memory_mb;
                    self.fairq.push(reply_to.0, cost, (job, spec, reply_to));
                }
            }
            let Some((job, spec, reply_to)) = self.fairq.pop() else { break };
            self.jm_create_task(job, spec, reply_to);
        }
        self.draining = false;
    }

    /// Place one admitted task and ack the client.
    fn jm_create_task(&mut self, job: JobId, spec: TaskSpec, reply_to: Addr) {
        match self.place_task(job, spec.clone()) {
            Ok((tm_addr, task_addr, server)) => {
                if let Some(j) = self.jm_jobs.get_mut(&job) {
                    j.specs.push(spec.clone());
                    j.assigned.insert(spec.name.clone(), (tm_addr, task_addr, server.clone()));
                }
                self.send(
                    reply_to,
                    NetMsg::TaskAck {
                        job,
                        task: spec.name,
                        accepted: true,
                        reason: String::new(),
                        server,
                        task_addr: Some(task_addr),
                    },
                );
            }
            Err(reason) => {
                self.send(
                    reply_to,
                    NetMsg::TaskAck {
                        job,
                        task: spec.name,
                        accepted: false,
                        reason,
                        server: String::new(),
                        task_addr: None,
                    },
                );
            }
        }
    }

    // ---- Work stealing --------------------------------------------------

    /// Multicast a `LoadReport` when the load signal changed, throttled to
    /// the configured heartbeat — except that the edge *into* stealable
    /// territory is always reported immediately so idle peers learn about
    /// new prey promptly. No-op unless stealing is enabled, which keeps
    /// non-stealing runs free of extra traffic.
    fn load_changed(&mut self) {
        let Some(steal) = self.config.steal else { return };
        let sig = self.load_signal();
        if self.last_reported == Some(sig) {
            return;
        }
        let now = Instant::now();
        let due = self.last_report_at.is_none_or(|at| now.duration_since(at) >= steal.heartbeat);
        let threshold = steal.threshold.max(1);
        let crossing = sig.queue_depth >= threshold
            && self.last_reported.is_none_or(|s| s.queue_depth < threshold);
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
        let Some(steal) = self.config.steal else { return };
        if !self.run_queue.is_empty() {
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
        let threshold = steal.threshold.max(1);
        let victim = self
            .peer_loads
            .iter()
            .filter(|(addr, (_, sig))| **addr != self.addr && sig.queue_depth >= threshold)
            .max_by_key(|(addr, (_, sig))| (sig.queue_depth, std::cmp::Reverse(addr.0)))
            .map(|(addr, _)| *addr);
        let Some(victim) = victim else { return };
        let endpoint = match &self.steal_endpoint {
            Some((addr, _)) => *addr,
            None => {
                let (addr, rx) = self.net.register();
                self.steal_endpoint = Some((addr, rx));
                addr
            }
        };
        self.c_steal_requests.inc();
        self.steal_pending = Some((victim, Instant::now()));
        self.send(
            victim,
            NetMsg::StealRequest { thief: self.name.clone(), reply_to: self.addr, endpoint },
        );
    }

    /// Victim side: grant the newest queued never-launched task to the
    /// thief, or decline with a fresh `LoadReport`. Granting releases our
    /// reservation and marks the entry migrated; the entry stays until the
    /// thief commits (`TaskMigrated`) or bounces (`StealReturn`) — exactly
    /// one of which arrives, making the handoff at-most-once.
    fn tm_steal_request(&mut self, thief: String, reply_to: Addr, _thief_endpoint: Addr) {
        let threshold = self.config.steal.map_or(u32::MAX, |s| s.threshold.max(1));
        let grantable = (self.run_queue.len() as u32) >= threshold;
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
    /// JobManager (placement table) and the victim (forwarding); any
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
        // Reuse the pre-registered steal endpoint as the task's new home;
        // the next raid will register a fresh one.
        let (endpoint, rx) = match self.steal_endpoint.take() {
            Some(pair) => pair,
            None => self.net.register(),
        };
        self.uploaded.insert(spec.jar.clone());
        // The task's own directory entry must point at its new home so
        // self-addressed sends do not loop through the forwarder.
        directory.insert(task.clone(), endpoint);
        self.tm_tasks.insert(
            (job, task.clone()),
            TmTask {
                spec,
                jm,
                endpoint,
                rx: Some(rx),
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
    /// directory builds go to the thief. As the victim we hand the task's
    /// old endpoint to a forwarder thread so in-flight peer messages —
    /// sent against the stale directory — still reach the task at its new
    /// home (the Figure-3 journals stay canonical because every message
    /// arrives exactly once, just via one extra hop).
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
        if self.tm_tasks.get(&key).is_some_and(|t| t.migrated) {
            let mut t = self.tm_tasks.remove(&key).expect("checked above");
            if let Some(rx) = t.rx.take() {
                self.spawn_forwarder(t.endpoint, rx, task_addr);
            } else {
                self.net.unregister(t.endpoint);
            }
        }
    }

    /// Drain a migrated-out task's old endpoint into its new home until
    /// the thief signals the task exited (`Shutdown`) or the fabric goes
    /// away.
    fn spawn_forwarder(&mut self, old: Addr, rx: Receiver<Envelope<NetMsg>>, target: Addr) {
        let net = self.net.clone();
        cn_sync::thread::Builder::new()
            .name(format!("steal-fwd-{}", old.0))
            .spawn(move || {
                loop {
                    match rx.recv_timeout(Duration::from_millis(200)) {
                        Ok(env) => {
                            if matches!(env.msg, NetMsg::Shutdown) {
                                break;
                            }
                            let _ = net.send(old, target, env.msg);
                        }
                        Err(cn_sync::channel::RecvTimeoutError::Timeout) => continue,
                        Err(_) => break,
                    }
                }
                net.unregister(old);
            })
            .expect("spawn forwarder thread");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::JobRequirements;
    use cn_cluster::NodeSpec;
    use cn_wire::{Fabric, SocketFabric, WireConfig};

    /// A bid to a solicitor that is gone must not hold the server: on a
    /// socket fabric a `send` there waits out the whole connect-retry cycle.
    #[test]
    fn bid_to_a_departed_solicitor_does_not_hold_the_server() {
        // A connect cycle long enough to tell waiting from not waiting.
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
            FabricHandle::new(fabric),
            Arc::new(ArchiveRegistry::new()),
            Arc::new(SpaceRegistry::new()),
            ServerConfig::default(),
        );

        let solicit = |reply_to| NetMsg::SolicitJobManager {
            job: JobId(1),
            requirements: JobRequirements::default(),
            reply_to,
        };
        let client: SocketFabric<NetMsg> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        let (me, rx) = client.register();
        let bid_within = |limit| {
            client.send(me, server.addr, solicit(me)).unwrap();
            let t0 = Instant::now();
            let env = rx.recv_timeout(limit).expect("a bid");
            assert!(matches!(env.msg, NetMsg::JobManagerBid { .. }), "{:?}", env.msg);
            t0.elapsed()
        };
        // Both directions connected before anything is timed.
        bid_within(Duration::from_secs(5));

        // The server's bid goes to an endpoint of a fabric that has already
        // shut down; the solicitation behind it is answered at once. Three
        // rounds, the quickest counts: the bound is a scheduling quantum, not
        // the 120 ms of backoff a waiting server would sit through.
        let quickest = (0..3)
            .map(|_| {
                let departed = {
                    let gone: SocketFabric<NetMsg> =
                        SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
                    gone.register().0
                };
                client.send(me, server.addr, solicit(departed)).unwrap();
                bid_within(Duration::from_secs(5))
            })
            .min()
            .unwrap();
        assert!(quickest < Duration::from_millis(20), "{quickest:?}");

        // The reactor's connect cycle gives up behind the server's back and
        // counts what it could not deliver.
        let deadline = Instant::now() + Duration::from_secs(10);
        while rec.counter("wire.drops").get() < 3 {
            assert!(Instant::now() < deadline, "drops: {}", rec.counter("wire.drops").get());
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }
}
