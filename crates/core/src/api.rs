//! The CN API — the client-side factory surface of the paper (Section 3):
//!
//! * Initialize CN API (using the factory) → [`CnApi::initialize`]
//! * Create Job in JobManager → [`CnApi::create_job`]
//! * Create Tasks for the Job → [`JobHandle::add_tasks`] (one at a time:
//!   [`JobHandle::add_task`])
//! * Start the Tasks → [`JobHandle::start`]
//! * Get Messages from Tasks → [`JobHandle::recv_message`]
//! * Send Messages to Tasks → [`JobHandle::send_to_task`]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_cluster::{Addr, Envelope};
use cn_observe::{Counter, Histogram, Recorder, Severity, SpanId, LATENCY_BUCKETS_US};
use cn_wire::FabricHandle;

use crate::message::{
    Bid, CnMessage, JobId, JobRequirements, NetMsg, TaskSpec, UserData, CLIENT_TASK_NAME,
};
use crate::pump::MsgPump;
use crate::scheduler::{select, Policy};
use crate::spaces::SpaceRegistry;
use crate::tuplespace::{Tuple, TupleSpace};
use crate::Neighborhood;

/// Client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// No JobManager bid within the window.
    NoJobManagers,
    /// The selected JobManager rejected the job.
    JobRejected(String),
    /// A task could not be placed.
    PlacementFailed { task: String, reason: String },
    /// A task (and therefore the job) failed.
    JobFailed(String),
    /// A protocol wait timed out.
    Timeout(&'static str),
    /// Transport-level failure.
    Net(String),
    /// API misuse (e.g. starting twice).
    Usage(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::NoJobManagers => write!(f, "no willing JobManager responded"),
            ClientError::JobRejected(r) => write!(f, "JobManager rejected the job: {r}"),
            ClientError::PlacementFailed { task, reason } => {
                write!(f, "could not place task {task:?}: {reason}")
            }
            ClientError::JobFailed(e) => write!(f, "job failed: {e}"),
            ClientError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            ClientError::Net(e) => write!(f, "network error: {e}"),
            ClientError::Usage(e) => write!(f, "API misuse: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Upper bound on one JobManager bid window: it closes as soon as every
    /// server the solicitation addressed has bid ([`MsgPump::solicit`]).
    pub bid_window: Duration,
    /// JobManager selection policy.
    pub policy: Policy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { bid_window: Duration::from_millis(5), policy: Policy::LeastLoaded }
    }
}

/// How long the client waits for each ack (job create, task create).
const ACK_TIMEOUT: Duration = Duration::from_secs(5);

/// How many times `create_job` re-multicasts the solicitation when a bid
/// window closes with no bids (willing managers can miss a window under
/// load; discovery is cheap to retry).
const DISCOVERY_RETRIES: u32 = 3;

/// Process-wide job id source: JobManagers key state by [`JobId`], and
/// several clients may talk to the same neighborhood.
static NEXT_JOB_ID: AtomicU64 = AtomicU64::new(1);

/// The CN API factory instance.
pub struct CnApi {
    net: FabricHandle<NetMsg>,
    spaces: Arc<SpaceRegistry>,
    config: ClientConfig,
    rec: Recorder,
    /// CN API call counters + the per-task dispatch latency histogram
    /// (CreateTask send → TaskAck), resolved once per factory.
    c_jobs: Counter,
    c_tasks: Counter,
    c_solicits: Counter,
    c_bids: Counter,
    dispatch: Histogram,
}

impl CnApi {
    /// Acquire a reference to the CN API for a deployed neighborhood ("The
    /// user is responsible, usually toward the beginning of the parallel
    /// program, to acquire a reference to the CN API").
    pub fn initialize(neighborhood: &Neighborhood) -> CnApi {
        CnApi::with_config(neighborhood, ClientConfig::default())
    }

    pub fn with_config(neighborhood: &Neighborhood, config: ClientConfig) -> CnApi {
        CnApi::over(
            neighborhood.fabric(),
            neighborhood.spaces(),
            config,
            neighborhood.recorder().clone(),
        )
    }

    /// Build a CN API directly over any transport fabric. This is the
    /// entry point for multi-process deployments: `cnctl submit` hands it
    /// a [`cn_wire::SocketFabric`] and a fresh client-local space
    /// registry, and the same protocol runs over real sockets. The API and
    /// its jobs record into `rec`, which need not be the fabric's: the
    /// portal keeps one fabric for the life of the process and gives each
    /// job a recorder of its own.
    pub fn over(
        net: FabricHandle<NetMsg>,
        spaces: Arc<SpaceRegistry>,
        config: ClientConfig,
        rec: Recorder,
    ) -> CnApi {
        CnApi {
            net,
            spaces,
            config,
            c_jobs: rec.counter("api.jobs_created"),
            c_tasks: rec.counter("api.tasks_created"),
            c_solicits: rec.counter("api.jm_solicitations"),
            c_bids: rec.counter("api.jm_bids_received"),
            dispatch: rec.histogram("api.dispatch_latency_us", LATENCY_BUCKETS_US),
            rec,
        }
    }

    /// The recorder this API (and its job handles) records into.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Create a job: multicast a solicitation, collect bids from willing
    /// JobManagers, select one per policy, and register the job with it.
    pub fn create_job(&self, requirements: &JobRequirements) -> Result<JobHandle, ClientError> {
        let job = JobId(NEXT_JOB_ID.fetch_add(1, Ordering::Relaxed));
        // The job span is the parent of every task span in this job. Its
        // name is the constant "job": per-run identity lives in the job
        // field, which exporters remap to a stable rank.
        let span = self.rec.span_start_job("job", "job", None, Some(job.0), None);
        let (addr, rx) = self.net.register();
        let mut pump = MsgPump::new(rx);
        let mut bids: Vec<Bid> = Vec::new();
        for _attempt in 0..=DISCOVERY_RETRIES {
            self.c_solicits.inc();
            bids = pump.solicit(
                &self.net,
                addr,
                NetMsg::SolicitJobManager { job, requirements: *requirements, reply_to: addr },
                self.config.bid_window,
                |m| match m {
                    NetMsg::JobManagerBid { job: bjob, bid } if *bjob == job => Some(bid.clone()),
                    _ => None,
                },
            );
            if !bids.is_empty() {
                break;
            }
        }
        self.c_bids.add(bids.len() as u64);
        let chosen = select(self.config.policy, &bids, 0).cloned().ok_or_else(|| {
            self.net.unregister(addr);
            self.rec.event_job(Severity::Warn, "job", job.0, "no willing JobManager responded");
            self.rec.span_end(span);
            ClientError::NoJobManagers
        })?;
        // Which server wins is timing-dependent, so it is flight-recorder
        // material, never span structure (DESIGN.md §8).
        self.rec.event_with(Severity::Info, "job", Some(job.0), || {
            format!("JobManager on {:?} selected from {} bid(s)", chosen.server, bids.len())
        });

        if let Err(e) = self.net.send(
            addr,
            chosen.addr,
            NetMsg::CreateJob { job, client: addr, reply_to: addr },
        ) {
            self.net.unregister(addr);
            self.rec.span_end(span);
            return Err(ClientError::Net(e.to_string()));
        }
        let mut handle = JobHandle {
            job,
            jm: chosen.addr,
            jm_server: chosen.server,
            net: self.net.clone(),
            addr,
            pump,
            directory: HashMap::new(),
            task_names: Vec::new(),
            placements: Vec::new(),
            started: false,
            held: false,
            space: self.spaces.get_or_create(job),
            shadow: HashMap::new(),
            rec: self.rec.clone(),
            span,
            c_tasks: self.c_tasks.clone(),
            c_msgs_to_tasks: self.rec.counter("api.msgs_to_tasks"),
            dispatch: self.dispatch.clone(),
        };
        // On any failure path the handle is dropped here, which unregisters
        // the endpoint and closes the job span (see `impl Drop for
        // JobHandle`).
        match handle
            .wait_net(ACK_TIMEOUT, |m| matches!(m, NetMsg::JobAck { job: j, .. } if *j == job))?
        {
            NetMsg::JobAck { accepted: true, .. } => {
                self.c_jobs.inc();
                handle.held = true;
                Ok(handle)
            }
            NetMsg::JobAck { reason, .. } => Err(ClientError::JobRejected(reason)),
            _ => unreachable!("filtered on JobAck"),
        }
    }
}

/// A client-held job: the conduit to its JobManager.
pub struct JobHandle {
    pub job: JobId,
    jm: Addr,
    /// Name of the server whose JobManager owns this job.
    pub jm_server: String,
    net: FabricHandle<NetMsg>,
    addr: Addr,
    /// The client's message queue: protocol acks are picked out of it, and
    /// what arrives meanwhile waits there for [`JobHandle::recv_message`].
    pump: MsgPump<NetMsg>,
    /// task name → task endpoint (learned from TaskAcks).
    directory: HashMap<String, Addr>,
    task_names: Vec<String>,
    /// task name → server that hosts it, in creation order (from
    /// TaskAcks). The scheduler differential tests compare these across
    /// placement policies.
    placements: Vec<(String, String)>,
    started: bool,
    /// The JobManager accepted the job and has not reported its end: a
    /// handle dropped now abandons a job that still holds its placements.
    held: bool,
    /// The job's tuple space; it goes with the last of this handle and the
    /// job's tasks ([`SpaceRegistry`]).
    space: Arc<TupleSpace>,
    /// Wire mode only: client-side shadow spans for remote task
    /// executions, keyed by task name. On a shared-memory fabric the
    /// TaskManagers record task spans into the same recorder and no
    /// shadowing happens; over sockets the server processes have their own
    /// recorders, so the client reconstructs the task layer of the span
    /// forest from TaskStarted/TaskCompleted/TaskFailed lifecycle
    /// messages — keeping the exported forest identical across fabrics.
    shadow: HashMap<String, Option<SpanId>>,
    rec: Recorder,
    /// The job span, closed on completion/failure/cancel (or in Drop).
    span: Option<SpanId>,
    c_tasks: Counter,
    c_msgs_to_tasks: Counter,
    dispatch: Histogram,
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        // An abandoned job would keep every slot and megabyte it was placed
        // on: tell its JobManager, without waiting for it to agree.
        if self.held {
            self.net.post(self.addr, self.jm, NetMsg::CancelJob { job: self.job });
        }
        self.net.unregister(self.addr);
        for (_, span) in self.shadow.drain() {
            self.rec.span_end(span);
        }
        self.rec.span_end(self.span.take());
    }
}

/// Outcome of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Task name → result, in task creation order.
    pub results: Vec<(String, UserData)>,
    /// Lifecycle + user messages observed while waiting.
    pub events: Vec<CnMessage>,
    pub elapsed: Duration,
}

impl JobReport {
    pub fn result(&self, task: &str) -> Option<&UserData> {
        self.results.iter().find(|(n, _)| n == task).map(|(_, d)| d)
    }
}

impl JobHandle {
    /// The job-wide tuple space (also reachable from every task context).
    pub fn tuplespace(&self) -> &Arc<TupleSpace> {
        &self.space
    }

    /// This job's trace span, if the neighborhood's recorder is enabled.
    /// Useful as a parent for client-side spans (e.g. input seeding).
    pub fn span(&self) -> Option<SpanId> {
        self.span
    }

    /// Names of the tasks created so far.
    pub fn task_names(&self) -> &[String] {
        &self.task_names
    }

    /// `(task, server)` placements in creation order, as acked by the
    /// JobManager.
    pub fn placements(&self) -> &[(String, String)] {
        &self.placements
    }

    /// Which server's JobManager manages this job.
    pub fn manager(&self) -> &str {
        &self.jm_server
    }

    fn decode(&mut self, env: Envelope<NetMsg>) -> Option<CnMessage> {
        let msg = match env.msg {
            NetMsg::User { from_task, tag, data, .. } => {
                Some(CnMessage::User { from_task, tag, data })
            }
            NetMsg::TaskStarted { task, .. } => Some(CnMessage::TaskStarted { task }),
            NetMsg::TaskCompleted { task, result, .. } => {
                Some(CnMessage::TaskCompleted { task, result })
            }
            NetMsg::TaskFailed { task, error, .. } => Some(CnMessage::TaskFailed { task, error }),
            NetMsg::JobCompleted { results, .. } => Some(CnMessage::JobCompleted { results }),
            NetMsg::JobFailed { error, .. } => Some(CnMessage::JobFailed { error }),
            _ => None,
        };
        if let Some(m) = &msg {
            self.observe_shadow(m);
        }
        msg
    }

    /// See the `shadow` field: over a non-shared-memory fabric the task
    /// layer of the span forest is reconstructed from lifecycle messages.
    fn observe_shadow(&mut self, m: &CnMessage) {
        if self.net.shared_memory() {
            return;
        }
        match m {
            CnMessage::TaskStarted { task } => {
                let span =
                    self.rec.span_start_job("task", task, self.span, Some(self.job.0), Some(task));
                self.shadow.insert(task.clone(), span);
            }
            CnMessage::TaskCompleted { task, .. } | CnMessage::TaskFailed { task, .. } => {
                if let Some(span) = self.shadow.remove(task) {
                    self.rec.span_end(span);
                }
            }
            _ => {}
        }
    }

    /// Wait for a protocol message matching `want`; what arrives meanwhile
    /// stays queued for [`JobHandle::recv_message`].
    fn wait_net(
        &mut self,
        timeout: Duration,
        want: impl FnMut(&NetMsg) -> bool,
    ) -> Result<NetMsg, ClientError> {
        let env = self.pump.next_matching(Some(Instant::now() + timeout), want);
        env.map(|env| env.msg).map_err(|_| ClientError::Timeout("protocol ack"))
    }

    /// Create one task in the job — the burst of one. The JobManager places
    /// it on a willing TaskManager immediately; on success the task's
    /// message queue exists (but the task is not yet running).
    pub fn add_task(&mut self, spec: TaskSpec) -> Result<(), ClientError> {
        let names = vec![spec.name.clone()];
        self.create(NetMsg::CreateTask { job: self.job, spec, reply_to: self.addr }, names)
    }

    /// Create the job's tasks as one burst: one message, which the
    /// JobManager places in one round — one solicitation, every assignment
    /// in flight at once — and acks task by task, in `specs` order. Every
    /// task the JobManager could place is created; the error, if any, is
    /// the first one it could not.
    pub fn add_tasks(&mut self, specs: Vec<TaskSpec>) -> Result<(), ClientError> {
        if specs.is_empty() {
            return Ok(());
        }
        let names = specs.iter().map(|s| s.name.clone()).collect();
        self.create(NetMsg::CreateTasks { job: self.job, specs, reply_to: self.addr }, names)
    }

    /// Send a creation request and collect the `TaskAck` of each task it
    /// names, in order.
    fn create(&mut self, request: NetMsg, names: Vec<String>) -> Result<(), ClientError> {
        if self.started {
            return Err(ClientError::Usage("add_task after start"));
        }
        let dispatch_start = Instant::now();
        self.net.send(self.addr, self.jm, request).map_err(|e| ClientError::Net(e.to_string()))?;
        let job = self.job;
        let mut first_failure = None;
        for name in names {
            let ack = self.wait_net(
                ACK_TIMEOUT,
                |m| matches!(m, NetMsg::TaskAck { job: j, task, .. } if *j == job && *task == name),
            )?;
            // Dispatch latency: request sent → this task's TaskAck, i.e. the
            // solicit/bid/upload/assign round the JobManager ran on our behalf.
            self.dispatch.record(dispatch_start.elapsed().as_micros() as u64);
            match ack {
                NetMsg::TaskAck { accepted: true, task_addr: Some(addr), server, .. } => {
                    self.c_tasks.inc();
                    self.directory.insert(name.clone(), addr);
                    self.placements.push((name.clone(), server));
                    self.task_names.push(name);
                }
                NetMsg::TaskAck { reason, .. } => {
                    self.rec.event_with(Severity::Warn, "job", Some(job.0), || {
                        format!("placement failed for task {name:?}: {reason}")
                    });
                    first_failure
                        .get_or_insert(ClientError::PlacementFailed { task: name, reason });
                }
                _ => unreachable!("filtered on TaskAck"),
            }
        }
        first_failure.map_or(Ok(()), Err)
    }

    /// Deposit a tuple into the job's tuple space ("seeding" the input
    /// before the job starts). On a shared-memory fabric this writes the
    /// space directly — exactly what clients did before this method
    /// existed. Over the wire it sends [`NetMsg::SeedTuple`] to the
    /// JobManager, which deposits it into its replica and relays it to
    /// every TaskManager assigned a task of this job, so tasks observe
    /// the same pre-start space contents in both deployments.
    pub fn seed_tuple(&self, tuple: Tuple) -> Result<(), ClientError> {
        if self.net.shared_memory() {
            self.space.out(tuple);
            return Ok(());
        }
        self.net
            .send(self.addr, self.jm, NetMsg::SeedTuple { job: self.job, tuple })
            .map_err(|e| ClientError::Net(e.to_string()))
    }

    /// Start the job: the JobManager launches dependency-free tasks now and
    /// each remaining task as its dependencies complete.
    pub fn start(&mut self) -> Result<(), ClientError> {
        if self.started {
            return Err(ClientError::Usage("job already started"));
        }
        self.started = true;
        self.net
            .send(self.addr, self.jm, NetMsg::StartJob { job: self.job })
            .map_err(|e| ClientError::Net(e.to_string()))
    }

    /// Send a user-defined message to a task.
    pub fn send_to_task(&self, task: &str, tag: &str, data: UserData) -> Result<(), ClientError> {
        let &to = self.directory.get(task).ok_or(ClientError::PlacementFailed {
            task: task.to_string(),
            reason: "unknown task".to_string(),
        })?;
        self.c_msgs_to_tasks.inc();
        self.net
            .send(
                self.addr,
                to,
                NetMsg::User {
                    job: self.job,
                    from_task: CLIENT_TASK_NAME.to_string(),
                    tag: tag.to_string(),
                    data,
                },
            )
            .map_err(|e| ClientError::Net(e.to_string()))
    }

    /// Receive the next message from CN (lifecycle or user-defined).
    /// Protocol messages nothing waits for any more are skipped.
    pub fn recv_message(&mut self, timeout: Duration) -> Result<CnMessage, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let env = self.pump.next_before(Some(deadline));
            let env = env.map_err(|_| ClientError::Timeout("message"))?;
            if let Some(m) = self.decode(env) {
                return Ok(m);
            }
        }
    }

    /// Cancel the job: every running task is interrupted (it observes
    /// [`crate::RecvError::Shutdown`] at its next receive) and the
    /// JobManager reports the job as failed. Consumes the handle; the
    /// endpoint and the job's space go with it (`impl Drop`).
    pub fn cancel(mut self, timeout: Duration) -> Result<(), ClientError> {
        self.net
            .send(self.addr, self.jm, NetMsg::CancelJob { job: self.job })
            .map_err(|e| ClientError::Net(e.to_string()))?;
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClientError::Timeout("cancellation ack"));
            }
            match self.recv_message(remaining)? {
                CnMessage::JobFailed { .. } => {
                    self.held = false;
                    self.rec.event_job(Severity::Warn, "job", self.job.0, "cancelled by client");
                    self.rec.span_end(self.span.take());
                    return Ok(());
                }
                CnMessage::JobCompleted { .. } => {
                    // The job finished before the cancel arrived.
                    self.held = false;
                    self.rec.span_end(self.span.take());
                    return Ok(());
                }
                _ => {}
            }
        }
    }

    /// Drive the job to completion, collecting results.
    pub fn wait(mut self, timeout: Duration) -> Result<JobReport, ClientError> {
        let start = Instant::now();
        let mut events = Vec::new();
        loop {
            let remaining = timeout.saturating_sub(start.elapsed());
            if remaining.is_zero() {
                return Err(ClientError::Timeout("job completion"));
            }
            match self.recv_message(remaining)? {
                CnMessage::JobCompleted { results } => {
                    self.held = false;
                    self.rec.span_end(self.span.take());
                    return Ok(JobReport { results, events, elapsed: start.elapsed() });
                }
                CnMessage::JobFailed { error } => {
                    self.held = false;
                    self.rec.event_with(Severity::Error, "job", Some(self.job.0), || {
                        format!("job failed: {error}")
                    });
                    self.rec.span_end(self.span.take());
                    return Err(ClientError::JobFailed(error));
                }
                other => events.push(other),
            }
        }
    }
}
