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
use std::time::{Duration, Instant};

use cn_cluster::SendError;
use cn_observe::{Counter, Histogram, Recorder, Severity, SpanId, LATENCY_BUCKETS_US};
use cn_sync::channel::RecvTimeoutError;
use cn_wire::FabricHandle;

use crate::endpoint::{deadline, decode, Endpoint};
use crate::message::{
    Bid, CnMessage, JobId, JobRequirements, NetMsg, TaskSpec, UserData, CLIENT_TASK_NAME,
};
use crate::pump::MsgPump;
use crate::scheduler::least_loaded;
use crate::tuplespace::Space;
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
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { bid_window: Duration::from_millis(5) }
    }
}

/// How long the client waits for each ack (job create, task create).
const ACK_TIMEOUT: Duration = Duration::from_secs(5);

/// How long `create_job` keeps re-multicasting the solicitation while its
/// bid windows close with no bids, each window twice as long as the last
/// (willing managers can miss a window under load, or be descheduled for
/// longer than one). The first window is `bid_window`; the last one opens
/// before the windows so far add up to this.
pub(crate) const DISCOVERY_DEADLINE: Duration = Duration::from_secs(1);

/// Process-wide job id source: JobManagers key state by [`JobId`], and
/// several clients may talk to the same neighborhood.
static NEXT_JOB_ID: AtomicU64 = AtomicU64::new(1);

/// The CN API factory instance.
pub struct CnApi {
    net: FabricHandle<NetMsg>,
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
        CnApi::over(neighborhood.fabric(), config, neighborhood.recorder().clone())
    }

    /// Build a CN API directly over any transport fabric. This is the
    /// entry point for multi-process deployments: `cnctl submit` hands it
    /// a [`cn_wire::SocketFabric`], and the same protocol runs over real
    /// sockets. The API and its jobs record into `rec`, which need not be
    /// the fabric's: the portal keeps one fabric for the life of the
    /// process and gives each job a recorder of its own.
    pub fn over(net: FabricHandle<NetMsg>, config: ClientConfig, rec: Recorder) -> CnApi {
        CnApi {
            net,
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
        let (mut window, mut waited) = (self.config.bid_window, Duration::ZERO);
        let bids: Vec<Bid> = loop {
            self.c_solicits.inc();
            let bids = pump.solicit(
                &self.net,
                addr,
                NetMsg::SolicitJobManager { job, requirements: *requirements, reply_to: addr },
                window,
                |m| match m {
                    NetMsg::JobManagerBid { job: bjob, bid } if *bjob == job => Some(bid.clone()),
                    _ => None,
                },
            );
            waited += window;
            if !bids.is_empty() || waited >= DISCOVERY_DEADLINE {
                break bids;
            }
            window *= 2;
        };
        self.c_bids.add(bids.len() as u64);
        let chosen = least_loaded(&bids).cloned().ok_or_else(|| {
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

        let sent = self.rec.counter("api.msgs_to_tasks");
        let mut handle = JobHandle {
            job,
            jm_server: chosen.server,
            ep: Endpoint::for_client(job, &self.net, addr, chosen.addr, pump, sent),
            task_names: Vec::new(),
            placements: Vec::new(),
            started: false,
            held: false,
            task_spans: HashMap::new(),
            rec: self.rec.clone(),
            span,
            c_tasks: self.c_tasks.clone(),
            dispatch: self.dispatch.clone(),
        };
        // On any failure path from here the handle is dropped, which
        // unregisters the endpoint and closes the job span (see `impl Drop
        // for JobHandle`).
        handle.to_jm(NetMsg::CreateJob { job, client: addr, reply_to: addr })?;
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
    /// Name of the server whose JobManager owns this job.
    pub jm_server: String,
    /// The client's endpoint. Protocol acks are picked out of its queue,
    /// and what arrives meanwhile waits there for
    /// [`JobHandle::recv_message`]; its directory holds each task's
    /// endpoint, learned from TaskAcks.
    ep: Endpoint,
    task_names: Vec<String>,
    /// task name → server that hosts it, in creation order (from
    /// TaskAcks). The scheduler differential tests compare these across
    /// placement policies.
    placements: Vec<(String, String)>,
    started: bool,
    /// The JobManager accepted the job and has not reported its end: a
    /// handle dropped now abandons a job that still holds its placements.
    held: bool,
    /// The open span of each running task, keyed by task name. The client
    /// owns the task layer of the span forest: it builds it from the
    /// TaskStarted/TaskCompleted/TaskFailed lifecycle messages, so the
    /// exported forest is the same on every fabric.
    task_spans: HashMap<String, Option<SpanId>>,
    rec: Recorder,
    /// The job span, closed on completion/failure/cancel (or in Drop).
    span: Option<SpanId>,
    c_tasks: Counter,
    dispatch: Histogram,
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        // An abandoned job would keep every slot and megabyte it was placed
        // on: tell its JobManager, without waiting for it to agree.
        let ep = &self.ep;
        if self.held {
            ep.net.post(ep.addr, ep.jm, NetMsg::CancelJob { job: self.job });
        }
        ep.net.unregister(ep.addr);
        for (_, span) in self.task_spans.drain() {
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
    /// The job-wide tuple space, held by the job's JobManager (and
    /// reachable from every task context the same way).
    pub fn tuplespace(&mut self) -> Space<'_> {
        Space(&mut self.ep)
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

    /// The next user or lifecycle message before `deadline`. Protocol
    /// messages nothing waits for any more, a task's stop signals among
    /// them, are skipped.
    fn recv_before(&mut self, deadline: Instant) -> Result<CnMessage, RecvTimeoutError> {
        let not_stop = |m: &CnMessage| !matches!(m, CnMessage::Shutdown);
        let msg = self.ep.recv(deadline, |_| true, |msg| decode(msg).filter(not_stop))?;
        self.track_task_span(&msg);
        Ok(msg)
    }

    /// Open or close a task's span as its lifecycle messages arrive (the
    /// `task_spans` field).
    fn track_task_span(&mut self, m: &CnMessage) {
        match m {
            CnMessage::TaskStarted { task } => {
                let span =
                    self.rec.span_start_job("task", task, self.span, Some(self.job.0), Some(task));
                self.task_spans.insert(task.clone(), span);
            }
            CnMessage::TaskCompleted { task, .. } | CnMessage::TaskFailed { task, .. } => {
                if let Some(span) = self.task_spans.remove(task) {
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
        self.ep
            .recv(deadline(timeout), want, Some)
            .map_err(|_| ClientError::Timeout("protocol ack"))
    }

    /// Send `msg` to the job's JobManager.
    fn to_jm(&self, msg: NetMsg) -> Result<(), ClientError> {
        self.ep.to_jm(msg).map_err(net_error)
    }

    /// Create one task in the job — the burst of one. The JobManager places
    /// it on a willing TaskManager immediately; on success the task's
    /// message queue exists (but the task is not yet running).
    pub fn add_task(&mut self, spec: TaskSpec) -> Result<(), ClientError> {
        let names = vec![spec.name.clone()];
        self.create(NetMsg::CreateTask { job: self.job, spec, reply_to: self.ep.addr }, names)
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
        self.create(NetMsg::CreateTasks { job: self.job, specs, reply_to: self.ep.addr }, names)
    }

    /// Send a creation request and collect the `TaskAck` of each task it
    /// names, in order.
    fn create(&mut self, request: NetMsg, names: Vec<String>) -> Result<(), ClientError> {
        if self.started {
            return Err(ClientError::Usage("add_task after start"));
        }
        let dispatch_start = Instant::now();
        self.to_jm(request)?;
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
                    self.ep.directory.insert(name.clone(), addr);
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

    /// Run the client's input setup (e.g. depositing `matrix.txt`) on this
    /// job before it starts, as a `seed-input` span under the job's span.
    pub fn seed(
        &mut self,
        hook: impl FnOnce(&mut JobHandle) -> Result<(), ClientError>,
    ) -> Result<(), ClientError> {
        let span =
            self.span.and_then(|parent| self.rec.span_start("client", "seed-input", Some(parent)));
        let seeded = hook(self);
        self.rec.span_end(span);
        seeded
    }

    /// Start the job: the JobManager launches dependency-free tasks now and
    /// each remaining task as its dependencies complete.
    pub fn start(&mut self) -> Result<(), ClientError> {
        if self.started {
            return Err(ClientError::Usage("job already started"));
        }
        self.started = true;
        self.to_jm(NetMsg::StartJob { job: self.job })
    }

    /// Send a user-defined message to a task.
    pub fn send_to_task(&self, task: &str, tag: &str, data: UserData) -> Result<(), ClientError> {
        let unknown = || ClientError::PlacementFailed {
            task: task.to_string(),
            reason: "unknown task".to_string(),
        };
        self.ep.send(CLIENT_TASK_NAME, task, tag, data).ok_or_else(unknown)?.map_err(net_error)
    }

    /// Receive the next message from CN (lifecycle or user-defined).
    /// Protocol messages nothing waits for any more are skipped.
    pub fn recv_message(&mut self, timeout: Duration) -> Result<CnMessage, ClientError> {
        self.recv_before(deadline(timeout)).map_err(|_| ClientError::Timeout("message"))
    }

    /// Cancel the job: every running task is interrupted (it observes
    /// [`crate::RecvError::Shutdown`] at its next receive) and the
    /// JobManager reports the job as failed. Consumes the handle; the
    /// endpoint goes with it (`impl Drop`), and the job's space with the
    /// job. A job that finished before the cancel arrived ends as well.
    pub fn cancel(mut self, timeout: Duration) -> Result<(), ClientError> {
        self.to_jm(NetMsg::CancelJob { job: self.job })?;
        let cancelled = (Severity::Warn, |_: &str| "cancelled by client".to_string());
        self.run_out(timeout, "cancellation ack", cancelled, drop).map(drop)
    }

    /// Drive the job to completion, collecting results.
    pub fn wait(mut self, timeout: Duration) -> Result<JobReport, ClientError> {
        let start = Instant::now();
        let mut events = Vec::new();
        let failed = (Severity::Error, |error: &str| format!("job failed: {error}"));
        match self.run_out(timeout, "job completion", failed, |m| events.push(m))? {
            Ok(results) => Ok(JobReport { results, events, elapsed: start.elapsed() }),
            Err(error) => Err(ClientError::JobFailed(error)),
        }
    }

    /// Receive until the job ends, handing every other message to `seen`,
    /// then close the job's books: its JobManager no longer holds it, a
    /// failure is a flight event of `severity` that `words` phrase, and the
    /// job span closes. The end is the job's results, or the error it
    /// failed with; a `Timeout(what)` if it does not come in `timeout`.
    fn run_out(
        &mut self,
        timeout: Duration,
        what: &'static str,
        (severity, words): (Severity, impl FnOnce(&str) -> String),
        mut seen: impl FnMut(CnMessage),
    ) -> Result<Result<Vec<(String, UserData)>, String>, ClientError> {
        let deadline = deadline(timeout);
        let end = loop {
            match self.recv_before(deadline).map_err(|_| ClientError::Timeout(what))? {
                CnMessage::JobCompleted { results } => break Ok(results),
                CnMessage::JobFailed { error } => break Err(error),
                other => seen(other),
            }
        };
        self.held = false;
        if let Err(error) = &end {
            self.rec.event_with(severity, "job", Some(self.job.0), || words(error));
        }
        self.rec.span_end(self.span.take());
        Ok(end)
    }
}

fn net_error(e: SendError) -> ClientError {
    ClientError::Net(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::tests::one_of_each;
    use cn_cluster::{LatencyModel, Network};
    use std::sync::Arc;

    /// A handle on job 1, whose JobManager is an address nobody serves.
    fn handle(net: &FabricHandle<NetMsg>) -> JobHandle {
        let (addr, rx) = net.register();
        let (jm, _) = net.register();
        let rec = net.recorder().clone();
        let sent = rec.counter("api.msgs_to_tasks");
        JobHandle {
            job: JobId(1),
            jm_server: "s0".into(),
            ep: Endpoint::for_client(JobId(1), net, addr, jm, MsgPump::new(rx), sent),
            task_names: Vec::new(),
            placements: Vec::new(),
            started: false,
            held: false,
            task_spans: HashMap::new(),
            span: None,
            c_tasks: rec.counter("api.tasks_created"),
            dispatch: rec.histogram("api.dispatch_latency_us", LATENCY_BUCKETS_US),
            rec,
        }
    }

    /// Each kind of message alone in the client's queue: the receive returns
    /// user and lifecycle messages, and uses up, without returning, a task's
    /// stop signals and what no wait of the client is for.
    #[test]
    fn the_client_receive_skips_stop_signals_and_noise() {
        let net: FabricHandle<NetMsg> = Arc::new(Network::new(LatencyModel::zero(), 1));
        let user = |tag: &str| {
            Ok(CnMessage::User { from_task: "a".into(), tag: tag.into(), data: UserData::Empty })
        };
        let skipped = || Err(ClientError::Timeout("message"));
        let started = Ok(CnMessage::TaskStarted { task: "a".into() });
        let want = [user("t"), started, skipped(), skipped(), skipped(), user("other")];
        for ((label, msg), want) in one_of_each().into_iter().zip(want) {
            let mut job = handle(&net);
            net.send(job.ep.jm, job.ep.addr, msg).unwrap();
            assert_eq!(job.recv_message(Duration::from_millis(10)), want, "{label}");
            let left = job.ep.pump.next_before(Some(Instant::now()));
            assert!(left.is_err(), "{label} left {left:?} queued");
        }
    }
}
