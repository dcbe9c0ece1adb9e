//! The Task interface and execution context.
//!
//! "A Task is defined to be a unit of work that the user wants to perform"
//! (paper Section 3). User tasks implement [`Task`], "conforming to the Task
//! interface defined by CN API", and communicate through their
//! [`TaskContext`] — the per-task message queue the TaskManager sets up,
//! plus helpers mirroring the CN API's messaging surface.

use std::fmt;
use std::time::Duration;

use cn_cluster::Addr;
use cn_cnx::Param;
use cn_sync::channel::RecvTimeoutError;

use crate::endpoint::{deadline, decode, is_stop, Endpoint};
use crate::message::{CnMessage, JobId, NetMsg, UserData, CLIENT_TASK_NAME};
use crate::tuplespace::Space;

/// Task failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    pub msg: String,
}

impl TaskError {
    pub fn new(msg: impl Into<String>) -> Self {
        TaskError { msg: msg.into() }
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task error: {}", self.msg)
    }
}

impl std::error::Error for TaskError {}

/// What a caught panic said, for the failure report of whatever contained
/// it (a task thread here, a portal worker's runner in `cn-portal`).
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string payload")
}

/// The user task interface. `run` executes on a TaskManager thread
/// (`RUN_AS_THREAD_IN_TM`); its return value is reported to the client as
/// the task result.
pub trait Task: Send {
    fn run(&mut self, ctx: &mut TaskContext) -> Result<UserData, TaskError>;
}

/// Blanket impl so closures can be tasks in tests and examples.
impl<F> Task for F
where
    F: FnMut(&mut TaskContext) -> Result<UserData, TaskError> + Send,
{
    fn run(&mut self, ctx: &mut TaskContext) -> Result<UserData, TaskError> {
        self(ctx)
    }
}

/// Receive failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    Timeout,
    /// The job is shutting down (cancellation).
    Shutdown,
    Disconnected,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Shutdown => write!(f, "task was cancelled"),
            RecvError::Disconnected => write!(f, "message queue disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

impl From<RecvTimeoutError> for RecvError {
    fn from(e: RecvTimeoutError) -> RecvError {
        match e {
            RecvTimeoutError::Timeout => RecvError::Timeout,
            RecvTimeoutError::Disconnected => RecvError::Disconnected,
        }
    }
}

/// Execution context handed to [`Task::run`].
pub struct TaskContext {
    pub job: JobId,
    /// This task's name within the job.
    pub name: String,
    /// Declared parameters (from CNX `<param>` / tagged values).
    pub params: Vec<Param>,
    /// The task's endpoint: its message queue and the whole job's
    /// directory (the client reachable as [`CLIENT_TASK_NAME`]).
    pub(crate) ep: Endpoint,
    /// Compute-cost multiplier of the hosting node (1.0 at nominal speed;
    /// see `NodeSpec::speed_pct`). [`TaskContext::simulate_work`] applies
    /// it so simulated workloads run slower on straggler nodes.
    pub(crate) work_scale: f64,
}

impl TaskContext {
    /// Parameter `i` as an i64, if present and numeric.
    pub fn param_i64(&self, i: usize) -> Option<i64> {
        self.params.get(i).and_then(|p| p.value.trim().parse().ok())
    }

    /// Parameter `i` as a string.
    pub fn param_str(&self, i: usize) -> Option<&str> {
        self.params.get(i).map(|p| p.value.as_str())
    }

    /// Every task in the job but this one (and the client), by name.
    fn peer_entries(&self) -> Vec<(&String, Addr)> {
        let mut peers: Vec<(&String, Addr)> = self
            .ep
            .directory
            .iter()
            .filter(|(n, _)| n.as_str() != self.name && n.as_str() != CLIENT_TASK_NAME)
            .map(|(n, &addr)| (n, addr))
            .collect();
        peers.sort_unstable();
        peers
    }

    /// Names of all tasks in the job except this one (and the client).
    pub fn peers(&self) -> Vec<String> {
        self.peer_entries().into_iter().map(|(n, _)| n.clone()).collect()
    }

    /// The job-wide tuple space (the alternative coordination medium the
    /// paper mentions: "CN also supports communication via tuple spaces"),
    /// held by the job's JobManager.
    pub fn tuplespace(&mut self) -> Space<'_> {
        Space(&mut self.ep)
    }

    /// The hosting node's compute-cost multiplier (1.0 = nominal speed).
    pub fn work_scale(&self) -> f64 {
        self.work_scale
    }

    /// Simulate `nominal` worth of compute: sleeps for the duration scaled
    /// by the hosting node's speed, so a `speed_pct: 25` straggler takes
    /// 4x as long. The contention benchmark's tasks are built on this.
    pub fn simulate_work(&self, nominal: Duration) {
        std::thread::sleep(nominal.mul_f64(self.work_scale));
    }

    /// Send a user-defined message to another task by name.
    pub fn send(&self, to_task: &str, tag: &str, data: UserData) -> Result<(), TaskError> {
        self.ep
            .send(&self.name, to_task, tag, data)
            .ok_or_else(|| TaskError::new(format!("unknown task {to_task:?}")))?
            .map_err(|e| TaskError::new(e.to_string()))
    }

    /// Send a user-defined message to the client.
    pub fn send_to_client(&self, tag: &str, data: UserData) -> Result<(), TaskError> {
        self.send(CLIENT_TASK_NAME, tag, data)
    }

    /// Broadcast a user-defined message to every peer task. The fabric
    /// serializes the message once and fans the encoded bytes out, instead
    /// of cloning the payload per peer.
    pub fn broadcast(&self, tag: &str, data: UserData) -> Result<usize, TaskError> {
        let addrs: Vec<Addr> = self.peer_entries().into_iter().map(|(_, addr)| addr).collect();
        self.ep.sent.add(addrs.len() as u64);
        let msg = self.ep.user(&self.name, tag, data);
        self.ep.net.send_many(self.ep.addr, &addrs, msg).map_err(|e| TaskError::new(e.to_string()))
    }

    /// Blocking receive with timeout. Protocol noise is skipped.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<CnMessage, RecvError> {
        self.recv_where(timeout, |_| true)
    }

    /// Blocking receive with the default (generous) timeout.
    pub fn recv(&mut self) -> Result<CnMessage, RecvError> {
        self.recv_timeout(Duration::from_secs(30))
    }

    /// Receive the next user message whose tag matches, leaving anything
    /// else for later `recv` calls — unless a shutdown arrived first. This
    /// is the selective-receive idiom the transitive-closure tasks use while
    /// waiting for "row k".
    pub fn recv_tagged(
        &mut self,
        tag: &str,
        timeout: Duration,
    ) -> Result<(String, UserData), RecvError> {
        let wanted =
            |m: &NetMsg| is_stop(m) || matches!(m, NetMsg::User { tag: t, .. } if t == tag);
        match self.recv_where(timeout, wanted)? {
            CnMessage::User { from_task, data, .. } => Ok((from_task, data)),
            _ => unreachable!("filtered on User"),
        }
    }

    /// The first user message `want` picks, or the shutdown it picks first.
    /// Anything else it picks is protocol noise for a task, and skipped.
    fn recv_where(
        &mut self,
        timeout: Duration,
        want: impl FnMut(&NetMsg) -> bool,
    ) -> Result<CnMessage, RecvError> {
        let msg = self.ep.recv(deadline(timeout), want, |msg| match decode(msg)? {
            CnMessage::Shutdown => Some(Err(RecvError::Shutdown)),
            msg @ CnMessage::User { .. } => Some(Ok(msg)),
            _ => None,
        })??;
        self.ep.received.inc();
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::tests::one_of_each;
    use cn_cluster::{LatencyModel, Network};
    use cn_wire::FabricHandle;
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Instant;

    fn make_ctx(net: &Network<NetMsg>) -> (TaskContext, TaskContext) {
        let net: FabricHandle<NetMsg> = Arc::new(net.clone());
        let (a_addr, a_rx) = net.register();
        let (b_addr, b_rx) = net.register();
        let directory = HashMap::from([("a".to_string(), a_addr), ("b".to_string(), b_addr)]);
        let endpoint =
            |addr, rx, jm| Endpoint::for_task(JobId(1), &net, addr, jm, rx, directory.clone());
        let a = TaskContext {
            job: JobId(1),
            name: "a".to_string(),
            params: vec![Param::integer(7), Param::string("file.txt")],
            ep: endpoint(a_addr, a_rx, b_addr),
            work_scale: 1.0,
        };
        let b = TaskContext {
            job: JobId(1),
            name: "b".to_string(),
            params: vec![],
            ep: endpoint(b_addr, b_rx, a_addr),
            work_scale: 1.0,
        };
        (a, b)
    }

    #[test]
    fn params_accessors() {
        let net = Network::new(LatencyModel::zero(), 1);
        let (a, _b) = make_ctx(&net);
        assert_eq!(a.param_i64(0), Some(7));
        assert_eq!(a.param_str(1), Some("file.txt"));
        assert_eq!(a.param_i64(1), None);
        assert_eq!(a.param_i64(9), None);
    }

    #[test]
    fn send_and_recv_between_tasks() {
        let net = Network::new(LatencyModel::zero(), 1);
        let (a, mut b) = make_ctx(&net);
        a.send("b", "ping", UserData::I64s(vec![1, 2])).unwrap();
        match b.recv_timeout(Duration::from_secs(1)).unwrap() {
            CnMessage::User { from_task, tag, data } => {
                assert_eq!(from_task, "a");
                assert_eq!(tag, "ping");
                assert_eq!(data, UserData::I64s(vec![1, 2]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn send_to_unknown_task_fails() {
        let net = Network::new(LatencyModel::zero(), 1);
        let (a, _b) = make_ctx(&net);
        assert!(a.send("ghost", "x", UserData::Empty).is_err());
    }

    #[test]
    fn peers_excludes_self_and_client() {
        let net = Network::new(LatencyModel::zero(), 1);
        let (mut a, _b) = make_ctx(&net);
        a.ep.directory.insert(CLIENT_TASK_NAME.to_string(), Addr(999));
        assert_eq!(a.peers(), vec!["b".to_string()]);
    }

    #[test]
    fn broadcast_reaches_peers() {
        let net = Network::new(LatencyModel::zero(), 1);
        let (a, mut b) = make_ctx(&net);
        let n = a.broadcast("k-row", UserData::I64s(vec![0, 5, 2])).unwrap();
        assert_eq!(n, 1);
        assert!(matches!(
            b.recv_timeout(Duration::from_secs(1)).unwrap(),
            CnMessage::User { tag, .. } if tag == "k-row"
        ));
    }

    #[test]
    fn recv_timeout_expires() {
        let net = Network::new(LatencyModel::zero(), 1);
        let (_a, mut b) = make_ctx(&net);
        assert_eq!(b.recv_timeout(Duration::from_millis(10)), Err(RecvError::Timeout));
    }

    #[test]
    fn recv_tagged_stashes_other_messages() {
        let net = Network::new(LatencyModel::zero(), 1);
        let (a, mut b) = make_ctx(&net);
        a.send("b", "other", UserData::Text("first".into())).unwrap();
        a.send("b", "wanted", UserData::Text("second".into())).unwrap();
        let (_, data) = b.recv_tagged("wanted", Duration::from_secs(1)).unwrap();
        assert_eq!(data, UserData::Text("second".into()));
        // The stashed message is still deliverable.
        match b.recv_timeout(Duration::from_secs(1)).unwrap() {
            CnMessage::User { tag, .. } => assert_eq!(tag, "other"),
            other => panic!("{other:?}"),
        }
    }

    /// utime + stime of the calling thread, in clock ticks (10 ms each).
    fn thread_cpu_ticks() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        // Fields after the parenthesised command name start at field 3.
        let mut fields = stat[stat.rfind(')').unwrap() + 2..].split(' ').skip(11);
        let mut tick = || fields.next().unwrap().parse::<u64>().unwrap();
        tick() + tick()
    }

    #[test]
    fn recv_tagged_blocks_while_the_stash_holds_other_tags() {
        let net = Network::new(LatencyModel::zero(), 1);
        let (a, mut b) = make_ctx(&net);
        a.send("b", "row-1", UserData::Empty).unwrap();
        let before = thread_cpu_ticks();
        assert_eq!(b.recv_tagged("row-0", Duration::from_millis(150)), Err(RecvError::Timeout));
        let spent = thread_cpu_ticks() - before;
        assert!(spent <= 2, "waiting 150 ms for row-0 burned {spent} ticks of CPU: it spins");

        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            a.send("b", "row-0", UserData::Text("late".into())).unwrap();
        });
        let (_, data) = b.recv_tagged("row-0", Duration::from_secs(5)).unwrap();
        assert_eq!(data, UserData::Text("late".into()));
        sender.join().unwrap();
        assert!(matches!(
            b.recv_timeout(Duration::from_secs(1)).unwrap(),
            CnMessage::User { tag, .. } if tag == "row-1"
        ));
    }

    #[test]
    fn shutdown_surfaces_as_recv_error() {
        let net = Network::with_recorder(LatencyModel::zero(), 1, cn_observe::Recorder::new());
        let (a, mut b) = make_ctx(&net);
        net.send(a.ep.addr, b.ep.addr, NetMsg::Shutdown).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)), Err(RecvError::Shutdown));

        // Each kind of message alone in the queue: what each receive returns,
        // and whether the message stays queued for the next one. A stop
        // signal ends both; `recv_timeout` skips protocol noise, and
        // `recv_tagged` leaves everything but its tag queued.
        use RecvError::{Shutdown, Timeout};
        let user = |tag: &str| {
            Ok(CnMessage::User { from_task: "a".into(), tag: tag.into(), data: UserData::Empty })
        };
        let recv =
            [user("t"), Err(Timeout), Err(Shutdown), Err(Shutdown), Err(Timeout), user("other")];
        let tagged = [
            (Ok(("a".to_string(), UserData::Empty)), false),
            (Err(Timeout), true),
            (Err(Shutdown), false),
            (Err(Shutdown), false),
            (Err(Timeout), true),
            (Err(Timeout), true),
        ];
        let cases = one_of_each().into_iter().zip(recv.into_iter().zip(tagged));
        let short = Duration::from_millis(10);
        for ((label, msg), (recv, (tagged, kept))) in cases {
            let (a, mut b) = make_ctx(&net);
            net.send(a.ep.addr, b.ep.addr, msg.clone()).unwrap();
            assert_eq!(b.recv_timeout(short), recv, "recv_timeout on {label}");
            assert_eq!(pending(&mut b), [], "recv_timeout on {label}");
            net.send(a.ep.addr, b.ep.addr, msg.clone()).unwrap();
            assert_eq!(b.recv_tagged("t", short), tagged, "recv_tagged on {label}");
            let left = if kept { vec![msg] } else { vec![] };
            assert_eq!(pending(&mut b), left, "recv_tagged on {label}");
        }
        // Each user message a receive returned is counted once.
        assert_eq!(net.recorder().counter("task.msgs_received").get(), 3);
    }

    /// What is left in a task's queue.
    fn pending(ctx: &mut TaskContext) -> Vec<NetMsg> {
        std::iter::from_fn(|| ctx.ep.pump.next_before(Some(Instant::now())).ok())
            .map(|env| env.msg)
            .collect()
    }

    #[test]
    fn closure_is_a_task() {
        let mut f = |_ctx: &mut TaskContext| Ok(UserData::Text("done".into()));
        // Just type-check the blanket impl.
        fn takes_task<T: Task>(_t: &mut T) {}
        takes_task(&mut f);
    }
}
