//! The job endpoint the client ([`crate::JobHandle`]) and each task
//! ([`crate::TaskContext`]) hold (paper Section 3): both send by task name,
//! receive against a deadline and reach the job's [`crate::Space`] here.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cn_cluster::{Addr, Envelope, SendError};
use cn_observe::Counter;
use cn_sync::channel::{Receiver, RecvTimeoutError};
use cn_wire::FabricHandle;

use crate::message::{CnMessage, JobId, NetMsg, UserData};
use crate::pump::MsgPump;

/// The instant `timeout` from now, which every receive waits against.
pub(crate) fn deadline(timeout: Duration) -> Instant {
    Instant::now() + timeout
}

/// A task's stop signal: a task's receive and any tuple-space ask end on it.
pub(crate) fn is_stop(msg: &NetMsg) -> bool {
    matches!(msg, NetMsg::Shutdown | NetMsg::CancelTask { .. })
}

/// What `msg` says to a user of the CN API, if anything: a user or
/// lifecycle message, or [`CnMessage::Shutdown`] for a stop signal.
pub(crate) fn decode(msg: NetMsg) -> Option<CnMessage> {
    Some(match msg {
        NetMsg::User { from_task, tag, data, .. } => CnMessage::User { from_task, tag, data },
        NetMsg::TaskStarted { task, .. } => CnMessage::TaskStarted { task },
        NetMsg::TaskCompleted { task, result, .. } => CnMessage::TaskCompleted { task, result },
        NetMsg::TaskFailed { task, error, .. } => CnMessage::TaskFailed { task, error },
        NetMsg::JobCompleted { results, .. } => CnMessage::JobCompleted { results },
        NetMsg::JobFailed { error, .. } => CnMessage::JobFailed { error },
        msg if is_stop(&msg) => CnMessage::Shutdown,
        _ => return None,
    })
}

/// One endpoint of one job.
pub(crate) struct Endpoint {
    pub(crate) job: JobId,
    pub(crate) net: FabricHandle<NetMsg>,
    pub(crate) addr: Addr,
    /// The job's JobManager, which holds the job's tuple space.
    pub(crate) jm: Addr,
    /// What a receive passes over waits here for the next one.
    pub(crate) pump: MsgPump<NetMsg>,
    /// task name → endpoint: a task's holds the whole job and the client;
    /// the client's grows as its tasks are placed.
    pub(crate) directory: HashMap<String, Addr>,
    /// User messages sent and received.
    pub(crate) sent: Counter,
    pub(crate) received: Counter,
}

impl Endpoint {
    /// A task's endpoint on the queue `rx` its TaskManager registered,
    /// counting on the fabric's recorder if that one records.
    pub(crate) fn for_task(
        job: JobId,
        net: &FabricHandle<NetMsg>,
        addr: Addr,
        jm: Addr,
        rx: Receiver<Envelope<NetMsg>>,
        directory: HashMap<String, Addr>,
    ) -> Endpoint {
        let rec = net.recorder();
        let count = |name| if rec.is_enabled() { rec.counter(name) } else { Counter::standalone() };
        let (sent, received) = (count("task.msgs_sent"), count("task.msgs_received"));
        let (net, pump) = (net.clone(), MsgPump::new(rx));
        Endpoint { job, net, addr, jm, pump, directory, sent, received }
    }

    /// The client's endpoint, whose sends `sent` counts.
    pub(crate) fn for_client(
        job: JobId,
        net: &FabricHandle<NetMsg>,
        addr: Addr,
        jm: Addr,
        pump: MsgPump<NetMsg>,
        sent: Counter,
    ) -> Endpoint {
        let (net, directory, received) = (net.clone(), HashMap::new(), Counter::standalone());
        Endpoint { job, net, addr, jm, pump, directory, sent, received }
    }

    pub(crate) fn to_jm(&self, msg: NetMsg) -> Result<(), SendError> {
        self.net.send(self.addr, self.jm, msg)
    }

    /// A `User` message of this job from `from`.
    pub(crate) fn user(&self, from: &str, tag: &str, data: UserData) -> NetMsg {
        NetMsg::User { job: self.job, from_task: from.to_string(), tag: tag.to_string(), data }
    }

    /// Send a `User` message from `from` to the task named `to_task`; `None`
    /// when the job has no task of that name.
    pub(crate) fn send(
        &self,
        from: &str,
        to_task: &str,
        tag: &str,
        data: UserData,
    ) -> Option<Result<(), SendError>> {
        let &to = self.directory.get(to_task)?;
        self.sent.inc();
        Some(self.net.send(self.addr, to, self.user(from, tag, data)))
    }

    /// The first message before `deadline`, in arrival order, that `want`
    /// picks and `take` has a value for. What `want` passes over stays
    /// queued; what it picks and `take` has no value for is used up.
    pub(crate) fn recv<T>(
        &mut self,
        deadline: Instant,
        mut want: impl FnMut(&NetMsg) -> bool,
        mut take: impl FnMut(NetMsg) -> Option<T>,
    ) -> Result<T, RecvTimeoutError> {
        loop {
            let env = self.pump.next_matching(Some(deadline), &mut want)?;
            if let Some(value) = take(env.msg) {
                return Ok(value);
            }
        }
    }
}
