//! The CN messaging model.
//!
//! "CN uses messages as the fundamental information between the CN and the
//! client. CN has well-defined messages that define the Message Request,
//! expected Message Action and expected Message Response. Besides the
//! well-defined messages, CN also allows user-defined messages that only the
//! application (client and its tasks) understands." (paper Section 3)
//!
//! [`NetMsg`] is the well-defined protocol vocabulary carried on the
//! cluster fabric; [`UserData`] is the opaque payload of user-defined
//! messages, for which "CN merely provides a message delivery mechanism".

use std::collections::HashMap;

use cn_cluster::Addr;
use cn_cnx::Param;

use crate::scheduler::LoadSignal;
use crate::tuplespace::Field;

/// Job identifier, unique per client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job:{}", self.0)
    }
}

/// Opaque user payload. CN does not interpret it.
#[derive(Debug, Clone, PartialEq)]
pub enum UserData {
    Empty,
    Text(String),
    Bytes(Vec<u8>),
    I64s(Vec<i64>),
    F64s(Vec<f64>),
}

impl UserData {
    /// Approximate wire size, used by the fabric metrics and benches.
    pub fn size_bytes(&self) -> usize {
        match self {
            UserData::Empty => 0,
            UserData::Text(s) => s.len(),
            UserData::Bytes(b) => b.len(),
            UserData::I64s(v) => v.len() * 8,
            UserData::F64s(v) => v.len() * 8,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            UserData::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64s(&self) -> Option<&[i64]> {
        match self {
            UserData::I64s(v) => Some(v),
            _ => None,
        }
    }
}

/// Requirements a client attaches to a job; JobManagers bid only if they can
/// satisfy them ("A JobManager is selected based on User specified Job
/// requirements from the list of willing JobManagers").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRequirements {
    pub min_free_memory_mb: u64,
    pub min_free_slots: usize,
}

impl Default for JobRequirements {
    fn default() -> Self {
        JobRequirements { min_free_memory_mb: 0, min_free_slots: 1 }
    }
}

/// Everything a TaskManager needs to instantiate a task. The runtime
/// counterpart of a CNX `<task>` element.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    pub name: String,
    pub jar: String,
    pub class: String,
    pub depends: Vec<String>,
    pub memory_mb: u64,
    pub params: Vec<Param>,
}

impl TaskSpec {
    pub fn new(name: impl Into<String>, jar: impl Into<String>, class: impl Into<String>) -> Self {
        TaskSpec {
            name: name.into(),
            jar: jar.into(),
            class: class.into(),
            depends: Vec::new(),
            memory_mb: 1000,
            params: Vec::new(),
        }
    }

    /// Convert from a parsed CNX task element.
    pub fn from_cnx(task: &cn_cnx::Task) -> Self {
        TaskSpec {
            name: task.name.clone(),
            jar: task.jar.clone(),
            class: task.class.clone(),
            depends: task.depends.clone(),
            memory_mb: task.req.memory_mb,
            params: task.params.clone(),
        }
    }
}

/// A bid from a willing JobManager or TaskManager.
#[derive(Debug, Clone, PartialEq)]
pub struct Bid {
    pub server: String,
    pub addr: Addr,
    pub load: f64,
    pub free_memory_mb: u64,
    pub free_slots: usize,
    /// Live load vector sampled when the bid was made — what
    /// `Policy::LoadAware` ranks on.
    pub signal: LoadSignal,
}

/// The CN protocol vocabulary, declared once. A row is a message's doc
/// comment, variant name, wire tag byte and fields **in wire order**; the
/// [`NetMsg`] enum, [`NetMsg::kind`], its `WireEncode` impl (`wire.rs`) and
/// the workspace's proptest strategy are all expansions of this table, so
/// adding a message is one row here (DESIGN.md §9, "Adding a message").
/// A tag is never reused or renumbered: it *is* the wire format.
///
/// `netmsg_table!(callback)` expands to `callback! { rows }`; field types
/// are bare names resolved where the callback expands.
#[macro_export]
macro_rules! netmsg_table {
    ($callback:ident) => {
        $callback! {
            // -- JobManager discovery (multicast) ------------------------------
            /// Client → discovery group: who is willing to manage this job?
            SolicitJobManager = 0 { job: JobId, requirements: JobRequirements, reply_to: Addr },
            /// Willing JobManager → client.
            JobManagerBid = 1 { job: JobId, bid: Bid },

            // -- Job lifecycle (client ↔ selected JobManager) ------------------
            CreateJob = 2 { job: JobId, client: Addr, reply_to: Addr },
            JobAck = 3 { job: JobId, accepted: bool, reason: String },
            /// Client → JM: create (and place) one task.
            CreateTask = 4 { job: JobId, spec: TaskSpec, reply_to: Addr },
            /// JM → client: task placed on `server`, reachable at `task_addr`.
            TaskAck = 5 {
                job: JobId,
                task: String,
                accepted: bool,
                reason: String,
                server: String,
                task_addr: Option<Addr>,
            },
            /// Client → JM: start executing (roots first, dependents as
            /// dependencies complete).
            StartJob = 6 { job: JobId },
            /// Client → JM: cancel the whole job (running tasks are interrupted).
            CancelJob = 7 { job: JobId },

            // -- Task placement (JM ↔ TaskManagers) ----------------------------
            SolicitTaskManager = 8 { job: JobId, task: String, memory_mb: u64, reply_to: Addr },
            TaskManagerBid = 9 { job: JobId, task: String, bid: Bid },
            /// JM → TM: ship the task archive ("the JobManager will upload the JAR
            /// file to that TaskManager"). `size_bytes` models the transfer cost.
            UploadArchive = 10 { jar: String, size_bytes: u64 },
            /// JM → TM: instantiate the task (sets up its message queue).
            AssignTask = 11 { job: JobId, spec: TaskSpec, jm: Addr, reply_to: Addr },
            AssignAck = 12 {
                job: JobId,
                task: String,
                accepted: bool,
                reason: String,
                task_addr: Option<Addr>,
            },
            /// JM → TM: start a previously assigned task thread.
            StartTask = 13 {
                job: JobId,
                task: String,
                directory: HashMap<String, Addr>,
                client: Addr,
            },
            /// JM → TM: cancel an assigned (possibly running) task.
            CancelTask = 14 { job: JobId, task: String },
            /// Task thread → its own TaskManager: the task thread has exited and
            /// its bookkeeping entry can be dropped.
            TaskExited = 15 { job: JobId, task: String },

            // -- Task lifecycle (TM → JM, relayed to client) --------------------
            TaskStarted = 16 { job: JobId, task: String },
            TaskCompleted = 17 { job: JobId, task: String, result: UserData },
            TaskFailed = 18 { job: JobId, task: String, error: String },

            // -- Job completion (JM → client) ------------------------------------
            JobCompleted = 19 { job: JobId, results: Vec<(String, UserData)> },
            JobFailed = 20 { job: JobId, error: String },

            // -- User-defined messages (task ↔ task, task ↔ client) -------------
            User = 21 { job: JobId, from_task: String, tag: String, data: UserData },

            // Tag 22 is retired: it relayed a client's tuple to every
            // TaskManager's replica of the job's space, which the JobManager
            // now holds alone (tags 31–33). It decodes as `BadTag`.

            // -- Control ----------------------------------------------------------
            Shutdown = 23,

            // -- Load-aware scheduling (DESIGN.md §14) --------------------------
            /// TM → discovery group: a TaskManager's load signal. No server
            /// sends it; its row keeps the tag, and the codec benchmark's
            /// frame, in place.
            LoadReport = 24 { server: String, addr: Addr, signal: LoadSignal },

            // Tags 25–28 are retired: they were the four messages that moved
            // a queued task from one TaskManager to another, a protocol that
            // is gone (DESIGN.md §9, "Adding a message"). They decode as
            // `BadTag` and are never reused.

            // -- Burst creation (DESIGN.md §14, "Fair admission") ----------------
            /// Client → JM: create a job's tasks as one burst ("Create Tasks for
            /// the Job"). The JobManager places them in one round — one
            /// solicitation — and answers one `TaskAck` per spec, in burst order.
            /// `CreateTask` is the burst of one.
            CreateTasks = 29 { job: JobId, specs: Vec<TaskSpec>, reply_to: Addr },

            // -- Placement refusal (DESIGN.md §14, rule 5) -----------------------
            /// TM → JM: the answer to a `SolicitTaskManager` from a TaskManager
            /// whose whole node, `capacity_mb`, is smaller than the memory
            /// asked for — it can never host the task. It counts toward the
            /// bid window's quorum; a TaskManager that is only busy stays
            /// silent.
            Decline = 30 { job: JobId, task: String, capacity_mb: u64 },

            // -- The job's tuple space (task or client ↔ JM, DESIGN.md §5) -------
            /// Task or client → JM: deposit a tuple into the job's space.
            TupleOut = 31 { job: JobId, tuple: Vec<Field> },
            /// Task or client → JM: a copy (`take` false) or the removal of a
            /// tuple matching `pattern`. Nothing matching: the ask is parked,
            /// in place of the one `reply_to` left parked before.
            TupleAsk = 32 { job: JobId, pattern: Vec<Option<Field>>, take: bool, reply_to: Addr },
            /// JM → asker: the tuple that answers its ask.
            TupleGive = 33 { job: JobId, tuple: Vec<Field> },
        }
    };
}

/// Expands the table into the enum and the accessors that name its rows.
macro_rules! define_netmsg {
    ($(
        $(#[$meta:meta])*
        $name:ident = $tag:literal
        $({ $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)? })?
    ),* $(,)?) => {
        /// The well-defined CN protocol messages, generated from
        /// [`netmsg_table!`](crate::netmsg_table).
        #[derive(Debug, Clone, PartialEq)]
        pub enum NetMsg {
            $( $(#[$meta])* $name $({ $( $(#[$fmeta])* $field: $ty ),* })? ),*
        }

        impl NetMsg {
            /// Every variant's name, in table order.
            pub const KINDS: &'static [&'static str] = &[$(stringify!($name)),*];

            /// Short name for tracing/metrics.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( NetMsg::$name { .. } => stringify!($name) ),*
                }
            }
        }
    };
}
netmsg_table!(define_netmsg);

/// A user-visible message delivered to a task or the client, decoded from
/// [`NetMsg`] (the "Get Messages" surface of the CN API).
#[derive(Debug, Clone, PartialEq)]
pub enum CnMessage {
    /// User-defined message from another task (or the client, `from_task`
    /// = `"<client>"`).
    User {
        from_task: String,
        tag: String,
        data: UserData,
    },
    TaskStarted {
        task: String,
    },
    TaskCompleted {
        task: String,
        result: UserData,
    },
    TaskFailed {
        task: String,
        error: String,
    },
    JobCompleted {
        results: Vec<(String, UserData)>,
    },
    JobFailed {
        error: String,
    },
    Shutdown,
}

/// The pseudo-task name used when the *client* originates a user message.
pub const CLIENT_TASK_NAME: &str = "<client>";

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tuplespace::Field;

    /// One message of each kind a job endpoint may find in its queue, from
    /// task `a` of job 1, labelled for the receive tests of every role: a
    /// `User` tagged `t`, a lifecycle message, the two stop signals, a
    /// `TupleGive` no ask is waiting for, and a `User` of another tag.
    pub(crate) fn one_of_each() -> [(&'static str, NetMsg); 6] {
        let user = |tag: &str| NetMsg::User {
            job: JobId(1),
            from_task: "a".into(),
            tag: tag.into(),
            data: UserData::Empty,
        };
        [
            ("User", user("t")),
            ("TaskStarted", NetMsg::TaskStarted { job: JobId(1), task: "a".into() }),
            ("Shutdown", NetMsg::Shutdown),
            ("CancelTask", NetMsg::CancelTask { job: JobId(1), task: "b".into() }),
            ("stray TupleGive", NetMsg::TupleGive { job: JobId(1), tuple: vec![Field::I(1)] }),
            ("User of another tag", user("other")),
        ]
    }

    #[test]
    fn user_data_sizes() {
        assert_eq!(UserData::Empty.size_bytes(), 0);
        assert_eq!(UserData::Text("abc".into()).size_bytes(), 3);
        assert_eq!(UserData::I64s(vec![1, 2, 3]).size_bytes(), 24);
        assert_eq!(UserData::F64s(vec![1.0]).size_bytes(), 8);
        assert_eq!(UserData::Bytes(vec![0; 10]).size_bytes(), 10);
    }

    #[test]
    fn user_data_accessors() {
        assert_eq!(UserData::Text("x".into()).as_text(), Some("x"));
        assert_eq!(UserData::I64s(vec![5]).as_i64s(), Some(&[5][..]));
        assert_eq!(UserData::Text("x".into()).as_i64s(), None);
    }

    #[test]
    fn task_spec_from_cnx() {
        let doc = cn_cnx::ast::figure2_descriptor(3);
        let t = &doc.client.jobs[0].tasks[1];
        let spec = TaskSpec::from_cnx(t);
        assert_eq!(spec.name, "tctask1");
        assert_eq!(spec.jar, "tctask.jar");
        assert_eq!(spec.depends, vec!["tctask0"]);
        assert_eq!(spec.memory_mb, 1000);
        assert_eq!(spec.params.len(), 1);
    }

    #[test]
    fn kinds_are_stable() {
        let m = NetMsg::StartJob { job: JobId(1) };
        assert_eq!(m.kind(), "StartJob");
        assert_eq!(NetMsg::Shutdown.kind(), "Shutdown");
        assert_eq!((NetMsg::KINDS[0], NetMsg::KINDS[6]), ("SolicitJobManager", "StartJob"));
    }
}
