//! Wire codec for the CN protocol vocabulary.
//!
//! Implements [`cn_wire::WireEncode`] for [`NetMsg`] and its component
//! types so a [`cn_wire::SocketFabric`] can carry the same protocol the
//! simulated fabric carries in-process. Every variant has a fixed tag
//! byte; unknown tags and malformed fields decode to typed
//! [`WireError`]s, never panics (fuzzed in the workspace proptest suite).

use std::collections::HashMap;

use cn_cluster::Addr;
use cn_cnx::{Param, ParamType, RunModel};
use cn_wire::{Reader, WireEncode, WireError, WireErrorKind, Writer};

use crate::message::{Bid, JobId, JobRequirements, NetMsg, TaskSpec, UserData};
use crate::scheduler::LoadSignal;
use crate::tuplespace::Field;

impl WireEncode for JobId {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(JobId(r.get_u64()?))
    }
}

impl WireEncode for UserData {
    fn encode(&self, w: &mut Writer) {
        match self {
            UserData::Empty => w.put_u8(0),
            UserData::Text(s) => {
                w.put_u8(1);
                w.put_str(s);
            }
            UserData::Bytes(b) => {
                w.put_u8(2);
                w.put_bytes(b);
            }
            UserData::I64s(v) => {
                w.put_u8(3);
                w.put_usize(v.len());
                for x in v {
                    w.put_i64(*x);
                }
            }
            UserData::F64s(v) => {
                w.put_u8(4);
                w.put_usize(v.len());
                for x in v {
                    w.put_f64(*x);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(UserData::Empty),
            1 => Ok(UserData::Text(r.get_str()?)),
            2 => Ok(UserData::Bytes(r.get_bytes()?)),
            3 => {
                let n = r.get_len()?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.get_i64()?);
                }
                Ok(UserData::I64s(v))
            }
            4 => {
                let n = r.get_len()?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.get_f64()?);
                }
                Ok(UserData::F64s(v))
            }
            t => Err(WireError::new(WireErrorKind::BadTag, format!("UserData tag {t}"))),
        }
    }
}

impl WireEncode for Field {
    fn encode(&self, w: &mut Writer) {
        match self {
            Field::I(v) => {
                w.put_u8(0);
                w.put_i64(*v);
            }
            Field::F(v) => {
                w.put_u8(1);
                w.put_f64(*v);
            }
            Field::S(s) => {
                w.put_u8(2);
                w.put_str(s);
            }
            Field::B(b) => {
                w.put_u8(3);
                w.put_bytes(b);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Field::I(r.get_i64()?)),
            1 => Ok(Field::F(r.get_f64()?)),
            2 => Ok(Field::S(r.get_str()?)),
            3 => Ok(Field::B(r.get_bytes()?)),
            t => Err(WireError::new(WireErrorKind::BadTag, format!("Field tag {t}"))),
        }
    }
}

impl WireEncode for JobRequirements {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.min_free_memory_mb);
        w.put_usize(self.min_free_slots);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(JobRequirements {
            min_free_memory_mb: r.get_u64()?,
            min_free_slots: r.get_u32()? as usize,
        })
    }
}

impl WireEncode for LoadSignal {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.queue_depth);
        w.put_u32(self.in_flight);
        w.put_u64(self.ewma_dispatch_us);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LoadSignal {
            queue_depth: r.get_u32()?,
            in_flight: r.get_u32()?,
            ewma_dispatch_us: r.get_u64()?,
        })
    }
}

impl WireEncode for Bid {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.server);
        self.addr.encode(w);
        w.put_f64(self.load);
        w.put_u64(self.free_memory_mb);
        w.put_usize(self.free_slots);
        self.signal.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Bid {
            server: r.get_str()?,
            addr: Addr::decode(r)?,
            load: r.get_f64()?,
            free_memory_mb: r.get_u64()?,
            free_slots: r.get_u32()? as usize,
            signal: LoadSignal::decode(r)?,
        })
    }
}

/// `RunModel` on the wire: a tag byte (the CNX string forms are longer
/// and already validated at parse time).
fn put_runmodel(w: &mut Writer, rm: RunModel) {
    w.put_u8(match rm {
        RunModel::RunAsThreadInTm => 0,
        RunModel::RunAsProcess => 1,
    });
}

fn get_runmodel(r: &mut Reader<'_>) -> Result<RunModel, WireError> {
    match r.get_u8()? {
        0 => Ok(RunModel::RunAsThreadInTm),
        1 => Ok(RunModel::RunAsProcess),
        t => Err(WireError::new(WireErrorKind::BadTag, format!("RunModel tag {t}"))),
    }
}

/// `Param` on the wire: type name + value. Source spans are a parse-time
/// artifact and do not cross processes; decoded params carry synthetic
/// spans (`Param` equality already ignores spans).
fn put_param(w: &mut Writer, p: &Param) {
    w.put_str(p.ty.as_str());
    w.put_str(&p.value);
}

fn get_param(r: &mut Reader<'_>) -> Result<Param, WireError> {
    let ty = ParamType::parse(&r.get_str()?);
    let value = r.get_str()?;
    Ok(Param::new(ty, value))
}

impl WireEncode for TaskSpec {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put_str(&self.jar);
        w.put_str(&self.class);
        w.put_usize(self.depends.len());
        for d in &self.depends {
            w.put_str(d);
        }
        w.put_u64(self.memory_mb);
        put_runmodel(w, self.runmodel);
        w.put_usize(self.params.len());
        for p in &self.params {
            put_param(w, p);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = r.get_str()?;
        let jar = r.get_str()?;
        let class = r.get_str()?;
        let n = r.get_len()?;
        let mut depends = Vec::with_capacity(n);
        for _ in 0..n {
            depends.push(r.get_str()?);
        }
        let memory_mb = r.get_u64()?;
        let runmodel = get_runmodel(r)?;
        let n = r.get_len()?;
        let mut params = Vec::with_capacity(n);
        for _ in 0..n {
            params.push(get_param(r)?);
        }
        Ok(TaskSpec { name, jar, class, depends, memory_mb, runmodel, params })
    }
}

fn put_opt_addr(w: &mut Writer, a: &Option<Addr>) {
    match a {
        None => w.put_bool(false),
        Some(a) => {
            w.put_bool(true);
            a.encode(w);
        }
    }
}

fn get_opt_addr(r: &mut Reader<'_>) -> Result<Option<Addr>, WireError> {
    Ok(if r.get_bool()? { Some(Addr::decode(r)?) } else { None })
}

/// The task directory is encoded sorted by name so identical directories
/// produce identical bytes regardless of `HashMap` iteration order.
fn put_directory(w: &mut Writer, d: &HashMap<String, Addr>) {
    let mut entries: Vec<(&String, &Addr)> = d.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    w.put_usize(entries.len());
    for (name, addr) in entries {
        w.put_str(name);
        addr.encode(w);
    }
}

fn get_directory(r: &mut Reader<'_>) -> Result<HashMap<String, Addr>, WireError> {
    let n = r.get_len()?;
    let mut d = HashMap::with_capacity(n);
    for _ in 0..n {
        let name = r.get_str()?;
        let addr = Addr::decode(r)?;
        d.insert(name, addr);
    }
    Ok(d)
}

fn put_results(w: &mut Writer, results: &[(String, UserData)]) {
    w.put_usize(results.len());
    for (name, data) in results {
        w.put_str(name);
        data.encode(w);
    }
}

fn get_results(r: &mut Reader<'_>) -> Result<Vec<(String, UserData)>, WireError> {
    let n = r.get_len()?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.get_str()?;
        let data = UserData::decode(r)?;
        v.push((name, data));
    }
    Ok(v)
}

impl WireEncode for NetMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            NetMsg::SolicitJobManager { job, requirements, reply_to } => {
                w.put_u8(0);
                job.encode(w);
                requirements.encode(w);
                reply_to.encode(w);
            }
            NetMsg::JobManagerBid { job, bid } => {
                w.put_u8(1);
                job.encode(w);
                bid.encode(w);
            }
            NetMsg::CreateJob { job, client, reply_to } => {
                w.put_u8(2);
                job.encode(w);
                client.encode(w);
                reply_to.encode(w);
            }
            NetMsg::JobAck { job, accepted, reason } => {
                w.put_u8(3);
                job.encode(w);
                w.put_bool(*accepted);
                w.put_str(reason);
            }
            NetMsg::CreateTask { job, spec, reply_to } => {
                w.put_u8(4);
                job.encode(w);
                spec.encode(w);
                reply_to.encode(w);
            }
            NetMsg::TaskAck { job, task, accepted, reason, server, task_addr } => {
                w.put_u8(5);
                job.encode(w);
                w.put_str(task);
                w.put_bool(*accepted);
                w.put_str(reason);
                w.put_str(server);
                put_opt_addr(w, task_addr);
            }
            NetMsg::StartJob { job } => {
                w.put_u8(6);
                job.encode(w);
            }
            NetMsg::CancelJob { job } => {
                w.put_u8(7);
                job.encode(w);
            }
            NetMsg::SolicitTaskManager { job, task, memory_mb, reply_to } => {
                w.put_u8(8);
                job.encode(w);
                w.put_str(task);
                w.put_u64(*memory_mb);
                reply_to.encode(w);
            }
            NetMsg::TaskManagerBid { job, task, bid } => {
                w.put_u8(9);
                job.encode(w);
                w.put_str(task);
                bid.encode(w);
            }
            NetMsg::UploadArchive { jar, size_bytes } => {
                w.put_u8(10);
                w.put_str(jar);
                w.put_u64(*size_bytes);
            }
            NetMsg::AssignTask { job, spec, jm, reply_to } => {
                w.put_u8(11);
                job.encode(w);
                spec.encode(w);
                jm.encode(w);
                reply_to.encode(w);
            }
            NetMsg::AssignAck { job, task, accepted, reason, task_addr } => {
                w.put_u8(12);
                job.encode(w);
                w.put_str(task);
                w.put_bool(*accepted);
                w.put_str(reason);
                put_opt_addr(w, task_addr);
            }
            NetMsg::StartTask { job, task, directory, client } => {
                w.put_u8(13);
                job.encode(w);
                w.put_str(task);
                put_directory(w, directory);
                client.encode(w);
            }
            NetMsg::CancelTask { job, task } => {
                w.put_u8(14);
                job.encode(w);
                w.put_str(task);
            }
            NetMsg::TaskExited { job, task } => {
                w.put_u8(15);
                job.encode(w);
                w.put_str(task);
            }
            NetMsg::TaskStarted { job, task } => {
                w.put_u8(16);
                job.encode(w);
                w.put_str(task);
            }
            NetMsg::TaskCompleted { job, task, result } => {
                w.put_u8(17);
                job.encode(w);
                w.put_str(task);
                result.encode(w);
            }
            NetMsg::TaskFailed { job, task, error } => {
                w.put_u8(18);
                job.encode(w);
                w.put_str(task);
                w.put_str(error);
            }
            NetMsg::JobCompleted { job, results } => {
                w.put_u8(19);
                job.encode(w);
                put_results(w, results);
            }
            NetMsg::JobFailed { job, error } => {
                w.put_u8(20);
                job.encode(w);
                w.put_str(error);
            }
            NetMsg::User { job, from_task, tag, data } => {
                w.put_u8(21);
                job.encode(w);
                w.put_str(from_task);
                w.put_str(tag);
                data.encode(w);
            }
            NetMsg::SeedTuple { job, tuple } => {
                w.put_u8(22);
                job.encode(w);
                w.put_usize(tuple.len());
                for f in tuple {
                    f.encode(w);
                }
            }
            NetMsg::Shutdown => w.put_u8(23),
            NetMsg::LoadReport { server, addr, signal } => {
                w.put_u8(24);
                w.put_str(server);
                addr.encode(w);
                signal.encode(w);
            }
            NetMsg::StealRequest { thief, reply_to, endpoint } => {
                w.put_u8(25);
                w.put_str(thief);
                reply_to.encode(w);
                endpoint.encode(w);
            }
            NetMsg::StealGrant { job, spec, jm, client, directory, victim, old_endpoint } => {
                w.put_u8(26);
                job.encode(w);
                spec.encode(w);
                jm.encode(w);
                client.encode(w);
                put_directory(w, directory);
                w.put_str(victim);
                old_endpoint.encode(w);
            }
            NetMsg::StealReturn { job, task } => {
                w.put_u8(27);
                job.encode(w);
                w.put_str(task);
            }
            NetMsg::TaskMigrated { job, task, server, tm, task_addr } => {
                w.put_u8(28);
                job.encode(w);
                w.put_str(task);
                w.put_str(server);
                tm.encode(w);
                task_addr.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => NetMsg::SolicitJobManager {
                job: JobId::decode(r)?,
                requirements: JobRequirements::decode(r)?,
                reply_to: Addr::decode(r)?,
            },
            1 => NetMsg::JobManagerBid { job: JobId::decode(r)?, bid: Bid::decode(r)? },
            2 => NetMsg::CreateJob {
                job: JobId::decode(r)?,
                client: Addr::decode(r)?,
                reply_to: Addr::decode(r)?,
            },
            3 => NetMsg::JobAck {
                job: JobId::decode(r)?,
                accepted: r.get_bool()?,
                reason: r.get_str()?,
            },
            4 => NetMsg::CreateTask {
                job: JobId::decode(r)?,
                spec: TaskSpec::decode(r)?,
                reply_to: Addr::decode(r)?,
            },
            5 => NetMsg::TaskAck {
                job: JobId::decode(r)?,
                task: r.get_str()?,
                accepted: r.get_bool()?,
                reason: r.get_str()?,
                server: r.get_str()?,
                task_addr: get_opt_addr(r)?,
            },
            6 => NetMsg::StartJob { job: JobId::decode(r)? },
            7 => NetMsg::CancelJob { job: JobId::decode(r)? },
            8 => NetMsg::SolicitTaskManager {
                job: JobId::decode(r)?,
                task: r.get_str()?,
                memory_mb: r.get_u64()?,
                reply_to: Addr::decode(r)?,
            },
            9 => NetMsg::TaskManagerBid {
                job: JobId::decode(r)?,
                task: r.get_str()?,
                bid: Bid::decode(r)?,
            },
            10 => NetMsg::UploadArchive { jar: r.get_str()?, size_bytes: r.get_u64()? },
            11 => NetMsg::AssignTask {
                job: JobId::decode(r)?,
                spec: TaskSpec::decode(r)?,
                jm: Addr::decode(r)?,
                reply_to: Addr::decode(r)?,
            },
            12 => NetMsg::AssignAck {
                job: JobId::decode(r)?,
                task: r.get_str()?,
                accepted: r.get_bool()?,
                reason: r.get_str()?,
                task_addr: get_opt_addr(r)?,
            },
            13 => NetMsg::StartTask {
                job: JobId::decode(r)?,
                task: r.get_str()?,
                directory: get_directory(r)?,
                client: Addr::decode(r)?,
            },
            14 => NetMsg::CancelTask { job: JobId::decode(r)?, task: r.get_str()? },
            15 => NetMsg::TaskExited { job: JobId::decode(r)?, task: r.get_str()? },
            16 => NetMsg::TaskStarted { job: JobId::decode(r)?, task: r.get_str()? },
            17 => NetMsg::TaskCompleted {
                job: JobId::decode(r)?,
                task: r.get_str()?,
                result: UserData::decode(r)?,
            },
            18 => NetMsg::TaskFailed {
                job: JobId::decode(r)?,
                task: r.get_str()?,
                error: r.get_str()?,
            },
            19 => NetMsg::JobCompleted { job: JobId::decode(r)?, results: get_results(r)? },
            20 => NetMsg::JobFailed { job: JobId::decode(r)?, error: r.get_str()? },
            21 => NetMsg::User {
                job: JobId::decode(r)?,
                from_task: r.get_str()?,
                tag: r.get_str()?,
                data: UserData::decode(r)?,
            },
            22 => {
                let job = JobId::decode(r)?;
                let n = r.get_len()?;
                let mut tuple = Vec::with_capacity(n);
                for _ in 0..n {
                    tuple.push(Field::decode(r)?);
                }
                NetMsg::SeedTuple { job, tuple }
            }
            23 => NetMsg::Shutdown,
            24 => NetMsg::LoadReport {
                server: r.get_str()?,
                addr: Addr::decode(r)?,
                signal: LoadSignal::decode(r)?,
            },
            25 => NetMsg::StealRequest {
                thief: r.get_str()?,
                reply_to: Addr::decode(r)?,
                endpoint: Addr::decode(r)?,
            },
            26 => NetMsg::StealGrant {
                job: JobId::decode(r)?,
                spec: TaskSpec::decode(r)?,
                jm: Addr::decode(r)?,
                client: Addr::decode(r)?,
                directory: get_directory(r)?,
                victim: r.get_str()?,
                old_endpoint: Addr::decode(r)?,
            },
            27 => NetMsg::StealReturn { job: JobId::decode(r)?, task: r.get_str()? },
            28 => NetMsg::TaskMigrated {
                job: JobId::decode(r)?,
                task: r.get_str()?,
                server: r.get_str()?,
                tm: Addr::decode(r)?,
                task_addr: Addr::decode(r)?,
            },
            t => return Err(WireError::new(WireErrorKind::BadTag, format!("NetMsg tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_cluster::Envelope;
    use cn_wire::codec::{decode_payload, encode_payload};

    /// Round-trips `msg` in an envelope and returns the payload bytes.
    fn round_trip(msg: NetMsg) -> Vec<u8> {
        let env = Envelope { from: Addr(11), to: Addr(22), msg };
        let bytes = encode_payload(&env);
        let back: Envelope<NetMsg> = decode_payload(&bytes).expect("round trip");
        assert_eq!(back, env);
        bytes
    }

    /// Exhaustive on purpose: a new `NetMsg` variant does not compile until
    /// it is named here, and `every_variant_round_trips` then fails until
    /// its sample list has a row for it.
    fn variant_name(msg: &NetMsg) -> &'static str {
        match msg {
            NetMsg::SolicitJobManager { .. } => "SolicitJobManager",
            NetMsg::JobManagerBid { .. } => "JobManagerBid",
            NetMsg::CreateJob { .. } => "CreateJob",
            NetMsg::JobAck { .. } => "JobAck",
            NetMsg::CreateTask { .. } => "CreateTask",
            NetMsg::TaskAck { .. } => "TaskAck",
            NetMsg::StartJob { .. } => "StartJob",
            NetMsg::CancelJob { .. } => "CancelJob",
            NetMsg::SolicitTaskManager { .. } => "SolicitTaskManager",
            NetMsg::TaskManagerBid { .. } => "TaskManagerBid",
            NetMsg::UploadArchive { .. } => "UploadArchive",
            NetMsg::AssignTask { .. } => "AssignTask",
            NetMsg::AssignAck { .. } => "AssignAck",
            NetMsg::StartTask { .. } => "StartTask",
            NetMsg::CancelTask { .. } => "CancelTask",
            NetMsg::TaskExited { .. } => "TaskExited",
            NetMsg::TaskStarted { .. } => "TaskStarted",
            NetMsg::TaskCompleted { .. } => "TaskCompleted",
            NetMsg::TaskFailed { .. } => "TaskFailed",
            NetMsg::JobCompleted { .. } => "JobCompleted",
            NetMsg::JobFailed { .. } => "JobFailed",
            NetMsg::User { .. } => "User",
            NetMsg::SeedTuple { .. } => "SeedTuple",
            NetMsg::Shutdown => "Shutdown",
            NetMsg::LoadReport { .. } => "LoadReport",
            NetMsg::StealRequest { .. } => "StealRequest",
            NetMsg::StealGrant { .. } => "StealGrant",
            NetMsg::StealReturn { .. } => "StealReturn",
            NetMsg::TaskMigrated { .. } => "TaskMigrated",
        }
    }

    fn sample_spec() -> TaskSpec {
        let mut spec = TaskSpec::new("tctask1", "tctask.jar", "TCTask");
        spec.depends = vec!["tctask0".into()];
        spec.memory_mb = 1000;
        spec.params = vec![Param::integer(3), Param::string("graph.txt")];
        spec
    }

    /// One sample per variant round-trips, and its payload bytes are the
    /// ones checked in as `tests/golden/netmsg_frames.hex` — today's wire
    /// format, pinned (`REGENERATE_GOLDEN=1` rewrites the file).
    #[test]
    fn every_variant_round_trips() {
        let bid = Bid {
            server: "node0".into(),
            addr: Addr(42),
            load: 0.25,
            free_memory_mb: 4000,
            free_slots: 4,
            signal: LoadSignal { queue_depth: 3, in_flight: 2, ewma_dispatch_us: 750 },
        };
        let mut directory = HashMap::new();
        directory.insert("t0".to_string(), Addr(5));
        directory.insert("t1".to_string(), Addr(6));
        let steal_directory = directory.clone();
        let msgs = vec![
            NetMsg::SolicitJobManager {
                job: JobId(1),
                requirements: JobRequirements { min_free_memory_mb: 512, min_free_slots: 2 },
                reply_to: Addr(9),
            },
            NetMsg::JobManagerBid { job: JobId(1), bid: bid.clone() },
            NetMsg::CreateJob { job: JobId(1), client: Addr(9), reply_to: Addr(9) },
            NetMsg::JobAck { job: JobId(1), accepted: false, reason: "busy".into() },
            NetMsg::CreateTask { job: JobId(1), spec: sample_spec(), reply_to: Addr(9) },
            NetMsg::TaskAck {
                job: JobId(1),
                task: "t0".into(),
                accepted: true,
                reason: String::new(),
                server: "node0".into(),
                task_addr: Some(Addr(77)),
            },
            NetMsg::StartJob { job: JobId(1) },
            NetMsg::CancelJob { job: JobId(1) },
            NetMsg::SolicitTaskManager {
                job: JobId(1),
                task: "t0".into(),
                memory_mb: 1000,
                reply_to: Addr(3),
            },
            NetMsg::TaskManagerBid { job: JobId(1), task: "t0".into(), bid },
            NetMsg::UploadArchive { jar: "tctask.jar".into(), size_bytes: 4096 },
            NetMsg::AssignTask {
                job: JobId(1),
                spec: sample_spec(),
                jm: Addr(2),
                reply_to: Addr(2),
            },
            NetMsg::AssignAck {
                job: JobId(1),
                task: "t0".into(),
                accepted: false,
                reason: "full".into(),
                task_addr: None,
            },
            NetMsg::StartTask { job: JobId(1), task: "t0".into(), directory, client: Addr(9) },
            NetMsg::CancelTask { job: JobId(1), task: "t0".into() },
            NetMsg::TaskExited { job: JobId(1), task: "t0".into() },
            NetMsg::TaskStarted { job: JobId(1), task: "t0".into() },
            NetMsg::TaskCompleted {
                job: JobId(1),
                task: "t0".into(),
                result: UserData::I64s(vec![1, -2, 3]),
            },
            NetMsg::TaskFailed { job: JobId(1), task: "t0".into(), error: "kaboom".into() },
            NetMsg::JobCompleted {
                job: JobId(1),
                results: vec![
                    ("t0".into(), UserData::Text("done".into())),
                    ("t1".into(), UserData::F64s(vec![1.5])),
                ],
            },
            NetMsg::JobFailed { job: JobId(1), error: "cancelled".into() },
            NetMsg::User {
                job: JobId(1),
                from_task: "t0".into(),
                tag: "k-row".into(),
                data: UserData::Bytes(vec![0, 255, 7]),
            },
            NetMsg::SeedTuple {
                job: JobId(1),
                tuple: vec![
                    Field::S("adj".into()),
                    Field::I(-9),
                    Field::F(2.5),
                    Field::B(vec![1, 2]),
                ],
            },
            NetMsg::Shutdown,
            NetMsg::LoadReport {
                server: "node1".into(),
                addr: Addr(7),
                signal: LoadSignal { queue_depth: 9, in_flight: 1, ewma_dispatch_us: 12_345 },
            },
            NetMsg::StealRequest { thief: "node2".into(), reply_to: Addr(3), endpoint: Addr(88) },
            NetMsg::StealGrant {
                job: JobId(1),
                spec: sample_spec(),
                jm: Addr(2),
                client: Addr(9),
                directory: steal_directory,
                victim: "node0".into(),
                old_endpoint: Addr(77),
            },
            NetMsg::StealReturn { job: JobId(1), task: "t0".into() },
            NetMsg::TaskMigrated {
                job: JobId(1),
                task: "t0".into(),
                server: "node2".into(),
                tm: Addr(3),
                task_addr: Addr(88),
            },
        ];
        let mut frames = String::new();
        let mut names = std::collections::BTreeSet::new();
        for msg in msgs {
            let name = variant_name(&msg);
            assert!(names.insert(name), "two samples of {name}");
            let hex: String = round_trip(msg).iter().map(|b| format!("{b:02x}")).collect();
            frames.push_str(&format!("{name} {hex}\n"));
        }
        // Every tag the decoder knows has a sample (an unknown tag is the
        // only `BadTag`; a known one wants its fields, or is `Shutdown`).
        let known_tags = (0..=u8::MAX)
            .filter(|&t| {
                !matches!(NetMsg::decode(&mut Reader::new(&[t])), Err(e) if e.kind == WireErrorKind::BadTag)
            })
            .count();
        assert_eq!(names.len(), known_tags, "a NetMsg variant has no sample row");

        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/netmsg_frames.hex");
        if std::env::var_os("REGENERATE_GOLDEN").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &frames).unwrap();
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden {} ({e}); rerun with REGENERATE_GOLDEN=1", path.display())
        });
        assert_eq!(
            frames,
            golden,
            "wire bytes drifted from {}; rerun with REGENERATE_GOLDEN=1 if intended",
            path.display()
        );
    }

    #[test]
    fn directory_bytes_are_order_independent() {
        let mut w1 = Writer::new();
        let mut w2 = Writer::new();
        let mut d1 = HashMap::new();
        let mut d2 = HashMap::new();
        for i in 0..16 {
            d1.insert(format!("t{i}"), Addr(i));
        }
        for i in (0..16).rev() {
            d2.insert(format!("t{i}"), Addr(i));
        }
        put_directory(&mut w1, &d1);
        put_directory(&mut w2, &d2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn unknown_netmsg_tag_is_typed_error() {
        let mut r = Reader::new(&[200]);
        assert_eq!(NetMsg::decode(&mut r).unwrap_err().kind, WireErrorKind::BadTag);
    }

    #[test]
    fn params_survive_without_spans() {
        let mut w = Writer::new();
        let original = Param::new(ParamType::Other("custom".into()), "v");
        put_param(&mut w, &original);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = get_param(&mut r).unwrap();
        // Param equality ignores spans by design.
        assert_eq!(back, original);
        assert_eq!(back.ty.as_str(), "custom");
    }
}
