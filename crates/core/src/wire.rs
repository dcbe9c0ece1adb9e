//! Wire codec for the CN protocol vocabulary.
//!
//! Implements [`cn_wire::WireEncode`] for [`NetMsg`] and its component
//! types so a [`cn_wire::SocketFabric`] can carry the same protocol the
//! simulated fabric carries in-process. A [`NetMsg`] is the tag byte its
//! [`netmsg_table!`](crate::netmsg_table) row fixes, then that row's fields
//! in order, each through its type's impl; unknown tags and malformed
//! fields decode to typed [`WireError`]s, never panics (fuzzed in the
//! workspace proptest suite).

use std::collections::HashMap;

use cn_cluster::Addr;
use cn_cnx::{Param, ParamType};
use cn_wire::{Reader, WireEncode, WireError, WireErrorKind, Writer};

use crate::message::{Bid, JobId, JobRequirements, NetMsg, TaskSpec, UserData};
use crate::scheduler::LoadSignal;
use crate::tuplespace::Field;

/// `WireEncode` for a struct whose wire form is its fields, in the order
/// listed, each through its own type's impl.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl WireEncode for $ty {
            fn encode(&self, w: &mut Writer) {
                $( self.$field.encode(w); )*
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($ty { $( $field: WireEncode::decode(r)? ),* })
            }
        }
    };
}

impl WireEncode for JobId {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(JobId(r.get_u64()?))
    }
}

wire_struct!(JobRequirements { min_free_memory_mb, min_free_slots });
wire_struct!(LoadSignal { queue_depth, in_flight, ewma_dispatch_us });
wire_struct!(Bid { server, addr, load, free_memory_mb, free_slots, signal });

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
                v.encode(w);
            }
            UserData::F64s(v) => {
                w.put_u8(4);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(UserData::Empty),
            1 => Ok(UserData::Text(r.get_str()?)),
            2 => Ok(UserData::Bytes(r.get_bytes()?)),
            3 => Ok(UserData::I64s(Vec::decode(r)?)),
            4 => Ok(UserData::F64s(Vec::decode(r)?)),
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

/// Hand-written: `Param` is a `cn-cnx` type, so the orphan rule keeps it
/// out of the field-list form.
impl WireEncode for TaskSpec {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put_str(&self.jar);
        w.put_str(&self.class);
        self.depends.encode(w);
        w.put_u64(self.memory_mb);
        w.put_usize(self.params.len());
        for p in &self.params {
            put_param(w, p);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = r.get_str()?;
        let jar = r.get_str()?;
        let class = r.get_str()?;
        let depends = Vec::decode(r)?;
        let memory_mb = r.get_u64()?;
        let n = r.get_len()?;
        let mut params = Vec::with_capacity(n);
        for _ in 0..n {
            params.push(get_param(r)?);
        }
        Ok(TaskSpec { name, jar, class, depends, memory_mb, params })
    }
}

/// Expands [`netmsg_table!`](crate::netmsg_table) into the codec: a row's
/// tag byte, then its fields in table order, each through its type's impl.
macro_rules! impl_netmsg_wire {
    ($(
        $(#[$meta:meta])*
        $name:ident = $tag:literal
        $({ $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)? })?
    ),* $(,)?) => {
        impl WireEncode for NetMsg {
            fn encode(&self, w: &mut Writer) {
                match self {
                    $( NetMsg::$name $({ $($field),* })? => {
                        w.put_u8($tag);
                        $( $( $field.encode(w); )* )?
                    } )*
                }
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match r.get_u8()? {
                    $( $tag => NetMsg::$name $({ $( $field: <$ty>::decode(r)? ),* })?, )*
                    t => return Err(WireError::new(WireErrorKind::BadTag, format!("NetMsg tag {t}"))),
                })
            }
        }
    };
}
crate::netmsg_table!(impl_netmsg_wire);

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

    fn sample_spec() -> TaskSpec {
        let mut spec = TaskSpec::new("tctask1", "tctask.jar", "TCTask");
        spec.depends = vec!["tctask0".into()];
        spec.memory_mb = 1000;
        spec.params = vec![Param::integer(3), Param::string("graph.txt")];
        spec
    }

    /// One sample per table row round-trips, its payload bytes are the ones
    /// checked in as `tests/golden/netmsg_frames.hex` — the wire format,
    /// pinned (`REGENERATE_GOLDEN=1` rewrites the file) — and no prefix or
    /// extension of those bytes decodes.
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
            NetMsg::Shutdown,
            NetMsg::LoadReport {
                server: "node1".into(),
                addr: Addr(7),
                signal: LoadSignal { queue_depth: 9, in_flight: 1, ewma_dispatch_us: 12_345 },
            },
            NetMsg::CreateTasks {
                job: JobId(1),
                specs: vec![sample_spec(), TaskSpec::new("tctask999", "taskjoin.jar", "TaskJoin")],
                reply_to: Addr(9),
            },
            NetMsg::Decline { job: JobId(1), task: "t0".into(), capacity_mb: 512 },
            NetMsg::TupleOut {
                job: JobId(1),
                tuple: vec![
                    Field::S("adj".into()),
                    Field::I(-9),
                    Field::F(2.5),
                    Field::B(vec![1, 2]),
                ],
            },
            NetMsg::TupleAsk {
                job: JobId(1),
                pattern: vec![Some(Field::S("krow".into())), Some(Field::I(3)), None],
                take: true,
                reply_to: Addr(9),
            },
            NetMsg::TupleGive {
                job: JobId(1),
                tuple: vec![Field::S("krow".into()), Field::I(3), Field::B(vec![0, 255])],
            },
        ];
        let mut frames = String::new();
        let mut names = Vec::new();
        for msg in msgs {
            let name = msg.kind();
            names.push(name);
            let payload = round_trip(msg);
            // The corpus cut at every byte: each proper prefix is a typed
            // error (never `Ok`, never a panic), one byte more is trailing.
            for cut in 0..payload.len() {
                assert!(
                    decode_payload::<NetMsg>(&payload[..cut]).is_err(),
                    "{name} decoded from its first {cut} of {} bytes",
                    payload.len()
                );
            }
            let mut longer = payload.clone();
            longer.push(0);
            assert_eq!(
                decode_payload::<NetMsg>(&longer).unwrap_err().kind,
                WireErrorKind::TrailingBytes,
                "{name} plus one byte"
            );
            let hex: String = payload.iter().map(|b| format!("{b:02x}")).collect();
            frames.push_str(&format!("{name} {hex}\n"));
        }
        // One sample per table row, in table order (hence no duplicates).
        for kind in NetMsg::KINDS {
            assert!(names.contains(kind), "NetMsg::{kind} has no sample row in this test");
        }
        assert_eq!(names, NetMsg::KINDS, "samples follow the table's order");

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
    fn unknown_netmsg_tag_is_typed_error() {
        let mut r = Reader::new(&[200]);
        assert_eq!(NetMsg::decode(&mut r).unwrap_err().kind, WireErrorKind::BadTag);
    }

    /// Retired tags are not reused: a frame that carries work stealing's
    /// (25–28) or the tuple relay's (22), here with a `CancelTask`'s body,
    /// is refused by its tag.
    #[test]
    fn the_retired_stealing_tags_decode_as_bad_tag() {
        let body = encode_payload(&Envelope {
            from: Addr(11),
            to: Addr(22),
            msg: NetMsg::CancelTask { job: JobId(1), task: "t0".into() },
        });
        // The version byte, `from` and `to`, then the message's tag.
        let tag_at = 1 + 8 + 8;
        assert_eq!(body[tag_at], 14, "the CancelTask tag");
        for tag in [22, 25, 26, 27, 28] {
            let mut frame = body.clone();
            frame[tag_at] = tag;
            let err = decode_payload::<NetMsg>(&frame).unwrap_err();
            assert_eq!(err.kind, WireErrorKind::BadTag, "tag {tag}");
        }
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
