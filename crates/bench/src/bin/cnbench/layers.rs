//! Micro-timings of each layer on the workloads' own inputs, measured
//! from outside by timing public calls. Nothing here talks to the child
//! processes; what needs them is in `replay.rs`.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_cluster::{Addr, Envelope, GroupId, LatencyModel, Network};
use cn_core::message::Bid;
use cn_core::scheduler::{select_load_aware, RoundRobin};
use cn_core::{Field, JobId, LoadSignal, NetMsg, TaskSpec, TupleSpace, UserData};
use cn_observe::Recorder;
use cn_portal::http::{begin_chunked, finish_chunked, write_chunk};
use cn_portal::{Admission, ChunkedDecoder, JobRunner};
use cn_reactor::{Action, EventHandler, Reactor, ShardCtx, TimerWheel};
use cn_transform::xmi2cnx::ClientSettings;
use cn_wire::{Fabric as _, Frame, FrameDecoder, SocketFabric, WireConfig};

use crate::inputs::{self, Rng};
use crate::report::Layers;
use crate::stats::{sample, Timing};
use crate::workloads::nproc;

const WAIT: Duration = Duration::from_secs(10);

/// Seconds per call → a rate of `amount` per call.
fn rate(secs: Vec<f64>, amount: f64) -> Timing {
    Timing::of(&secs).map(|s| amount / s)
}

/// Seconds per call → `scale` units per call, each call doing `per` items.
fn per_item(secs: Vec<f64>, scale: f64, per: usize) -> Timing {
    Timing::of(&secs).map(|s| s * scale / per as f64)
}

const US: f64 = 1e6;
const MS: f64 = 1e3;
const NS: f64 = 1e9;

/// The raw bytes of the `POST /jobs` a client sends for `body`.
pub fn post_request(body: &[u8]) -> Vec<u8> {
    let mut out =
        format!("POST /jobs HTTP/1.1\r\nhost: cnbench\r\ncontent-length: {}\r\n\r\n", body.len())
            .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A journal as the portal streams it: chunked, 16 KiB per chunk.
pub fn chunked_journal(journal: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(journal.len() + 256);
    begin_chunked(&mut out, 200, "application/x-ndjson", true);
    for chunk in journal.chunks(16 * 1024) {
        write_chunk(&mut out, chunk);
    }
    finish_chunked(&mut out);
    out
}

/// Decode what `chunked_journal` wrote back into the journal's bytes.
pub fn decode_chunked(message: &[u8]) -> Result<Vec<u8>, String> {
    let head = message.windows(4).position(|w| w == b"\r\n\r\n").ok_or("no response head")? + 4;
    let mut decoder = ChunkedDecoder::new();
    let mut out = Vec::new();
    let used = decoder.advance(&message[head..], &mut out).map_err(|e| e.to_string())?;
    if !decoder.is_done() || head + used != message.len() {
        return Err("chunked stream did not end with the message".to_string());
    }
    Ok(out)
}

/// Every XPath expression (`select=`, `test=`) of the XMI→CNX stylesheet.
fn stylesheet_expressions() -> Vec<String> {
    let doc = cn_xml::parse(cn_transform::XMI2CNX_XSLT).expect("stylesheet is XML");
    doc.descendants(doc.document_node())
        .flat_map(|node| ["select", "test"].map(|a| doc.attr(node, a).map(str::to_string)))
        .flatten()
        .collect()
}

/// The mix of messages a job puts on the wire.
fn message_mix() -> Vec<NetMsg> {
    let signal = LoadSignal { queue_depth: 1, in_flight: 3, ewma_dispatch_us: 420 };
    let mut spec = TaskSpec::new("tctask7", "tc.jar", "org.cn.tc.TcWorker");
    spec.depends = vec!["tctask0".to_string()];
    vec![
        NetMsg::SolicitTaskManager {
            job: JobId(7),
            task: "tctask7".into(),
            memory_mb: 1000,
            reply_to: Addr(0x1234_0000_0001),
        },
        NetMsg::TaskManagerBid { job: JobId(7), task: "tctask7".into(), bid: bid(1, signal) },
        NetMsg::CreateTask { job: JobId(7), spec, reply_to: Addr(0x1234_0000_0002) },
        NetMsg::User {
            job: JobId(7),
            from_task: "tctask3".into(),
            tag: "row".into(),
            data: UserData::Bytes(vec![0xAB; 1024]),
        },
        NetMsg::LoadReport { server: "cn-4711".into(), addr: Addr(0x1234_0000_0003), signal },
    ]
}

fn bid(i: usize, signal: LoadSignal) -> Bid {
    Bid {
        server: format!("cn-{}", 4700 + i),
        addr: Addr(i as u64),
        load: 0.25,
        free_memory_mb: 8192,
        free_slots: 16,
        signal,
    }
}

fn user_msg(i: u64) -> NetMsg {
    let mut bytes = vec![0xAB; 64];
    bytes[..8].copy_from_slice(&i.to_le_bytes());
    NetMsg::User {
        job: JobId(1),
        from_task: "bench".into(),
        tag: "frame".into(),
        data: UserData::Bytes(bytes),
    }
}

fn fabric() -> Result<SocketFabric<NetMsg>, String> {
    SocketFabric::new(WireConfig::default(), Recorder::disabled())
        .map_err(|e| format!("fabric: {e}"))
}

/// Runs `on_notify` latency through a one-shard reactor.
struct WakeProbe(mpsc::Sender<Instant>);

impl EventHandler for WakeProbe {
    fn on_register(&mut self, _ctx: &mut ShardCtx<'_>) -> Action {
        Action::Continue
    }

    fn on_ready(&mut self, _ctx: &mut ShardCtx<'_>, _r: bool, _w: bool) -> Action {
        Action::Continue
    }

    fn on_notify(&mut self, _ctx: &mut ShardCtx<'_>) -> Action {
        let _ = self.0.send(Instant::now());
        Action::Continue
    }
}

/// Every micro-timing, each given about `budget` of wall time.
pub fn measure(seed: u64, budget: Duration) -> Result<Layers, String> {
    let mut l = Layers::default();
    let settings = ClientSettings::default();
    let fig3_xmi = inputs::xmi(inputs::FIG3_WORKERS);
    let wide_xmi = inputs::xmi(inputs::WIDE_WORKERS);
    let wide_doc = cn_xml::parse(&wide_xmi).map_err(|e| e.to_string())?;
    let mb = |bytes: usize| bytes as f64 / 1e6;

    // xml
    l.put(
        "xml.parse_mb_s",
        rate(sample(budget, 5, || black_box(cn_xml::parse(&wide_xmi))), mb(wide_xmi.len())),
    );
    let opts = cn_xml::WriteOptions::xmi();
    l.put(
        "xml.write_mb_s",
        rate(
            sample(budget, 5, || black_box(cn_xml::write_document(&wide_doc, &opts))),
            mb(wide_xmi.len()),
        ),
    );

    // xpath: parse every expression of the stylesheet; evaluate the ones
    // that stand on their own (no stylesheet variable) from the root.
    let sources = stylesheet_expressions();
    l.put(
        "xpath.parse_us",
        per_item(
            sample(budget, 5, || {
                sources.iter().for_each(|s| drop(black_box(cn_xpath::parse_expr(s))))
            }),
            US,
            1,
        ),
    );
    let root = wide_doc.document_node();
    let standalone: Vec<cn_xpath::Expr> = sources
        .iter()
        .filter_map(|s| cn_xpath::parse_expr(s).ok())
        .filter(|e| cn_xpath::Ctx::new(&wide_doc, root).eval(e).is_ok())
        .collect();
    if standalone.is_empty() {
        return Err("no stylesheet expression evaluates on its own".to_string());
    }
    l.put(
        "xpath.eval_us",
        per_item(
            sample(budget, 5, || {
                let ctx = cn_xpath::Ctx::new(&wide_doc, root)
                    .with_cache(Arc::new(cn_xpath::ScanCache::new()));
                standalone.iter().for_each(|e| drop(black_box(ctx.eval(e))));
            }),
            US,
            1,
        ),
    );

    // xslt
    l.put(
        "xslt.compile_ms",
        per_item(
            sample(budget, 5, || black_box(cn_xslt::Stylesheet::parse(cn_transform::XMI2CNX_XSLT))),
            MS,
            1,
        ),
    );
    let style = cn_xslt::compile_cached(cn_transform::XMI2CNX_XSLT).map_err(|e| e.to_string())?;
    let no_params = HashMap::new();
    l.put(
        "xslt.apply_ms",
        per_item(
            sample(budget, 5, || {
                black_box(cn_xslt::transform_with_params(&style, &wide_doc, &no_params))
            }),
            MS,
            1,
        ),
    );

    // transform
    l.put(
        "transform.native_wide_ms",
        per_item(
            sample(budget, 5, || black_box(cn_transform::xmi_to_cnx_native(&wide_xmi, &settings))),
            MS,
            1,
        ),
    );
    let mut rng = Rng::new(seed);
    let docs: Vec<String> = (0..32)
        .map(|_| {
            inputs::xmi(inputs::STORM_WORKERS.start() + rng.below(inputs::STORM_WORKERS.count()))
        })
        .collect();
    // Pool 1 against pool nproc: pn ÷ p1 is the batch pool's scaling.
    for (name, pool) in [("transform.batch_docs_s_p1", 1), ("transform.batch_docs_s_pn", nproc())] {
        let batch = cn_transform::BatchTransformer::xmi2cnx(pool).map_err(|e| e.to_string())?;
        let secs = sample(budget * 2, 3, || {
            assert!(batch.run_with_settings(&docs, &settings).iter().all(Result::is_ok));
        });
        l.put(name, rate(secs, docs.len() as f64));
    }

    // portal, in process
    let admission: Admission<u64> = Admission::new(256, 256);
    l.put(
        "portal.admission_ops_s",
        rate(
            sample(budget, 5, || {
                for key in 0..64u64 {
                    admission.submit(key % 4, key).expect("admitted");
                }
                let mut taken = 0;
                while taken < 64 {
                    let batch = admission.next_batch(8, Duration::ZERO);
                    taken += batch.len();
                    batch.iter().for_each(|(key, _)| admission.finish(*key));
                }
            }),
            64.0,
        ),
    );

    // reactor
    let mut wheel = TimerWheel::new(512);
    let mut fired = Vec::new();
    l.put(
        "reactor.wheel_ops_s",
        rate(
            sample(budget, 5, || {
                // 64 timers over the next 64 ticks, every other one
                // cancelled, the rest fired: 64 + 32 + 32 operations.
                let ids: Vec<_> = (0..64u64).map(|i| wheel.insert(1 + i, i, 0)).collect();
                ids.iter().step_by(2).for_each(|id| assert!(wheel.cancel(*id)));
                fired.clear();
                wheel.advance(wheel.now() + 64, &mut fired);
                assert_eq!(fired.len(), 32);
            }),
            128.0,
        ),
    );
    {
        let reactor = Reactor::new("cnbench", 1).map_err(|e| format!("reactor: {e}"))?;
        let (tx, rx) = mpsc::channel();
        let token = reactor.register_on(0, Box::new(WakeProbe(tx)));
        let wake = || -> f64 {
            let sent = Instant::now();
            reactor.notify(token);
            let ran = rx.recv_timeout(WAIT).expect("reactor handler ran");
            // Let the shard go back to sleep, so every sample is a wake.
            std::thread::sleep(Duration::from_micros(200));
            ran.saturating_duration_since(sent).as_secs_f64()
        };
        wake();
        let start = Instant::now();
        let mut secs = Vec::new();
        while secs.len() < 50 || start.elapsed() < budget {
            secs.push(wake());
        }
        l.put("reactor.mailbox_wake_us", per_item(secs, US, 1));
        reactor.shutdown();
    }

    // wire: codec
    let mix = message_mix();
    let (from, to) = (Addr(0x1234_0000_0009), Addr(0x4321_0000_0001));
    l.put(
        "wire.encode_ns",
        per_item(
            // Twenty rounds a sample: one encode is shorter than a clock read.
            sample(budget, 5, || {
                (0..20).for_each(|_| {
                    mix.iter().for_each(|m| drop(black_box(Frame::encode(from, to, m))))
                })
            }),
            NS,
            20 * mix.len(),
        ),
    );
    let frames: Vec<Frame> = mix.iter().map(|m| Frame::encode(from, to, m)).collect();
    l.put(
        "wire.decode_ns",
        per_item(
            sample(budget, 5, || {
                for f in frames.iter().cycle().take(20 * frames.len()) {
                    let decoded: Envelope<NetMsg> =
                        cn_wire::codec::decode_payload(f.payload()).expect("decodes");
                    black_box(decoded);
                }
            }),
            NS,
            20 * frames.len(),
        ),
    );
    let stream: Vec<u8> =
        frames.iter().cycle().take(400).flat_map(|f| f.bytes().iter().copied()).collect();
    l.put(
        "wire.frame_split_mb_s",
        rate(
            sample(budget, 5, || {
                let mut decoder = FrameDecoder::new();
                let mut payloads = 0;
                // 1448 bytes: what one loopback-sized TCP segment carries.
                for segment in stream.chunks(1448) {
                    decoder.feed(segment);
                    while let Ok(Some(_)) = decoder.next_payload() {
                        payloads += 1;
                    }
                }
                assert_eq!(payloads, 400);
            }),
            mb(stream.len()),
        ),
    );

    // wire: two fabrics in this process over loopback TCP.
    {
        let (a, b) = (fabric()?, fabric()?);
        let (addr_a, rx_a) = a.register();
        let (addr_b, rx_b) = b.register();
        let burst = |n: u64| -> Result<f64, String> {
            let t = Instant::now();
            for i in 0..n {
                a.send(addr_a, addr_b, user_msg(i)).map_err(|e| format!("burst send: {e:?}"))?;
            }
            for _ in 0..n {
                rx_b.recv_timeout(WAIT).map_err(|_| "burst: message lost")?;
            }
            Ok(t.elapsed().as_secs_f64())
        };
        burst(64)?;
        let start = Instant::now();
        let mut secs = Vec::new();
        while secs.len() < 3 || start.elapsed() < budget * 2 {
            secs.push(burst(20_000)?);
        }
        l.put("wire.burst_msgs_s", rate(secs, 20_000.0));
        let start = Instant::now();
        let mut secs = Vec::new();
        while secs.len() < 50 || start.elapsed() < budget {
            let t = Instant::now();
            a.send(addr_a, addr_b, user_msg(0)).map_err(|e| format!("ping: {e:?}"))?;
            let ping = rx_b.recv_timeout(WAIT).map_err(|_| "ping lost")?;
            b.send(addr_b, ping.from, ping.msg).map_err(|e| format!("pong: {e:?}"))?;
            rx_a.recv_timeout(WAIT).map_err(|_| "pong lost")?;
            secs.push(t.elapsed().as_secs_f64());
        }
        l.put("wire.rtt_us", per_item(secs, US, 1));
        a.shutdown();
        b.shutdown();
    }
    {
        // What `WireRunner` pays once per job: a fresh fabric and the
        // first frame to each of three peers.
        let peers: Vec<SocketFabric<NetMsg>> =
            (0..3).map(|_| fabric()).collect::<Result<_, _>>()?;
        let ends: Vec<_> = peers.iter().map(|p| p.register()).collect();
        let connect = || -> Result<f64, String> {
            let t = Instant::now();
            let client = fabric()?;
            let (me, _rx) = client.register();
            for (addr, _) in &ends {
                client.send(me, *addr, user_msg(0)).map_err(|e| format!("connect: {e:?}"))?;
            }
            for (_, rx) in &ends {
                rx.recv_timeout(WAIT).map_err(|_| "first frame lost")?;
            }
            let took = t.elapsed().as_secs_f64();
            client.shutdown();
            Ok(took)
        };
        connect()?;
        let start = Instant::now();
        let mut secs = Vec::new();
        while secs.len() < 10 || start.elapsed() < budget {
            secs.push(connect()?);
        }
        l.put("wire.connect_ms", per_item(secs, MS, 1));
        peers.iter().for_each(SocketFabric::shutdown);
    }

    // cluster: the simulated network, zero latency model.
    {
        let net: Network<u64> = Network::new(LatencyModel::zero(), seed);
        let (a, _rx_a) = net.register();
        let (b, rx_b) = net.register();
        l.put(
            "cluster.net_msgs_s",
            rate(
                sample(budget, 5, || {
                    for i in 0..1000 {
                        net.send(a, b, i).expect("sim send");
                    }
                    for _ in 0..1000 {
                        rx_b.try_recv().expect("sim delivery is immediate");
                    }
                }),
                1000.0,
            ),
        );
        let group = GroupId(9);
        let members: Vec<_> = (0..8).map(|_| net.register()).collect();
        members.iter().for_each(|(addr, _)| net.join_group(*addr, group));
        l.put(
            "cluster.multicast_us",
            per_item(
                sample(budget, 5, || {
                    assert_eq!(net.multicast(a, group, 1), 8);
                    members.iter().for_each(|(_, rx)| drop(rx.try_recv()));
                }),
                US,
                1,
            ),
        );
    }

    // core
    for (name, workers) in [
        ("core.run_sim_fig3_ms", inputs::FIG3_WORKERS),
        ("core.run_sim_wide_ms", inputs::WIDE_WORKERS),
    ] {
        let job = inputs::compile(inputs::xmi(workers).as_bytes())?;
        let runner = inputs::sim_runner(seed);
        let secs = sample(budget * 2, 5, || assert!(runner.run(&job).is_ok()));
        l.put(name, per_item(secs, MS, 1));
    }
    // One bid per server of the wire workloads' cluster.
    let bids: Vec<Bid> = (0..3).map(|i| bid(i, LoadSignal::default())).collect();
    let mut rr = RoundRobin::new();
    let secs = sample(budget, 5, || {
        for _ in 0..100 {
            assert!(select_load_aware(&mut rr, &bids).is_some());
        }
    });
    l.put("core.sched_select_ns", per_item(secs, NS, 100));
    let space = TupleSpace::new();
    let pattern = vec![Some(Field::S("k".into())), None];
    l.put(
        "core.tuplespace_ops_s",
        rate(
            sample(budget, 5, || {
                for i in 0..500 {
                    space.out(vec![Field::S("k".into()), Field::I(i)]);
                }
                for _ in 0..500 {
                    space.try_in(&pattern).expect("tuple present");
                }
            }),
            1000.0,
        ),
    );

    // tasks
    let matrix = cn_tasks::random_digraph(16, 0.25, 1..9, seed);
    l.put(
        "tasks.floyd16_us",
        per_item(sample(budget, 5, || black_box(cn_tasks::floyd_sequential(&matrix))), US, 1),
    );

    // observe
    let rec = Recorder::new();
    l.put(
        "observe.span_ns",
        per_item(
            sample(budget, 5, || {
                for _ in 0..100 {
                    rec.span_end(rec.span_start("bench", "span", None));
                }
            }),
            NS,
            100,
        ),
    );
    let counter = rec.counter("bench.counter");
    l.put(
        "observe.counter_ns",
        per_item(sample(budget, 5, || (0..1000).for_each(|_| counter.inc())), NS, 1000),
    );
    let fig3_rec = inputs::sim_recorder(&inputs::compile(fig3_xmi.as_bytes())?, seed)?;
    l.put(
        "observe.journal_export_us",
        per_item(
            sample(budget, 5, || {
                black_box(cn_observe::journal_jsonl_filtered(&fig3_rec, &["wire"]))
            }),
            US,
            1,
        ),
    );
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_journal_round_trips_through_the_portals_decoder() {
        let journal = inputs::canned_journal();
        let message = chunked_journal(journal.as_bytes());
        assert!(message.starts_with(b"HTTP/1.1 200"));
        assert_eq!(decode_chunked(&message), Ok(journal.clone().into_bytes()));
        // The benchmark's own reader and the portal's decoder agree.
        let (response, used) = crate::http::parse_response(&message).unwrap().unwrap();
        assert_eq!((response.body, used), (journal.into_bytes(), message.len()));
        assert!(decode_chunked(&message[..message.len() - 1]).is_err());
    }

    #[test]
    fn post_request_parses_back_to_its_body() {
        let mut parser = cn_portal::RequestParser::new(1 << 20);
        parser.feed(&post_request(b"<XMI/>"));
        let request = parser.next_request().unwrap().unwrap();
        assert_eq!((request.method.as_str(), request.target.as_str()), ("POST", "/jobs"));
        assert_eq!(request.body, b"<XMI/>");
    }

    #[test]
    fn the_stylesheet_has_expressions_and_the_mix_round_trips() {
        let sources = stylesheet_expressions();
        assert!(sources.len() > 20, "{}", sources.len());
        assert!(sources.iter().all(|s| cn_xpath::parse_expr(s).is_ok()));
        for msg in message_mix() {
            let frame = Frame::encode(Addr(1), Addr(2), &msg);
            let back: Envelope<NetMsg> = cn_wire::codec::decode_payload(frame.payload()).unwrap();
            assert_eq!(back.msg, msg);
        }
    }
}
