//! The registry of runtime concurrency surfaces under check.
//!
//! Each scenario is a closed multi-threaded exercise of *real* runtime
//! code — the same `PeerQueue`, `Network`, `MsgPump`, and `HeldSpace` the
//! production paths use — built only from `cn-sync` primitives so the
//! controlled scheduler owns every interleaving. Scenario bodies are
//! deliberately identical between clean and `mutations` builds: the cargo
//! feature swaps the *runtime* implementation underneath, and the same
//! scenario either survives exploration or yields a counterexample.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use cn_cluster::{Addr, Envelope, LatencyModel, Network, DISCOVERY_GROUP};
use cn_core::pump::MsgPump;
use cn_core::tuplespace::{exact, Field, HeldSpace, TupleSpace};
use cn_core::{JobId, NetMsg};
use cn_reactor::{Mailbox, NoopWaker, TimerWheel};
use cn_sync::thread;
use cn_wire::peer::{PeerQueue, PushOutcome};
use cn_wire::Frame;

/// One registered concurrency surface.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Registry name (`cnctl check --scenario <name>`).
    pub name: &'static str,
    /// One-line description for listings.
    pub about: &'static str,
    /// Whether a timed wait force-fired at quiescence is itself a hazard.
    /// Set for scenarios whose wakeups must all be delivered by notifies.
    pub fail_on_timeout_escape: bool,
    /// The scenario body, run once per explored schedule as model task 0.
    pub run: fn(),
}

/// Every registered scenario, in stable order.
pub fn all() -> &'static [Scenario] {
    &[
        Scenario {
            name: "wire.peer_queue",
            about:
                "socket fabric per-peer send queue: empty→non-empty edge rings the draining shard",
            fail_on_timeout_escape: true,
            run: peer_queue,
        },
        Scenario {
            name: "net.group_delivery",
            about: "simulated network group join racing a multicast",
            fail_on_timeout_escape: false,
            run: group_delivery,
        },
        Scenario {
            name: "core.server_drain",
            about: "CnServer pending-queue drain: a round's CreateTask sweep must keep the rest, in order",
            fail_on_timeout_escape: true,
            run: server_drain,
        },
        Scenario {
            name: "core.tuplespace",
            about: "JobManager's tuple space: parked takes racing the out that serves one of them",
            fail_on_timeout_escape: true,
            run: tuplespace,
        },
        Scenario {
            name: "reactor.shard_mailbox",
            about: "reactor shard command mailbox wakeup/shutdown + timer-wheel cancel",
            fail_on_timeout_escape: true,
            run: shard_mailbox,
        },
        Scenario {
            name: "portal.http_parser",
            about: "portal accept→parse→admit→respond handoff across segmented reads",
            fail_on_timeout_escape: true,
            run: portal_http_parser,
        },
        Scenario {
            name: "portal.journal_wake",
            about: "job board: a parked journal stream woken by the worker that completes or fails its job",
            fail_on_timeout_escape: true,
            run: portal_journal_wake,
        },
    ]
}

/// Look up a scenario by name.
pub fn find(name: &str) -> Option<Scenario> {
    all().iter().copied().find(|s| s.name == name)
}

/// Two senders enqueue frames on one [`PeerQueue`] the way
/// `SocketFabric::enqueue_frame` does — `push_frame`, then ring the shard
/// only when the push reports the empty→non-empty edge — while one shard
/// thread sleeps on its [`Mailbox`] (the eventfd's stand-in) and, once
/// rung, `try_take_batch`es until the queue reads empty. Every shard
/// wakeup must come from such a ring: the poll interval only bounds the
/// wait, so with `fail_on_timeout_escape` a schedule that leaves a frame
/// queued and the shard parked is a lost wakeup (the `mutations` build
/// inverts the `was_empty` report, so the push onto an empty queue is the
/// one that does not ring).
fn peer_queue() {
    const PRODUCERS: u64 = 2;
    const FRAMES_EACH: u64 = 2;
    let q = Arc::new(PeerQueue::new());
    let doorbell: Arc<Mailbox<()>> = Arc::new(Mailbox::new(Box::new(NoopWaker)));

    let shard = {
        let (q, doorbell) = (Arc::clone(&q), Arc::clone(&doorbell));
        thread::Builder::new()
            .name("shard".into())
            .spawn(move || {
                let mut rings = Vec::new();
                let mut inflight = VecDeque::new();
                while (inflight.len() as u64) < PRODUCERS * FRAMES_EACH {
                    let rung = doorbell.recv_batch(&mut rings, Duration::from_millis(50));
                    assert!(rung > 0, "doorbell stopped under the shard");
                    while q.try_take_batch(&mut inflight, 8, 1 << 20) > 0 {}
                }
                inflight.len() as u64
            })
            .expect("spawn shard")
    };

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let (q, doorbell) = (Arc::clone(&q), Arc::clone(&doorbell));
            thread::Builder::new()
                .name(format!("producer-{p}"))
                .spawn(move || {
                    for i in 0..FRAMES_EACH {
                        let frame = Frame::encode(Addr(p), Addr(100 + i), &Addr(i));
                        match q.push_frame(frame) {
                            PushOutcome::Queued { was_empty: true } => {
                                assert!(doorbell.push(()), "doorbell stopped during push");
                            }
                            PushOutcome::Queued { was_empty: false } => {}
                            PushOutcome::Dead => panic!("queue reported dead during push"),
                        }
                    }
                })
                .expect("spawn producer")
        })
        .collect();

    for p in producers {
        p.join().expect("producer");
    }
    assert_eq!(shard.join().expect("shard"), PRODUCERS * FRAMES_EACH);
}

/// A group join races a multicast to the same group on the simulated
/// network, whose endpoints and groups live in the [`cn_cluster::Endpoints`]
/// table the socket fabric delivers through too. Clean code snapshots
/// membership under the groups lock and delivers under the endpoints lock
/// with nothing else held; the `mutations` build nests the two locks in
/// opposite orders in the table's `join` and `members`, which is both a
/// lock-order cycle and, under the right schedule, a real deadlock.
fn group_delivery() {
    let net: Arc<Network<u32>> = Arc::new(Network::new(LatencyModel::zero(), 7));
    let (a, _rx_a) = net.register();
    let (b, rx_b) = net.register();
    let (c, _rx_c) = net.register();
    net.join_group(a, DISCOVERY_GROUP);
    net.join_group(b, DISCOVERY_GROUP);

    let caster = {
        let net = Arc::clone(&net);
        thread::Builder::new()
            .name("caster".into())
            .spawn(move || net.multicast(a, DISCOVERY_GROUP, 42))
            .expect("spawn caster")
    };
    // Races the multicast's membership snapshot / delivery.
    net.join_group(c, DISCOVERY_GROUP);

    let delivered = caster.join().expect("caster");
    assert!(delivered >= 1, "multicast reached no member");
    assert_eq!(rx_b.recv().expect("b alive").msg, 42);
}

/// The [`MsgPump`] invariant, racing the peer that is still sending: when a
/// placement round starts, `take_matching` pulls the `CreateTask`s that
/// have been delivered so far ahead of everything else, and a selective
/// receive (`next_matching`, what tasks and clients wait on) then picks the
/// lifecycle event out past a creation the sweep came too early for. What
/// either passes over must come out of `next()` afterwards, in arrival
/// order. The `mutations` build's sweep forgets what it passed over, so the
/// lifecycle event the peer sent *behind* its `CreateTask` is lost whenever
/// both were delivered before the round started — an assertion failure
/// under exactly those schedules.
fn server_drain() {
    const SENT: [&str; 3] = ["started", "create", "completed"];
    let (tx, rx) = cn_sync::channel::unbounded_named("check.server");
    let mut pump: MsgPump<&'static str> = MsgPump::new(rx);

    let sender = thread::Builder::new()
        .name("peer".into())
        .spawn(move || {
            for msg in SENT {
                tx.send(Envelope { from: Addr(1), to: Addr(0), msg }).expect("send");
            }
        })
        .expect("spawn sender");

    // The main loop's receive, then a round starting behind it.
    let mut seen = vec![pump.next().expect("peer alive").msg];
    let taken = pump.take_matching(|m| *m == "create");
    assert!(taken.iter().all(|env| env.msg == "create"), "drain took a non-matching envelope");
    let completed = pump.next_matching(None, |m| *m == "completed");
    seen.push(completed.expect("lifecycle event lost by the round's drain").msg);
    if taken.is_empty() {
        let passed_over = pump.next().expect("selective receive lost what it passed over");
        assert_eq!(passed_over.msg, "create", "selective receive reordered what it passed over");
    }
    assert_eq!(seen, ["started", "completed"], "drain reordered what it passed over");
    sender.join().expect("sender");
}

/// Two `take`s race the `out` that serves one of them to the JobManager
/// of their job, which meets them in arrival order from its queue and
/// answers from the job's [`HeldSpace`]. In every order the tuple is handed
/// out exactly once, to a taker, and the other taker's ask stays parked.
fn tuplespace() {
    let net: Arc<Network<NetMsg>> = Arc::new(Network::new(LatencyModel::zero(), 7));
    let (jm, jm_rx) = net.register();
    let job = JobId(1);
    let pattern = exact(&[Field::S("result".into()), Field::I(7)]);

    let takers: Vec<_> = ["taker-a", "taker-b"]
        .into_iter()
        .map(|name| {
            let (net, pattern) = (Arc::clone(&net), pattern.clone());
            thread::Builder::new()
                .name(name.into())
                .spawn(move || {
                    let (me, _rx) = net.register();
                    let ask = NetMsg::TupleAsk { job, pattern, take: true, reply_to: me };
                    net.send(me, jm, ask).expect("ask");
                    me
                })
                .expect("spawn taker")
        })
        .collect();
    let tuple = vec![Field::S("result".into()), Field::I(7)];
    net.send(jm, jm, NetMsg::TupleOut { job, tuple: tuple.clone() }).expect("out");

    let mut held = HeldSpace::new(TupleSpace::new());
    let mut pump = MsgPump::new(jm_rx);
    let mut gives = Vec::new();
    for _ in 0..3 {
        match pump.next().expect("network alive").msg {
            NetMsg::TupleOut { tuple, .. } => gives.extend(held.out(tuple)),
            NetMsg::TupleAsk { pattern, take, reply_to, .. } => {
                gives.extend(held.ask(pattern, take, reply_to).map(|t| (reply_to, t)))
            }
            other => panic!("the JobManager got {other:?}"),
        }
    }
    let takers: Vec<_> = takers.into_iter().map(|t| t.join().expect("taker")).collect();
    assert_eq!(gives.len(), 1, "the tuple was handed out {} times", gives.len());
    assert!(takers.contains(&gives[0].0), "handed to a non-taker");
    assert_eq!(gives[0].1, tuple);
    assert!(held.is_empty(), "a take left the tuple behind");
    assert_eq!(held.parked(), 1, "the other taker's ask was lost");
}

/// The reactor shard's command protocol with the epoll half removed: a
/// producer pushes arm/cancel/shutdown commands into the shard's
/// [`Mailbox`] (NoopWaker, so the condvar is the only wakeup) while the
/// shard thread drains batches and maintains its [`TimerWheel`]. Every
/// consumer wakeup must come from `push`/`stop`'s notify — the `mutations`
/// build elides exactly the empty→non-empty wake, which parks the shard
/// forever under the schedules that interleave that way (a lost wakeup,
/// surfaced by `fail_on_timeout_escape`). The wheel runs on abstract
/// ticks, so cancellation semantics are exercised deterministically: the
/// cancelled timer must never fire, the rest fire in deadline order.
fn shard_mailbox() {
    enum Cmd {
        Arm { delay: u64, tag: u64 },
        CancelPrev,
        Stop,
    }

    let mb: Arc<Mailbox<Cmd>> = Arc::new(Mailbox::new(Box::new(NoopWaker)));

    let shard = {
        let mb = Arc::clone(&mb);
        thread::Builder::new()
            .name("shard".into())
            .spawn(move || {
                let mut wheel = TimerWheel::new(16);
                let mut last = None;
                let mut batch = Vec::new();
                loop {
                    batch.clear();
                    if mb.recv_batch(&mut batch, Duration::from_millis(50)) == 0 {
                        break;
                    }
                    let mut stop = false;
                    for cmd in batch.drain(..) {
                        match cmd {
                            Cmd::Arm { delay, tag } => last = Some(wheel.insert(delay, 0, tag)),
                            Cmd::CancelPrev => {
                                let id = last.take().expect("cancel without a prior arm");
                                assert!(wheel.cancel(id), "armed timer vanished before cancel");
                            }
                            Cmd::Stop => stop = true,
                        }
                    }
                    if stop {
                        break;
                    }
                }
                // Drain the wheel past every armed deadline; what fires (and
                // in what order) is the scenario's observable result.
                let mut fired = Vec::new();
                wheel.advance(wheel.now() + 64, &mut fired);
                assert!(wheel.is_empty(), "wheel retained entries past the horizon");
                fired.iter().map(|e| e.tag).collect::<Vec<_>>()
            })
            .expect("spawn shard")
    };

    // Arm 1 and 2, cancel 2, arm 3, then shut down. FIFO order is the
    // mailbox's contract, so CancelPrev always names timer 2 regardless of
    // how pushes interleave with drains. Shutdown travels as a command —
    // not `Mailbox::stop`, whose unconditional notify would mask a lost
    // push wakeup — so every wake the shard gets comes from `push`'s
    // empty→non-empty edge, the exact edge the `mutations` build elides.
    assert!(mb.push(Cmd::Arm { delay: 5, tag: 1 }));
    assert!(mb.push(Cmd::Arm { delay: 10, tag: 2 }));
    assert!(mb.push(Cmd::CancelPrev));
    assert!(mb.push(Cmd::Arm { delay: 3, tag: 3 }));
    assert!(mb.push(Cmd::Stop));

    let fired = shard.join().expect("shard");
    assert_eq!(fired, vec![3, 1], "cancelled timer fired or deadline order broke");
}

/// The portal's front-door pipeline with the sockets removed: an "accept"
/// thread hands TCP segments of a pipelined two-POST byte stream to a
/// reader thread, which drives the incremental [`RequestParser`] and
/// admits each parsed request into the bounded [`Admission`] queue; a
/// responder thread drains the queue and records completion order. The
/// parser must reassemble both requests whatever the segmentation, and
/// every responder wakeup must come from `submit`'s notify — the
/// `mutations` build elides exactly the empty→non-empty wake (the one
/// that matters when the responder is parked), a lost wakeup surfaced by
/// `fail_on_timeout_escape`. FIFO admission is the ordering contract
/// pipelined HTTP responses lean on, so the recorded order is asserted
/// too.
fn portal_http_parser() {
    use cn_portal::{Admission, RequestParser};

    const REQUESTS: u64 = 2;
    let admission: Arc<Admission<u64>> = Arc::new(Admission::new(8, 8));

    // The wire bytes: two pipelined POSTs, pre-split mid-head and
    // mid-body the way a socket read may deliver them.
    let segments: Vec<&'static [u8]> = vec![
        b"POST /jobs HTT",
        b"P/1.1\r\ncontent-length: 5\r\n\r\nhel",
        b"lo",
        b"POST /jobs HTTP/1.1\r\ncontent-length: 2\r\n\r\n",
        b"ok",
    ];
    let (seg_tx, seg_rx) = cn_sync::channel::unbounded_named("check.portal.segments");

    let reader = {
        let admission = Arc::clone(&admission);
        thread::Builder::new()
            .name("reader".into())
            .spawn(move || {
                let mut parser = RequestParser::new(1 << 16);
                let mut seq = 0u64;
                while let Ok(segment) = seg_rx.recv() {
                    parser.feed(segment);
                    while let Some(req) = parser.next_request().expect("well-formed stream") {
                        assert_eq!(req.target, "/jobs");
                        admission.submit(1, seq).expect("admission has room");
                        seq += 1;
                    }
                }
                assert!(!parser.has_partial(), "bytes left mid-request at EOF");
                seq
            })
            .expect("spawn reader")
    };

    let responder = {
        let admission = Arc::clone(&admission);
        thread::Builder::new()
            .name("responder".into())
            .spawn(move || {
                let mut order = Vec::new();
                while order.len() < REQUESTS as usize {
                    if let Some((key, seq)) = admission.next(Duration::from_millis(50)) {
                        order.push(seq);
                        admission.finish(key);
                    }
                }
                order
            })
            .expect("spawn responder")
    };

    // The accept side: deliver each segment as its own "read".
    for segment in segments {
        seg_tx.send(segment).expect("reader alive");
    }
    drop(seg_tx);

    assert_eq!(reader.join().expect("reader"), REQUESTS, "parser lost a pipelined request");
    let order = responder.join().expect("responder");
    assert_eq!(order, vec![0, 1], "admission broke FIFO response order");
}

/// The journal stream's park with the reactor removed: a "connection"
/// asks the [`JobBoard`](cn_portal::JobBoard) for a journal with
/// `journal_or_wait`, and if the job has not finished waits for its wake
/// on a channel (the shard's `Reactor::notify` stand-in), while a "worker"
/// completes one job and fails another. The check and the registration
/// share the board lock, so whatever the interleaving the stream either
/// reads the journal at once or is woken exactly once after it is
/// published; with `fail_on_timeout_escape` a stream that only proceeds
/// because its wait was force-fired is a lost wakeup — what the
/// `mutations` build, whose `finish` drops its waiters unwoken, yields.
fn portal_journal_wake() {
    use cn_portal::JobBoard;

    let (wake_tx, wakes) = cn_sync::channel::unbounded_named("check.portal.wakes");
    let board = Arc::new(JobBoard::new(
        16,
        &cn_observe::Recorder::disabled(),
        Box::new(move |token| wake_tx.send(token).expect("connection alive")),
    ));
    let done = board.create();
    let failed = board.create();

    let worker = {
        let board = Arc::clone(&board);
        thread::Builder::new()
            .name("worker".into())
            .spawn(move || {
                board.mark_running(done);
                board.complete(done, "{}\n".to_string(), 1);
                board.mark_running(failed);
                board.fail(failed, "boom".to_string());
            })
            .expect("spawn worker")
    };

    // The connection streams both journals, one after the other, each
    // under its own token.
    for (token, id) in [(1, done), (2, failed)] {
        let journal = match board.journal_or_wait(id, token).expect("job on the board") {
            Some(journal) => journal,
            None => {
                let woken = wakes.recv_timeout(Duration::from_millis(50));
                assert_eq!(woken.expect("published journal never woke its stream"), token);
                let again = board.journal_or_wait(id, token).expect("job on the board");
                again.expect("woken before the journal was published")
            }
        };
        assert!(!journal.is_empty(), "empty journal for j-{id}");
    }
    worker.join().expect("worker");
    assert!(wakes.try_recv().is_err(), "a stream was woken twice");
}
