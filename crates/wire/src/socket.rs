//! The `std::net` fabric: TCP unicast + UDP discovery over localhost,
//! driven by the `cn-reactor` sharded event loop.
//!
//! One [`SocketFabric`] per OS process. Every endpoint registered on it
//! shares the process's TCP listener; the listener port is encoded in the
//! high bits of each [`Addr`], which is what routes a message to the right
//! process. Unicast frames travel over one length-prefixed TCP connection
//! per peer. Multicast (the CN discovery group) travels as UDP datagrams —
//! either to a real multicast group or, in loopback mode, unicast to each
//! configured peer port.
//!
//! There are no per-connection threads. Each peer connection is an
//! [`EventHandler`] state machine (connecting → backoff → established)
//! pinned to one reactor shard. A frame reaches it one way: it is queued
//! on the connection's [`PeerQueue`] whatever the phase (`post` returns
//! there, `send` then waits for the connect's verdict), ringing the
//! shard's eventfd only on the empty→non-empty edge, and the shard
//! flushes whatever accumulated with one vectored `writev` — batching
//! emerges from backpressure, and the shard's single-threaded drain
//! preserves per-peer order. Inbound streams come from the reactor's
//! acceptor ([`Reactor::listen`]) and their budgeted reads
//! ([`read_budgeted`]) feed the shared [`FrameDecoder`]. Connect
//! timeouts, bounded exponential backoff, and mid-frame read deadlines
//! all ride the shard's timer wheel.
//!
//! Faults are first-class: every drop, timeout and reconnect lands in the
//! flight recorder with a `wire.*` counter. A connect cycle that fails
//! counts every frame queued on it, posted or sent, in `wire.drops`.

use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Write};
use std::net::{Ipv4Addr, SocketAddrV4, TcpListener, TcpStream, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use cn_cluster::{Addr, Endpoints, Envelope, GroupId, SendError};
use cn_observe::{Counter, Recorder, Severity, SpanId};
use cn_reactor::{
    read_budgeted, sys, Action, EventHandler, Reactor, ReadOutcome, ShardCtx, TimerId, Token,
    MAX_READS_PER_WAKE,
};
use cn_sync::channel::Receiver;
use cn_sync::{Condvar, Mutex};

use crate::codec::{
    decode_payload, encode_payload_into, with_scratch, Frame, FrameDecoder, WireEncode,
};
use crate::peer::{PeerQueue, PushOutcome};
use crate::{addr_group, addr_port, group_addr, is_group_addr, Fabric, ADDR_PORT_SHIFT};

/// How the discovery group reaches other processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Discovery {
    /// Real UDP multicast: every process joins `group:port` (with
    /// `SO_REUSEADDR` so they can share the port on one host).
    Multicast { group: Ipv4Addr, port: u16 },
    /// Loopback fallback: discovery datagrams are unicast to each peer's
    /// port on 127.0.0.1 (the peer list is the deployment's "subnet").
    Loopback { peers: Vec<u16> },
}

/// The default multicast group for CN discovery (site-local scope).
pub const DEFAULT_MULTICAST_GROUP: Ipv4Addr = Ipv4Addr::new(239, 77, 7, 7);
/// The default UDP port the discovery group shares in multicast mode.
pub const DEFAULT_MULTICAST_PORT: u16 = 47077;

/// Socket fabric tuning.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// TCP listen port (0 picks an ephemeral port).
    pub port: u16,
    pub discovery: Discovery,
    /// Coalesce writes per peer: sends enqueue on the connection's queue
    /// and the reactor packs whatever accumulated while the previous
    /// flush was in flight into one `writev`. Off, every frame is its own
    /// write syscall.
    pub batch: bool,
    /// Reactor event-loop threads; peers hash to a shard. 0 means one per
    /// available core (capped — see [`cn_reactor::default_shards`]).
    pub reactor_shards: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            port: 0,
            discovery: Discovery::Loopback { peers: Vec::new() },
            batch: true,
            reactor_shards: 0,
        }
    }
}

/// TCP connect timeout per attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Extra connect attempts after the first fails.
const MAX_RETRIES: u32 = 3;
/// Backoff before retry N is `RETRY_BASE * 2^(N-1)`, capped at [`MAX_BACKOFF`].
const RETRY_BASE: Duration = Duration::from_millis(50);
/// Deadline for reading the rest of a frame once its header arrived.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Most frames a single coalesced flush may carry.
const BATCH_MAX_FRAMES: usize = 128;
/// Soft byte cap per coalesced flush (a single frame may exceed it).
const BATCH_MAX_BYTES: usize = 256 * 1024;
/// How often waiting senders re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// Backoff cap between connect retries.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// Draws an ephemeral listener port gets before `AddrInUse` on its UDP twin
/// is reported (see [`bind_port_pair`]).
const EPHEMERAL_BIND_ATTEMPTS: usize = 8;

/// Timer tags for the peer connection state machine.
const TAG_CONNECT: u64 = 1;
const TAG_BACKOFF: u64 = 2;
const TAG_READ_DEADLINE: u64 = 3;

struct WireCounters {
    frames_sent: Counter,
    frames_recv: Counter,
    bytes_sent: Counter,
    bytes_recv: Counter,
    connects: Counter,
    reconnects: Counter,
    retries: Counter,
    timeouts: Counter,
    drops: Counter,
    decode_errors: Counter,
    discovery_dgrams: Counter,
    batch_flushes: Counter,
    batch_frames: Counter,
    batch_bytes: Counter,
}

impl WireCounters {
    fn new(rec: &Recorder) -> WireCounters {
        WireCounters {
            frames_sent: rec.counter("wire.frames_sent"),
            frames_recv: rec.counter("wire.frames_recv"),
            bytes_sent: rec.counter("wire.bytes_sent"),
            bytes_recv: rec.counter("wire.bytes_recv"),
            connects: rec.counter("wire.connects"),
            reconnects: rec.counter("wire.reconnects"),
            retries: rec.counter("wire.connect_retries"),
            timeouts: rec.counter("wire.timeouts"),
            drops: rec.counter("wire.drops"),
            decode_errors: rec.counter("wire.decode_errors"),
            discovery_dgrams: rec.counter("wire.discovery_dgrams"),
            batch_flushes: rec.counter("wire.batch.flushes"),
            batch_frames: rec.counter("wire.batch.frames"),
            batch_bytes: rec.counter("wire.batch.bytes"),
        }
    }
}

/// The sender-visible lifecycle of one outbound connection.
enum LinkPhase {
    /// The reactor is driving the connect/retry state machine; frames
    /// queue, and a `send` waits on the link condvar until it resolves.
    Connecting,
    /// Established: enqueue on the queue, notify the reactor token.
    Up,
    /// The connect cycle exhausted its retries. Terminal; the entry is
    /// already out of the connection map. Holds the typed error a waiting
    /// `send` returns.
    Failed(fn(Addr) -> SendError),
}

struct LinkState {
    phase: LinkPhase,
    /// Reactor token of the connection's handler, set at registration.
    token: Token,
    span: Option<SpanId>,
}

/// One outbound peer connection as the send paths see it: the shared
/// frame queue plus the phase gate senders wait on. The reactor-side
/// state machine lives in [`PeerHandler`].
struct PeerLink {
    port: u16,
    q: PeerQueue,
    state: Mutex<LinkState>,
    cv: Condvar,
}

impl PeerLink {
    fn new(port: u16) -> PeerLink {
        PeerLink {
            port,
            q: PeerQueue::new(),
            state: Mutex::named(
                "wire.link",
                LinkState { phase: LinkPhase::Connecting, token: 0, span: None },
            ),
            cv: Condvar::named("wire.link_cv"),
        }
    }
}

struct Inner<M> {
    port: u16,
    cfg: WireConfig,
    rec: Recorder,
    c: WireCounters,
    /// This process's endpoints: local sends and every frame or datagram
    /// that arrives are delivered through it.
    table: Endpoints<M>,
    /// Outbound connections, one per peer port. Each peer's frames drain
    /// on a single reactor shard in FIFO order — that is the per-peer
    /// ordering guarantee.
    /// A new link is installed while this is held, so two senders racing
    /// to the same peer share one stream and their frames keep its order.
    conns: Mutex<HashMap<u16, Arc<PeerLink>>>,
    reactor: Reactor,
    /// Blocking discovery send socket (the nonblocking receive socket
    /// lives on the reactor).
    udp_send: UdpSocket,
    stop: AtomicBool,
}

/// A real-socket [`Fabric`]. One per process; see the module docs.
pub struct SocketFabric<M: WireEncode + Send + Clone + 'static> {
    inner: Arc<Inner<M>>,
}

impl<M: WireEncode + Send + Clone + 'static> SocketFabric<M> {
    /// Bind the TCP listener and discovery sockets and start the reactor
    /// shards that drive them.
    pub fn new(cfg: WireConfig, rec: Recorder) -> std::io::Result<SocketFabric<M>> {
        let bind_listener = || TcpListener::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, cfg.port));
        let (listener, udp_recv, udp_send) = match &cfg.discovery {
            Discovery::Multicast { group, port: mc_port } => {
                let recv = sys::bind_reuse(*mc_port).or_else(|_| {
                    UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, *mc_port))
                })?;
                recv.join_multicast_v4(group, &Ipv4Addr::UNSPECIFIED)?;
                let send = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0))?;
                // Loop our own datagrams back so other processes on this
                // host (the whole localhost-cluster use case) hear us.
                send.set_multicast_loop_v4(true)?;
                (bind_listener()?, recv, send)
            }
            // Loopback mode: the discovery socket shares the TCP port
            // number (different protocol, so no clash) — peers only need
            // to know one port per process. A port the caller fixed gets
            // one try and fails loudly.
            Discovery::Loopback { .. } => {
                let attempts = if cfg.port == 0 { EPHEMERAL_BIND_ATTEMPTS } else { 1 };
                let (listener, recv) = bind_port_pair(attempts, bind_listener)?;
                (listener, recv, UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))?)
            }
        };
        let port = listener.local_addr()?.port();
        udp_recv.set_nonblocking(true)?;
        let reactor = Reactor::new(&format!("wire-{port}"), cfg.reactor_shards)?;
        let inner = Arc::new(Inner {
            port,
            c: WireCounters::new(&rec),
            rec,
            cfg,
            table: Endpoints::starting_at((port as u64) << ADDR_PORT_SHIFT, first_endpoint_id()),
            conns: Mutex::named("wire.conns", HashMap::new()),
            reactor,
            udp_send,
            stop: AtomicBool::new(false),
        });
        let to_inbound = Arc::clone(&inner);
        inner.reactor.listen(listener, move |stream, _peer| {
            Box::new(InboundHandler {
                inner: Arc::clone(&to_inbound),
                stream,
                dec: FrameDecoder::new(),
                read_timer: None,
            })
        })?;
        inner
            .reactor
            .register_on(0, Box::new(UdpHandler { inner: Arc::clone(&inner), udp: udp_recv }));
        Ok(SocketFabric { inner })
    }

    /// The bound TCP port (with [`first_endpoint_id`], the process's
    /// identity on the wire).
    pub fn port(&self) -> u16 {
        self.inner.port
    }

    /// Reactor shards driving this fabric's sockets.
    pub fn reactor_shards(&self) -> usize {
        self.inner.reactor.shards()
    }

    /// Stop the reactor and close all connections. Idempotent; also
    /// invoked when the fabric is dropped.
    pub fn shutdown(&self) {
        if self.inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let links: Vec<Arc<PeerLink>> = self.inner.conns.lock().drain().map(|(_, l)| l).collect();
        for link in links {
            link.q.kill();
            let mut st = link.state.lock();
            self.inner.rec.span_end(st.span.take());
            if matches!(st.phase, LinkPhase::Connecting) {
                st.phase = LinkPhase::Failed(SendError::ConnectFailed);
            }
            drop(st);
            link.cv.notify_all();
        }
        // Joins the shard threads; every handler's `on_close` drops its
        // socket, which is what stops the listener accepting and resets
        // established connections.
        self.inner.reactor.shutdown();
    }
}

impl<M: WireEncode + Send + Clone + 'static> Drop for SocketFabric<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<M: WireEncode + Send + Clone + 'static> Fabric<M> for SocketFabric<M> {
    fn register(&self) -> (Addr, Receiver<Envelope<M>>) {
        self.inner.table.register()
    }

    fn unregister(&self, addr: Addr) {
        self.inner.table.unregister(addr)
    }

    fn join_group(&self, addr: Addr, group: GroupId) {
        self.inner.table.join(addr, group)
    }

    fn send(&self, from: Addr, to: Addr, msg: M) -> Result<(), SendError> {
        if is_group_addr(to) {
            self.inner.do_multicast(from, addr_group(to), msg);
            return Ok(());
        }
        if addr_port(to) == self.inner.port {
            return self.inner.table.deliver(Envelope { from, to, msg });
        }
        self.inner.send_frame(to, Frame::encode(from, to, &msg))
    }

    fn send_many(&self, from: Addr, tos: &[Addr], msg: M) -> Result<usize, SendError> {
        let inner = &self.inner;
        let mut remote: Vec<Addr> = Vec::new();
        let mut local: Vec<Addr> = Vec::new();
        for &to in tos {
            if is_group_addr(to) {
                // Groups have their own encode-once path.
                inner.do_multicast(from, addr_group(to), msg.clone());
            } else if addr_port(to) == inner.port {
                local.push(to);
            } else {
                remote.push(to);
            }
        }
        // Every remote destination shares one serialization: the base
        // frame's bytes are copied-and-readdressed, never re-encoded.
        if let Some((&first, rest)) = remote.split_first() {
            let base = Frame::encode(from, first, &msg);
            for &to in rest {
                inner.send_frame(to, base.for_to(to))?;
            }
            inner.send_frame(first, base)?;
        }
        // Local members last so the final one takes the message by move;
        // each is tried, and the first that failed is the answer.
        match inner.table.deliver_each(from, &local, msg).first() {
            Some(&failed) => Err(failed),
            None => Ok(tos.len()),
        }
    }

    fn post(&self, from: Addr, to: Addr, msg: M) {
        if is_group_addr(to) || addr_port(to) == self.inner.port {
            // Neither path touches a connection, so `send` never waits.
            let _ = self.send(from, to, msg);
        } else {
            let _ = self.inner.hand_off(to, Frame::encode(from, to, &msg));
        }
    }

    fn multicast(&self, from: Addr, group: GroupId, msg: M) -> usize {
        self.inner.do_multicast(from, group, msg)
    }

    /// Loopback discovery sends one datagram per configured peer process;
    /// a real multicast group is one datagram to whoever joined.
    fn multicast_is_exact(&self) -> bool {
        matches!(self.inner.cfg.discovery, Discovery::Loopback { .. })
    }

    fn recorder(&self) -> &Recorder {
        &self.inner.rec
    }
}

impl<M: WireEncode + Send + Clone + 'static> Inner<M> {
    /// Deliver an envelope that arrived off the wire. Unknown endpoints
    /// are counted, not errors — the sender is in another process.
    fn dispatch(&self, env: Envelope<M>) {
        self.c.frames_recv.inc();
        if !is_group_addr(env.to) {
            if self.table.deliver(env).is_err() {
                self.c.drops.inc();
            }
            return;
        }
        // Our own discovery datagram echoed back (multicast loop is on so
        // *other* processes on this host hear us): local members already
        // got a direct delivery at send time.
        if addr_port(env.from) != self.port {
            let members = self.table.members(addr_group(env.to), env.from);
            self.table.deliver_each(env.from, &members, env.msg);
        }
    }

    /// Feed one read's bytes to an inbound connection's decoder and
    /// dispatch every frame they complete; `false` means the stream can no
    /// longer be trusted.
    fn receive(&self, dec: &mut FrameDecoder, bytes: &[u8]) -> bool {
        dec.feed(bytes);
        loop {
            match dec.next_payload() {
                Ok(Some(payload)) => {
                    self.c.bytes_recv.add(4 + payload.len() as u64);
                    match decode_payload::<M>(&payload) {
                        Ok(env) => self.dispatch(env),
                        Err(e) => {
                            // Framing is length-delimited, so a bad payload
                            // does not desynchronize the stream; log and keep
                            // reading.
                            self.c.decode_errors.inc();
                            self.rec.event_with(Severity::Error, "wire", None, || format!("{e}"));
                        }
                    }
                }
                Ok(None) => return true,
                Err(e) => {
                    // An oversized length prefix: the stream offset is no
                    // longer trustworthy, drop the connection.
                    self.c.decode_errors.inc();
                    self.rec.event_with(Severity::Error, "wire", None, || {
                        format!("{e}; dropping connection")
                    });
                    return false;
                }
            }
        }
    }

    fn do_multicast(&self, from: Addr, group: GroupId, msg: M) -> usize {
        let members = self.table.members(group, from);
        // One serialization feeds every remote datagram, straight from the
        // thread's scratch buffer — no per-destination encode or alloc.
        let datagrams = with_scratch(|w| {
            encode_payload_into(from, group_addr(group), &msg, w);
            let payload = w.as_slice();
            let mut sent = 0;
            match &self.cfg.discovery {
                Discovery::Multicast { group: g, port } => {
                    if self.udp_send.send_to(payload, SocketAddrV4::new(*g, *port)).is_ok() {
                        self.c.discovery_dgrams.inc();
                        sent += 1;
                    }
                }
                Discovery::Loopback { peers } => {
                    for p in peers {
                        if *p == self.port {
                            continue;
                        }
                        if self
                            .udp_send
                            .send_to(payload, SocketAddrV4::new(Ipv4Addr::LOCALHOST, *p))
                            .is_ok()
                        {
                            self.c.discovery_dgrams.inc();
                            sent += 1;
                        }
                    }
                }
            }
            sent
        });
        self.table.deliver_each(from, &members, msg);
        members.len() + datagrams
    }

    /// Queue `frame` on the link to `to`'s process, installing the link
    /// (and starting its connect cycle) if there is none. A stream found
    /// dead is replaced once. A frame that cannot be queued, because the
    /// fabric is stopping or the replacement died too, is counted in
    /// `wire.drops`; a queued one that never leaves is counted by the
    /// link's death. Never waits.
    fn hand_off(self: &Arc<Self>, to: Addr, frame: Frame) -> Result<Arc<PeerLink>, SendError> {
        let port = addr_port(to);
        for _ in 0..2 {
            if self.stop.load(Ordering::Relaxed) {
                self.c.drops.inc();
                return Err(SendError::ConnectFailed(to));
            }
            let link = self.link_for(port);
            match link.q.push_frame(frame.clone()) {
                PushOutcome::Queued { was_empty } => {
                    if was_empty {
                        // The shard may be asleep with nothing to flush;
                        // this is the one push that must ring its eventfd.
                        let token = link.state.lock().token;
                        self.reactor.notify(token);
                    }
                    return Ok(link);
                }
                PushOutcome::Dead => {
                    self.c.reconnects.inc();
                    self.drop_conn_matching(&link, "connection dead at enqueue");
                }
            }
        }
        self.c.drops.inc();
        Err(SendError::PeerClosed(to))
    }

    /// [`Fabric::send`]'s remote half: hand the frame off, then wait for
    /// the link's connect cycle to resolve. Failures surface as typed
    /// errors; the frame itself was queued and dropped with the link.
    fn send_frame(self: &Arc<Self>, to: Addr, frame: Frame) -> Result<(), SendError> {
        let link = self.hand_off(to, frame)?;
        let deadline = Instant::now() + self.connect_budget();
        let mut st = link.state.lock();
        loop {
            match st.phase {
                LinkPhase::Up => return Ok(()),
                LinkPhase::Failed(error) => return Err(error(to)),
                LinkPhase::Connecting => {
                    if self.stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
                        return Err(SendError::ConnectFailed(to));
                    }
                    link.cv.wait_for(&mut st, POLL_INTERVAL);
                }
            }
        }
    }

    /// Upper bound on how long one whole connect cycle (all attempts plus
    /// backoff) may take, used to bound the sender-side wait.
    fn connect_budget(&self) -> Duration {
        let mut total = CONNECT_TIMEOUT * (MAX_RETRIES + 1);
        let mut delay = RETRY_BASE;
        for _ in 0..MAX_RETRIES {
            total += delay;
            delay = (delay * 2).min(MAX_BACKOFF);
        }
        total + Duration::from_secs(2)
    }

    /// The link for `port`: the live (or still connecting) one, or a new
    /// [`PeerHandler`] installed on the reactor, whose connect cycle starts
    /// at once. The new link is installed under `conns`, which is safe:
    /// registering only pushes onto a shard's mailbox, and no handler takes
    /// `conns` while it holds a link's state lock.
    fn link_for(self: &Arc<Self>, port: u16) -> Arc<PeerLink> {
        let mut conns = self.conns.lock();
        if let Some(link) = conns.get(&port) {
            return Arc::clone(link);
        }
        let link = Arc::new(PeerLink::new(port));
        let handler = PeerHandler {
            inner: Arc::clone(self),
            link: Arc::clone(&link),
            attempt: 0,
            delay: RETRY_BASE,
            last_timeout: false,
            conn: PeerConn::Idle,
            connect_timer: None,
        };
        let token = self.reactor.register_hashed(port as u64, Box::new(handler));
        link.state.lock().token = token;
        conns.insert(port, Arc::clone(&link));
        link
    }

    /// Take `link` out of the connection map if it is still the one there:
    /// a dying handler must not tear down a replacement connection another
    /// sender already established. True if it was.
    fn forget(&self, link: &Arc<PeerLink>) -> bool {
        let mut conns = self.conns.lock();
        let ours = matches!(conns.get(&link.port), Some(l) if Arc::ptr_eq(l, link));
        if ours {
            conns.remove(&link.port);
        }
        ours
    }

    /// Forget a link whose queue is dead, if it is still the one mapped.
    fn drop_conn_matching(&self, link: &Arc<PeerLink>, why: &str) {
        if self.forget(link) {
            self.rec.span_end(link.state.lock().span.take());
            let port = link.port;
            self.rec.event_with(Severity::Warn, "wire", None, || {
                format!("dropped conn :{port}: {why}")
            });
        }
    }
}

/// The per-connection send state while established.
enum PeerConn {
    /// Before the first attempt or between backoff retries (no fd).
    Idle,
    /// Nonblocking connect in flight; waiting for writability.
    Connecting(TcpStream),
    /// Established. `inflight` holds frames taken from the queue but not
    /// yet fully written; `skip` is how much of the front frame already
    /// went out in a previous partial `writev`.
    Up { stream: TcpStream, inflight: VecDeque<Frame>, skip: usize },
}

/// Reactor-side state machine for one outbound peer connection:
/// `Idle → Connecting → Up`, with wheel-timed connect deadlines and
/// bounded exponential backoff looping back through `Idle`, and vectored
/// flushes of the link's [`PeerQueue`] while `Up`.
struct PeerHandler<M: WireEncode + Send + Clone + 'static> {
    inner: Arc<Inner<M>>,
    link: Arc<PeerLink>,
    attempt: u32,
    delay: Duration,
    last_timeout: bool,
    conn: PeerConn,
    connect_timer: Option<TimerId>,
}

impl<M: WireEncode + Send + Clone + 'static> PeerHandler<M> {
    fn port(&self) -> u16 {
        self.link.port
    }

    fn start_attempt(&mut self, ctx: &mut ShardCtx<'_>) -> Action {
        let target = SocketAddrV4::new(Ipv4Addr::LOCALHOST, self.port());
        match sys::connect_nonblocking(target) {
            Ok((stream, true)) => self.establish(ctx, stream),
            Ok((stream, false)) => {
                if ctx.register_fd(stream.as_raw_fd(), false, true).is_err() {
                    return self.retry_or_fail(ctx, false, "epoll register failed");
                }
                self.connect_timer = Some(ctx.arm_timer(CONNECT_TIMEOUT, TAG_CONNECT));
                self.conn = PeerConn::Connecting(stream);
                Action::Continue
            }
            Err(err) => self.retry_or_fail(ctx, false, &err.to_string()),
        }
    }

    /// One attempt failed: back off and retry, or fail the whole cycle
    /// with the same counters and typed error the blocking path had.
    fn retry_or_fail(&mut self, ctx: &mut ShardCtx<'_>, timed_out: bool, err: &str) -> Action {
        ctx.deregister_fd();
        if let Some(t) = self.connect_timer.take() {
            ctx.cancel_timer(t);
        }
        self.conn = PeerConn::Idle;
        self.last_timeout = timed_out;
        let (port, attempt, max) = (self.port(), self.attempt, MAX_RETRIES);
        self.inner.rec.event_with(Severity::Warn, "wire", None, || {
            format!("connect to :{port} failed (attempt {}/{}): {err}", attempt + 1, max + 1)
        });
        if self.attempt < max {
            self.attempt += 1;
            ctx.arm_timer(self.delay, TAG_BACKOFF);
            self.delay = (self.delay * 2).min(MAX_BACKOFF);
            return Action::Continue;
        }
        // Every frame handed off while the cycle ran, posted or sent, is in
        // the queue: each is one drop.
        self.inner.c.drops.add(self.link.q.kill() as u64);
        let error = if self.last_timeout {
            self.inner.c.timeouts.inc();
            SendError::Timeout
        } else {
            SendError::ConnectFailed
        };
        self.inner.forget(&self.link);
        self.link.state.lock().phase = LinkPhase::Failed(error);
        self.link.cv.notify_all();
        Action::Close
    }

    fn establish(&mut self, ctx: &mut ShardCtx<'_>, stream: TcpStream) -> Action {
        ctx.deregister_fd();
        if let Some(t) = self.connect_timer.take() {
            ctx.cancel_timer(t);
        }
        let _ = stream.set_nodelay(true);
        if ctx.register_fd(stream.as_raw_fd(), true, false).is_err() {
            return self.retry_or_fail(ctx, false, "epoll register failed");
        }
        self.inner.c.connects.inc();
        let span = self.inner.rec.span_start("wire", &format!("conn:{}", self.port()), None);
        self.conn = PeerConn::Up { stream, inflight: VecDeque::new(), skip: 0 };
        {
            let mut st = self.link.state.lock();
            st.span = span;
            st.phase = LinkPhase::Up;
        }
        self.link.cv.notify_all();
        // Senders may already be pushing; flush whatever raced in.
        self.flush(ctx)
    }

    /// Tear down an established connection: poison the queue so senders
    /// reconnect, drop the map entry (if still ours), close.
    fn die(&mut self, why: &str) -> Action {
        self.link.q.kill();
        self.inner.drop_conn_matching(&self.link, why);
        Action::Close
    }

    /// Drain the link queue through vectored writes until it runs dry or
    /// the socket backpressures. Write interest is armed exactly while a
    /// partial flush is pending.
    fn flush(&mut self, ctx: &mut ShardCtx<'_>) -> Action {
        let cfg = &self.inner.cfg;
        let (max_frames, max_bytes) =
            if cfg.batch { (BATCH_MAX_FRAMES, BATCH_MAX_BYTES) } else { (1, usize::MAX) };
        let PeerConn::Up { stream, inflight, skip } = &mut self.conn else {
            return Action::Continue;
        };
        loop {
            if inflight.is_empty() {
                *skip = 0;
                if self.link.q.try_take_batch(inflight, max_frames, max_bytes) == 0 {
                    // Dry: sleep on readiness alone until the next enqueue
                    // rings the shard.
                    if ctx.set_interest(true, false).is_err() {
                        return self.die("epoll rearm failed");
                    }
                    return Action::Continue;
                }
            }
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(inflight.len());
            for (i, f) in inflight.iter().enumerate() {
                let bytes = f.bytes();
                slices.push(IoSlice::new(if i == 0 { &bytes[*skip..] } else { bytes }));
            }
            match (*stream).write_vectored(&slices) {
                Ok(0) => return self.die("connection closed during write"),
                Ok(mut n) => {
                    self.inner.c.bytes_sent.add(n as u64);
                    if cfg.batch {
                        self.inner.c.batch_flushes.inc();
                        self.inner.c.batch_bytes.add(n as u64);
                    }
                    let mut done = 0u64;
                    while let Some(front) = inflight.front() {
                        let remaining = front.len() - *skip;
                        if n >= remaining {
                            n -= remaining;
                            *skip = 0;
                            inflight.pop_front();
                            done += 1;
                        } else {
                            *skip += n;
                            break;
                        }
                    }
                    self.inner.c.frames_sent.add(done);
                    if cfg.batch {
                        self.inner.c.batch_frames.add(done);
                    }
                }
                Err(e) if sys::is_would_block(&e) => {
                    // Kernel buffer full: pick the flush back up on
                    // writability, batching whatever accumulates meanwhile.
                    if ctx.set_interest(true, true).is_err() {
                        return self.die("epoll rearm failed");
                    }
                    return Action::Continue;
                }
                Err(e) => {
                    if e.kind() == std::io::ErrorKind::TimedOut {
                        self.inner.c.timeouts.inc();
                    }
                    return self.die(&format!("batched write failed: {e}"));
                }
            }
        }
    }

    /// Drain whatever the peer sent back. The protocol sends nothing on
    /// outbound connections, so this is EOF/reset detection (plus
    /// tolerant consumption of any future backchannel traffic).
    fn drain_reads(&mut self, ctx: &mut ShardCtx<'_>) -> Action {
        let PeerConn::Up { stream, .. } = &mut self.conn else { return Action::Continue };
        let mut buf = ctx.take_scratch();
        let outcome = read_budgeted(stream, &mut buf, |_| true);
        ctx.put_scratch(buf);
        match outcome {
            ReadOutcome::Failed(e) => self.die(&format!("connection error: {e}")),
            ReadOutcome::Eof | ReadOutcome::Refused => self.die("peer closed connection"),
            ReadOutcome::KeepOpen => Action::Continue,
        }
    }
}

impl<M: WireEncode + Send + Clone + 'static> EventHandler for PeerHandler<M> {
    fn on_register(&mut self, ctx: &mut ShardCtx<'_>) -> Action {
        self.start_attempt(ctx)
    }

    fn on_ready(&mut self, ctx: &mut ShardCtx<'_>, readable: bool, writable: bool) -> Action {
        match &mut self.conn {
            PeerConn::Connecting(stream) => {
                // Writable (or error) on a connecting socket is the
                // verdict; SO_ERROR says which.
                match sys::take_socket_error(stream) {
                    Ok(()) => {
                        let PeerConn::Connecting(stream) =
                            std::mem::replace(&mut self.conn, PeerConn::Idle)
                        else {
                            unreachable!("matched above")
                        };
                        self.establish(ctx, stream)
                    }
                    Err(e) => {
                        let timed_out = e.kind() == std::io::ErrorKind::TimedOut;
                        self.retry_or_fail(ctx, timed_out, &e.to_string())
                    }
                }
            }
            PeerConn::Up { .. } => {
                if readable {
                    if let Action::Close = self.drain_reads(ctx) {
                        return Action::Close;
                    }
                }
                if writable {
                    return self.flush(ctx);
                }
                Action::Continue
            }
            PeerConn::Idle => Action::Continue,
        }
    }

    fn on_timer(&mut self, ctx: &mut ShardCtx<'_>, tag: u64) -> Action {
        match tag {
            TAG_CONNECT => {
                self.connect_timer = None;
                if matches!(self.conn, PeerConn::Connecting(_)) {
                    self.retry_or_fail(ctx, true, "timed out")
                } else {
                    Action::Continue
                }
            }
            TAG_BACKOFF => {
                if matches!(self.conn, PeerConn::Idle) {
                    self.inner.c.retries.inc();
                    self.start_attempt(ctx)
                } else {
                    Action::Continue
                }
            }
            _ => Action::Continue,
        }
    }

    fn on_notify(&mut self, ctx: &mut ShardCtx<'_>) -> Action {
        self.flush(ctx)
    }

    fn on_close(&mut self) {
        // Dropping the stream closes the fd; poison the queue so senders
        // observe the death instead of queueing into the void.
        self.link.q.kill();
        self.conn = PeerConn::Idle;
    }
}

/// Per-inbound-connection frame reader: each `read` takes whatever the
/// socket has — one frame or a coalesced batch — and [`FrameDecoder`]
/// splits it, so a flush of N frames costs one syscall, not 2N. A frame
/// left part-way in past [`READ_TIMEOUT`] drops the connection (the
/// deadline rides the shard's timer wheel; idle waiting between frames
/// stays unbounded).
struct InboundHandler<M: WireEncode + Send + Clone + 'static> {
    inner: Arc<Inner<M>>,
    stream: TcpStream,
    dec: FrameDecoder,
    read_timer: Option<TimerId>,
}

impl<M: WireEncode + Send + Clone + 'static> EventHandler for InboundHandler<M> {
    fn on_register(&mut self, ctx: &mut ShardCtx<'_>) -> Action {
        match ctx.register_fd(self.stream.as_raw_fd(), true, false) {
            Ok(()) => Action::Continue,
            Err(_) => Action::Close,
        }
    }

    fn on_ready(&mut self, ctx: &mut ShardCtx<'_>, _readable: bool, _writable: bool) -> Action {
        let mut buf = ctx.take_scratch();
        let (inner, dec) = (&self.inner, &mut self.dec);
        let outcome = read_budgeted(&mut self.stream, &mut buf, |bytes| inner.receive(dec, bytes));
        ctx.put_scratch(buf);
        // Rearm the mid-frame deadline to track the newest partial; a
        // completed frame disarms it.
        if let Some(t) = self.read_timer.take() {
            ctx.cancel_timer(t);
        }
        match outcome {
            ReadOutcome::KeepOpen => {
                if self.dec.has_partial() {
                    self.read_timer = Some(ctx.arm_timer(READ_TIMEOUT, TAG_READ_DEADLINE));
                }
                return Action::Continue;
            }
            ReadOutcome::Eof if self.dec.has_partial() => {
                self.inner.c.timeouts.inc();
                let pending = self.dec.pending_bytes();
                self.inner.rec.event_with(Severity::Warn, "wire", None, || {
                    format!("connection closed mid-frame ({pending} bytes pending)")
                });
            }
            ReadOutcome::Failed(e) => {
                self.inner.rec.event_with(Severity::Warn, "wire", None, || {
                    format!("inbound connection error: {e}")
                });
            }
            ReadOutcome::Eof | ReadOutcome::Refused => {}
        }
        Action::Close
    }

    fn on_timer(&mut self, _ctx: &mut ShardCtx<'_>, tag: u64) -> Action {
        if tag != TAG_READ_DEADLINE {
            return Action::Continue;
        }
        self.read_timer = None;
        if self.dec.has_partial() {
            self.inner.c.timeouts.inc();
            let pending = self.dec.pending_bytes();
            self.inner.rec.event_with(Severity::Warn, "wire", None, || {
                format!("inbound frame timed out mid-read ({pending} bytes pending); dropping connection")
            });
            return Action::Close;
        }
        Action::Continue
    }
}

/// Discovery datagram reader.
struct UdpHandler<M: WireEncode + Send + Clone + 'static> {
    inner: Arc<Inner<M>>,
    udp: UdpSocket,
}

impl<M: WireEncode + Send + Clone + 'static> EventHandler for UdpHandler<M> {
    fn on_register(&mut self, ctx: &mut ShardCtx<'_>) -> Action {
        match ctx.register_fd(self.udp.as_raw_fd(), true, false) {
            Ok(()) => Action::Continue,
            Err(_) => Action::Close,
        }
    }

    fn on_ready(&mut self, ctx: &mut ShardCtx<'_>, _readable: bool, _writable: bool) -> Action {
        let mut buf = ctx.take_scratch();
        for _ in 0..MAX_READS_PER_WAKE {
            match self.udp.recv_from(&mut buf) {
                Ok((n, _peer)) => match decode_payload::<M>(&buf[..n]) {
                    Ok(env) => self.inner.dispatch(env),
                    Err(e) => {
                        self.inner.c.decode_errors.inc();
                        self.inner
                            .rec
                            .event_with(Severity::Warn, "wire", None, || format!("udp: {e}"));
                    }
                },
                Err(e) if sys::is_would_block(&e) => break,
                Err(_) => break,
            }
        }
        ctx.put_scratch(buf);
        Action::Continue
    }
}

/// Loopback discovery's socket pair: the TCP listener `next_listener`
/// yields and a UDP socket on the same port number. UDP ports are a
/// namespace of their own, so another fabric's ephemeral send socket may
/// already sit on the number the listener drew; the pair is then drawn
/// again, up to `attempts` times in all, before `AddrInUse` is returned.
fn bind_port_pair(
    attempts: usize,
    mut next_listener: impl FnMut() -> std::io::Result<TcpListener>,
) -> std::io::Result<(TcpListener, UdpSocket)> {
    // Rejected listeners stay bound until the end, so a redraw cannot be
    // handed the same number.
    let mut rejected = Vec::new();
    loop {
        let listener = next_listener()?;
        let port = listener.local_addr()?.port();
        match UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port)) {
            Ok(udp) => return Ok((listener, udp)),
            Err(e)
                if e.kind() == std::io::ErrorKind::AddrInUse && rejected.len() + 1 < attempts =>
            {
                rejected.push(listener)
            }
            Err(e) => return Err(e),
        }
    }
}

/// The first endpoint id of a new fabric: its incarnation, so that a frame
/// posted to an endpoint of a departed fabric is dropped and counted by
/// whichever fabric binds that port next, not delivered to one of its
/// endpoints. It is the wall clock in microseconds, in the lower half of the
/// 40-bit id field (the upper half is room for the fabric's registrations;
/// the clock wraps there every six days), and above every incarnation this
/// process handed out before.
fn first_endpoint_id() -> u64 {
    static LAST: AtomicU64 = AtomicU64::new(1);
    let half = 1u64 << (ADDR_PORT_SHIFT - 1);
    let micros = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_micros());
    let clock = (micros % u128::from(half)) as u64;
    let next = |last: u64| clock.max(last + 1);
    LAST.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |last| Some(next(last)))
        .map_or(clock, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FabricHandle;
    use std::net::TcpListener;

    // u64 (a `WireEncode` scalar) is the stand-in message for transport tests.

    #[test]
    fn port_pair_is_redrawn_when_the_udp_twin_is_taken() {
        let localhost = |port| SocketAddrV4::new(Ipv4Addr::LOCALHOST, port);
        // A listener whose port number is already held by someone's UDP
        // socket, as an ephemeral draw can be.
        let squatted = || {
            let listener = TcpListener::bind(localhost(0)).unwrap();
            let port = listener.local_addr().unwrap().port();
            (listener, port, UdpSocket::bind(localhost(port)).unwrap())
        };

        // One attempt (a fixed `--port`): the collision is the answer.
        let (listener, _, _squatter) = squatted();
        let mut first = Some(listener);
        let err = bind_port_pair(1, || Ok(first.take().expect("one draw"))).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);

        // An ephemeral port: the pair is drawn again.
        let (listener, taken, _squatter) = squatted();
        let mut first = Some(listener);
        let (listener, udp) = bind_port_pair(EPHEMERAL_BIND_ATTEMPTS, || {
            first.take().map_or_else(|| TcpListener::bind(localhost(0)), Ok)
        })
        .unwrap();
        let port = listener.local_addr().unwrap().port();
        assert_ne!(port, taken);
        assert_eq!(udp.local_addr().unwrap().port(), port);
    }

    fn loopback_pair() -> (SocketFabric<u64>, SocketFabric<u64>) {
        // Bind both fabrics first (ephemeral ports), then wire the peer
        // lists via a rebuild: simplest is to create with explicit ports.
        let a: SocketFabric<u64> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        let b: SocketFabric<u64> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        (a, b)
    }

    #[test]
    fn a_rebound_port_drops_what_was_sent_to_its_departed_fabric() {
        let a: SocketFabric<u64> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        let port = a.port();
        let (departed, _rx) = a.register();
        drop(a);
        let rec = Recorder::new();
        let b: SocketFabric<u64> =
            SocketFabric::new(WireConfig { port, ..WireConfig::default() }, rec.clone()).unwrap();
        let (fresh, rx_fresh) = b.register();
        assert_ne!(fresh, departed, "the port's next fabric numbers its endpoints anew");
        let c: SocketFabric<u64> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        let (from, _rx_c) = c.register();
        // One link carries both, in order: when the second arrives, the
        // first was dispatched, to no endpoint.
        c.send(from, departed, 1).unwrap();
        c.send(from, fresh, 2).unwrap();
        assert_eq!(recv_within(&rx_fresh, 2000).msg, 2);
        assert_eq!(rec.counter("wire.drops").get(), 1);
    }

    fn recv_within(rx: &Receiver<Envelope<u64>>, ms: u64) -> Envelope<u64> {
        rx.recv_timeout(Duration::from_millis(ms)).expect("message within deadline")
    }

    #[test]
    fn tcp_unicast_crosses_fabrics() {
        let (a, b) = loopback_pair();
        let (addr_a, _rx_a) = a.register();
        let (addr_b, rx_b) = b.register();
        a.send(addr_a, addr_b, 42).unwrap();
        let env = recv_within(&rx_b, 2000);
        assert_eq!(env.msg, 42);
        assert_eq!(env.from, addr_a);
    }

    #[test]
    fn per_peer_order_is_preserved() {
        let (a, b) = loopback_pair();
        let (addr_a, _rx_a) = a.register();
        let (addr_b, rx_b) = b.register();
        for i in 0..200u64 {
            a.send(addr_a, addr_b, i).unwrap();
        }
        for i in 0..200u64 {
            assert_eq!(recv_within(&rx_b, 2000).msg, i);
        }
    }

    #[test]
    fn local_fast_path_does_not_touch_tcp() {
        let a: SocketFabric<u64> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        let (x, _rx_x) = a.register();
        let (y, rx_y) = a.register();
        a.send(x, y, 7).unwrap();
        assert_eq!(recv_within(&rx_y, 500).msg, 7);
    }

    #[test]
    fn send_to_dead_peer_is_typed_error_with_retries() {
        let rec = Recorder::new();
        // Reserve a port nobody listens on.
        let dead_port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let a: SocketFabric<u64> = SocketFabric::new(WireConfig::default(), rec.clone()).unwrap();
        let (addr_a, _rx) = a.register();
        let dead = Addr(((dead_port as u64) << ADDR_PORT_SHIFT) | 1);
        let t0 = Instant::now();
        let err = a.send(addr_a, dead, 1).unwrap_err();
        assert!(
            matches!(err, SendError::ConnectFailed(d) | SendError::Timeout(d) if d == dead),
            "{err:?}"
        );
        assert!(t0.elapsed() < Duration::from_secs(5), "bounded backoff");
        assert_eq!(
            rec.counter("wire.connect_retries").get(),
            u64::from(MAX_RETRIES),
            "exponential backoff retries recorded"
        );
    }

    #[test]
    fn a_failed_connect_counts_every_frame_handed_off() {
        let rec = Recorder::new();
        let dead_port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let a: SocketFabric<u64> = SocketFabric::new(WireConfig::default(), rec.clone()).unwrap();
        let (addr_a, _rx) = a.register();
        let dead = Addr(((dead_port as u64) << ADDR_PORT_SHIFT) | 1);
        let posted = 4;
        for i in 0..posted {
            a.post(addr_a, dead, i);
        }
        let err = a.send(addr_a, dead, posted).unwrap_err();
        assert!(
            matches!(err, SendError::ConnectFailed(d) | SendError::Timeout(d) if d == dead),
            "{err:?}"
        );
        // The posted frames and the sent one all died in the link's queue.
        assert_eq!(rec.counter("wire.drops").get(), posted + 1);
    }

    #[test]
    fn peer_death_mid_conversation_surfaces_peer_closed() {
        let rec = Recorder::new();
        let a: SocketFabric<u64> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        let b: SocketFabric<u64> = SocketFabric::new(WireConfig::default(), rec.clone()).unwrap();
        let (addr_a, rx_a) = a.register();
        let (addr_b, _rx_b) = b.register();
        b.send(addr_b, addr_a, 1).unwrap();
        assert_eq!(recv_within(&rx_a, 2000).msg, 1);
        // Kill fabric A: its listener stops accepting and the established
        // connection is reset when its handler closes.
        let a_port = a.port();
        drop(a);
        std::thread::sleep(Duration::from_millis(100));
        // The first send may still land in a kernel buffer; keep sending
        // until the failure surfaces. It must be a typed wire error.
        let mut last = Ok(());
        for i in 0..50 {
            last = b.send(addr_b, Addr(((a_port as u64) << ADDR_PORT_SHIFT) | 1), i);
            if last.is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let err = last.unwrap_err();
        assert!(
            matches!(
                err,
                SendError::PeerClosed(_) | SendError::ConnectFailed(_) | SendError::Timeout(_)
            ),
            "{err:?}"
        );
        // The reconnect attempt and failure are flight-recorder material.
        let events = rec.flight().dump();
        assert!(
            events.iter().any(|e| e.category == "wire"),
            "expected wire flight events, got {events:?}"
        );
    }

    #[test]
    fn loopback_discovery_reaches_remote_group_members() {
        let rec = Recorder::disabled();
        let a: SocketFabric<u64> = SocketFabric::new(WireConfig::default(), rec.clone()).unwrap();
        let b_cfg = WireConfig {
            discovery: Discovery::Loopback { peers: vec![a.port()] },
            ..WireConfig::default()
        };
        let b: SocketFabric<u64> = SocketFabric::new(b_cfg, rec).unwrap();
        let g = GroupId(0);
        let (addr_a, rx_a) = a.register();
        a.join_group(addr_a, g);
        let (addr_b, _rx_b) = b.register();
        // b multicasts; its peer list names a's port.
        let n = b.multicast(addr_b, g, 99);
        assert!(n >= 1);
        assert_eq!(recv_within(&rx_a, 2000).msg, 99);
    }

    #[test]
    fn multicast_discovery_reaches_remote_group_members() {
        // Real UDP multicast on a dedicated group/port (skip silently if
        // the environment forbids it — loopback mode is the fallback).
        let mk = |rec: Recorder| -> Option<SocketFabric<u64>> {
            SocketFabric::new(
                WireConfig {
                    discovery: Discovery::Multicast {
                        group: Ipv4Addr::new(239, 77, 7, 9),
                        port: 47179,
                    },
                    ..WireConfig::default()
                },
                rec,
            )
            .ok()
        };
        let Some(a) = mk(Recorder::disabled()) else { return };
        let Some(b) = mk(Recorder::disabled()) else { return };
        let g = GroupId(0);
        let (addr_a, rx_a) = a.register();
        a.join_group(addr_a, g);
        let (addr_b, _rx_b) = b.register();
        b.multicast(addr_b, g, 123);
        match rx_a.recv_timeout(Duration::from_millis(2000)) {
            Ok(env) => assert_eq!(env.msg, 123),
            // Multicast may be unavailable in a sandbox; not a failure.
            Err(_) => eprintln!("multicast unavailable; loopback fallback covers discovery"),
        }
    }

    #[test]
    fn batched_writes_flow_through_the_writer_and_count() {
        let rec = Recorder::new();
        let a: SocketFabric<u64> = SocketFabric::new(WireConfig::default(), rec.clone()).unwrap();
        let b: SocketFabric<u64> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        let (addr_a, _rx_a) = a.register();
        let (addr_b, rx_b) = b.register();
        for i in 0..500u64 {
            a.send(addr_a, addr_b, i).unwrap();
        }
        for i in 0..500u64 {
            assert_eq!(recv_within(&rx_b, 2000).msg, i);
        }
        // The sender's shard counts a flush once its `writev` returns, which
        // can be after the receiver already holds every frame.
        let deadline = Instant::now() + Duration::from_secs(2);
        while rec.counter("wire.batch.frames").get() < 500 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(rec.counter("wire.batch.frames").get(), 500);
        assert_eq!(rec.counter("wire.frames_sent").get(), 500);
        let flushes = rec.counter("wire.batch.flushes").get();
        assert!((1..=500).contains(&flushes), "{flushes}");
        assert!(rec.counter("wire.batch.bytes").get() > 0);
    }

    #[test]
    fn unbatched_path_is_still_selectable() {
        let rec = Recorder::new();
        let cfg = WireConfig { batch: false, ..WireConfig::default() };
        let a: SocketFabric<u64> = SocketFabric::new(cfg.clone(), rec.clone()).unwrap();
        let b: SocketFabric<u64> = SocketFabric::new(cfg, Recorder::disabled()).unwrap();
        let (addr_a, _rx_a) = a.register();
        let (addr_b, rx_b) = b.register();
        for i in 0..50u64 {
            a.send(addr_a, addr_b, i).unwrap();
        }
        for i in 0..50u64 {
            assert_eq!(recv_within(&rx_b, 2000).msg, i);
        }
        assert_eq!(rec.counter("wire.frames_sent").get(), 50);
        assert_eq!(rec.counter("wire.batch.flushes").get(), 0, "no coalescing when off");
    }

    #[test]
    fn send_many_reaches_remote_and_local_destinations() {
        let a: SocketFabric<u64> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        let b: SocketFabric<u64> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        let c: SocketFabric<u64> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        let (addr_a, _rx_a) = a.register();
        let (local, rx_local) = a.register();
        let (addr_b, rx_b) = b.register();
        let (addr_c, rx_c) = c.register();
        // One encoding fans out to two processes; the local member gets
        // the message by move.
        let n = a.send_many(addr_a, &[addr_b, addr_c, local], 77).unwrap();
        assert_eq!(n, 3);
        for (rx, expect_from) in [(&rx_b, addr_a), (&rx_c, addr_a), (&rx_local, addr_a)] {
            let env = recv_within(rx, 2000);
            assert_eq!(env.msg, 77);
            assert_eq!(env.from, expect_from);
        }
        // Each recipient saw its own address as destination, not the
        // first destination the frame was originally encoded for.
        // (Verified implicitly: delivery is routed by the `to` field.)
    }

    #[test]
    fn fabric_handle_wraps_socket_fabric() {
        let a: SocketFabric<u64> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        let h: FabricHandle<u64> = Arc::new(a);
        let (x, _rx) = h.register();
        let (y, rx_y) = h.register();
        h.send(x, y, 5).unwrap();
        assert_eq!(rx_y.recv_timeout(Duration::from_millis(500)).unwrap().msg, 5);
    }

    #[test]
    fn explicit_shard_count_is_respected() {
        let cfg = WireConfig { reactor_shards: 3, ..WireConfig::default() };
        let a: SocketFabric<u64> = SocketFabric::new(cfg, Recorder::disabled()).unwrap();
        assert_eq!(a.reactor_shards(), 3);
        let b: SocketFabric<u64> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).unwrap();
        let (addr_a, _rx_a) = a.register();
        let (addr_b, rx_b) = b.register();
        for i in 0..20u64 {
            a.send(addr_a, addr_b, i).unwrap();
        }
        for i in 0..20u64 {
            assert_eq!(recv_within(&rx_b, 2000).msg, i);
        }
    }
}
