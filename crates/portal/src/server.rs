//! The portal server: nonblocking HTTP/1.1 connection state machines on
//! the sharded reactor's event loops.
//!
//! The reactor's one acceptor ([`Reactor::listen`]) spreads connections
//! round-robin across shards; each connection is a [`ConnHandler`] driving an
//! incremental [`RequestParser`] (any TCP segmentation), writing
//! pipelined responses in order, streaming finished-job journals with
//! chunked transfer encoding, and riding the shard timer wheel for
//! request deadlines (`408`) and a journal stream's hold and give-up.
//! Submission execution never happens on a shard: `POST /jobs` hands the
//! body to the bounded [`Admission`] queue and answers `202` immediately.
//! A stream whose job is still running is held to the next wheel tick
//! and then parks on the [`JobBoard`]; the worker that publishes the
//! journal wakes it through [`Reactor::notify`].

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_observe::{Recorder, RegistrySnapshot, LATENCY_BUCKETS_US};
use cn_reactor::{
    read_budgeted, sys, Action, EventHandler, Reactor, ReadOutcome, ShardCtx, TimerId, Token,
};

use crate::admission::Admission;
use crate::http::{
    begin_chunked, finish_chunked, write_chunk, Request, RequestParser, Response,
    DEFAULT_MAX_BODY_BYTES,
};
use crate::jobs::{json_string, parse_job_id, spawn_workers, JobBoard, JobRunner, JobWork};

/// Journal bytes per chunk when streaming.
const JOURNAL_CHUNK: usize = 16 * 1024;
/// How long a stream that finds its job still running is held: to the
/// next timer-wheel tick, after which it is answered the moment the
/// worker publishes. A healthy job ends inside the tick, so a closed loop
/// runs at the tick's pace, not at the box's: answered on the wake-up
/// alone, a job's time followed the machine's speed from one run to the
/// next. A job that outlasts the tick is answered when it ends, and the
/// next one starts mid-tick and is held only to that tick's end, so a
/// slow job costs no more than its own overrun.
const JOURNAL_HOLD: Duration = Duration::from_millis(cn_reactor::TICK_MS);

const TAG_DEADLINE: u64 = 1;
const TAG_JOURNAL: u64 = 2;

/// Deployment shape of one portal process.
#[derive(Debug, Clone)]
pub struct PortalConfig {
    /// TCP port to listen on (0 picks an ephemeral port).
    pub port: u16,
    /// Reactor shards (0 = `cn_reactor::default_shards()`).
    pub reactor_shards: usize,
    /// Total queued + executing submission cap (`503` beyond it).
    pub max_inflight: usize,
    /// Per-remote-address submission cap (`429` beyond it).
    pub per_addr_inflight: usize,
    /// Submission worker threads (compile + execute).
    pub workers: usize,
    /// Request body limit (`413` beyond it).
    pub max_body_bytes: usize,
    /// A request left part-way past this deadline answers `408` and the
    /// connection closes.
    pub request_deadline: Duration,
    /// How long `GET /jobs/<id>/journal` waits for the job to finish
    /// before giving up mid-stream.
    pub journal_wait: Duration,
}

impl Default for PortalConfig {
    fn default() -> Self {
        PortalConfig {
            port: 0,
            reactor_shards: 0,
            max_inflight: 64,
            per_addr_inflight: 4,
            workers: 2,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            request_deadline: Duration::from_secs(10),
            journal_wait: Duration::from_secs(120),
        }
    }
}

struct Inner {
    reactor: Arc<Reactor>,
    board: Arc<JobBoard>,
    admission: Arc<Admission<JobWork>>,
    rec: Recorder,
    cfg: PortalConfig,
    port: u16,
}

/// A running portal. Dropping it (or calling [`shutdown`]) stops the
/// reactor, closes admission, and joins the submission workers.
///
/// [`shutdown`]: PortalServer::shutdown
pub struct PortalServer {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl PortalServer {
    pub fn start(
        cfg: PortalConfig,
        runner: Arc<dyn JobRunner>,
        rec: Recorder,
    ) -> std::io::Result<PortalServer> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let port = listener.local_addr()?.port();
        let reactor = Arc::new(Reactor::new(&format!("portal-{port}"), cfg.reactor_shards)?);
        // A worker that publishes a journal wakes the streams parked on it.
        // The board holds the reactor weakly: it does not outlive shutdown.
        let shards_of = Arc::downgrade(&reactor);
        let wake = Box::new(move |token| {
            if let Some(reactor) = shards_of.upgrade() {
                reactor.notify(token);
            }
        });
        // Enough finished entries for every admitted job's status and
        // journal to be read while as many again finish behind it.
        let board = Arc::new(JobBoard::new((2 * cfg.max_inflight).max(16), &rec, wake));
        let admission = Arc::new(Admission::new(cfg.max_inflight, cfg.per_addr_inflight));
        let workers = spawn_workers(
            cfg.workers,
            Arc::clone(&admission),
            Arc::clone(&board),
            runner,
            rec.clone(),
        )
        .inspect_err(|_| reactor.shutdown())?;
        let inner = Arc::new(Inner { reactor, board, admission, rec, cfg, port });
        // Built first, so a listener the reactor refuses drops it, and its
        // shutdown stops the workers.
        let server = PortalServer { inner, workers };
        let to_conn = Arc::clone(&server.inner);
        server.inner.reactor.listen(listener, move |stream, peer| {
            to_conn.rec.counter("portal.conns.accepted").inc();
            to_conn.rec.gauge("portal.conns.open").add(1);
            Box::new(ConnHandler {
                inner: Arc::clone(&to_conn),
                token: 0,
                stream,
                parser: RequestParser::new(to_conn.cfg.max_body_bytes),
                // Fairness is keyed by remote IP (not port): every
                // connection from one client counts against one cap.
                addr_key: hash_ip(&peer.ip().to_string()),
                out: Vec::new(),
                out_pos: 0,
                want_write: false,
                close_after_flush: false,
                deadline: None,
                streaming: None,
                journal_timer: None,
            })
        })?;
        Ok(server)
    }

    /// The bound TCP port.
    pub fn port(&self) -> u16 {
        self.inner.port
    }

    /// Reactor shards serving HTTP.
    pub fn reactor_shards(&self) -> usize {
        self.inner.reactor.shards()
    }

    pub fn board(&self) -> &Arc<JobBoard> {
        &self.inner.board
    }

    pub fn recorder(&self) -> &Recorder {
        &self.inner.rec
    }

    pub fn shutdown(&mut self) {
        self.inner.reactor.shutdown();
        self.inner.admission.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for PortalServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn hash_ip(ip: &str) -> u64 {
    // FNV-1a; stable across runs (only used for in-memory cap buckets).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in ip.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A journal stream in flight on a connection.
struct JournalStream {
    job: u64,
    /// Journal bytes already written into the output buffer.
    sent: usize,
    /// Give-up point for a job that never finishes.
    give_up: Instant,
    /// Whether the connection stays open after the terminal chunk.
    keep_alive: bool,
    /// Where the stream is in its wait for a job it found running.
    wait: Wait,
}

/// A journal stream's wait: each stream parks at most once, held to the
/// wheel tick ([`JOURNAL_HOLD`]) and then until the worker's wake-up.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// It has not found its job running.
    Looking,
    /// Found it running; the board is not read again until the hold's
    /// tick, even if the job ends before it.
    Held,
    /// Past the tick: answered the moment the worker publishes.
    Parked,
}

/// One HTTP connection: incremental parse → route → ordered pipelined
/// responses, with journal streaming and deadlines on the timer wheel.
struct ConnHandler {
    inner: Arc<Inner>,
    /// This connection's reactor token, set on registration: what the
    /// board wakes when a journal it waits on is published.
    token: Token,
    stream: TcpStream,
    parser: RequestParser,
    addr_key: u64,
    out: Vec<u8>,
    out_pos: usize,
    want_write: bool,
    close_after_flush: bool,
    deadline: Option<TimerId>,
    streaming: Option<JournalStream>,
    /// The parked stream's give-up timer.
    journal_timer: Option<TimerId>,
}

impl ConnHandler {
    /// Parse and answer every complete buffered request, in order. Stops
    /// while a journal stream is in flight (its chunks own the wire until
    /// the terminal chunk; pipelined successors stay buffered).
    fn serve_buffered(&mut self) {
        while self.streaming.is_none() && !self.close_after_flush {
            match self.parser.next_request() {
                Ok(Some(req)) => self.handle_request(req),
                Ok(None) => break,
                Err(e) => {
                    // A malformed stream has no trustworthy framing left:
                    // answer once and close.
                    self.inner.rec.counter("portal.http.errors").inc();
                    Response::json(e.status, format!("{{\"error\":{}}}\n", json_string(&e.detail)))
                        .write_to(&mut self.out, false);
                    self.close_after_flush = true;
                    break;
                }
            }
        }
    }

    fn handle_request(&mut self, req: Request) {
        let started = Instant::now();
        self.inner.rec.counter("portal.http.requests").inc();
        let keep_alive = req.keep_alive;
        if !keep_alive {
            self.close_after_flush = true;
        }
        self.route(req, keep_alive);
        self.inner
            .rec
            .histogram("portal.http_us", LATENCY_BUCKETS_US)
            .record(started.elapsed().as_micros() as u64);
    }

    fn route(&mut self, req: Request, keep_alive: bool) {
        let path = req.target.split('?').next().unwrap_or("");
        let seg: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let resp = match (req.method.as_str(), seg.as_slice()) {
            ("POST", ["jobs"]) => self.submit(req.body),
            ("GET", ["jobs", id]) => {
                match parse_job_id(id).and_then(|id| self.inner.board.status_json(id)) {
                    Some(json) => Response::json(200, json),
                    None => not_found(),
                }
            }
            ("GET", ["jobs", id, "journal"]) => {
                match parse_job_id(id).filter(|id| self.inner.board.state(*id).is_some()) {
                    Some(id) => {
                        begin_chunked(&mut self.out, 200, "application/x-ndjson", keep_alive);
                        self.streaming = Some(JournalStream {
                            job: id,
                            sent: 0,
                            give_up: Instant::now() + self.inner.cfg.journal_wait,
                            keep_alive,
                            wait: Wait::Looking,
                        });
                        // Chunks flow from pump_journal; headers are out.
                        self.close_after_flush = false;
                        return;
                    }
                    None => not_found(),
                }
            }
            ("GET", ["metrics"]) => {
                Response::text(200, render_metrics(&self.inner.rec.metrics().snapshot()))
            }
            ("GET", ["healthz"]) => Response::text(200, "ok\n"),
            (_, ["jobs"]) => method_not_allowed("POST"),
            (_, ["jobs", _])
            | (_, ["jobs", _, "journal"])
            | (_, ["metrics"])
            | (_, ["healthz"]) => method_not_allowed("GET"),
            _ => not_found(),
        };
        resp.write_to(&mut self.out, keep_alive);
    }

    /// `POST /jobs`: register on the board, take an admission slot, answer
    /// `202 {"id":"j-N"}` — or reject with the admission error's status.
    fn submit(&mut self, body: Vec<u8>) -> Response {
        let id = self.inner.board.create();
        match self.inner.admission.submit(self.addr_key, JobWork { id, body }) {
            Ok(()) => {
                self.inner.rec.counter("portal.jobs.submitted").inc();
                Response::json(202, format!("{{\"id\":\"j-{id}\",\"state\":\"queued\"}}\n"))
                    .header("location", format!("/jobs/j-{id}"))
            }
            Err(e) => {
                self.inner.board.discard(id);
                self.inner.rec.counter("portal.jobs.rejected").inc();
                if e == crate::admission::SubmitError::Shed {
                    self.inner.rec.counter("portal.load_shed").inc();
                }
                Response::json(e.status(), format!("{{\"error\":{}}}\n", json_string(e.as_str())))
            }
        }
    }

    /// Move available journal bytes into the output buffer. Returns
    /// `true` when the stream parks (held to its tick, or its job still
    /// running and this connection recorded to be woken when it ends).
    fn pump_journal(&mut self) -> bool {
        let Some(s) = &mut self.streaming else { return false };
        if s.wait == Wait::Held {
            return true;
        }
        match self.inner.board.journal_or_wait(s.job, self.token) {
            Some(Some(journal)) => {
                let bytes = journal.as_bytes();
                while s.sent < bytes.len() {
                    let end = (s.sent + JOURNAL_CHUNK).min(bytes.len());
                    write_chunk(&mut self.out, &bytes[s.sent..end]);
                    s.sent = end;
                }
                finish_chunked(&mut self.out);
                self.inner.rec.counter("portal.journals.streamed").inc();
                if !s.keep_alive {
                    self.close_after_flush = true;
                }
                self.streaming = None;
                // Pipelined requests buffered behind the stream go now.
                self.serve_buffered();
                false
            }
            Some(None) => {
                if Instant::now() >= s.give_up {
                    self.inner.board.stop_waiting(s.job, self.token);
                    // Terminal chunk with an in-band error line: chunked
                    // framing has no way to change the status mid-stream.
                    write_chunk(&mut self.out, b"{\"error\":\"journal wait timed out\"}\n");
                    finish_chunked(&mut self.out);
                    self.close_after_flush = true;
                    self.streaming = None;
                    false
                } else {
                    true
                }
            }
            None => {
                write_chunk(&mut self.out, b"{\"error\":\"job vanished\"}\n");
                finish_chunked(&mut self.out);
                self.close_after_flush = true;
                self.streaming = None;
                false
            }
        }
    }

    /// Flush the output buffer. `Ok(true)` = drained, `Ok(false)` = the
    /// socket pushed back (needs writable interest), `Err` = dead peer.
    fn flush_out(&mut self) -> std::io::Result<bool> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero)),
                Ok(n) => self.out_pos += n,
                Err(e) if sys::is_would_block(&e) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }

    /// Post-work bookkeeping shared by every wakeup: journal streaming,
    /// flush, interest, the parse deadline, and close-when-drained.
    fn settle(&mut self, ctx: &mut ShardCtx<'_>, eof: bool) -> Action {
        // A stream that ends hands the wire to the requests pipelined behind
        // it, and one of those may open the next stream: pump until none is
        // pending or one has to wait for its job.
        while self.streaming.is_some() {
            if self.pump_journal() {
                // Held to the next tick, then parked until the publishing
                // worker's notify with the give-up as the one timer (the
                // wheel may fire it a tick early, and then it is armed
                // again for what is left).
                if let (None, Some(s)) = (self.journal_timer, &mut self.streaming) {
                    let wait = if s.wait == Wait::Looking {
                        s.wait = Wait::Held;
                        JOURNAL_HOLD
                    } else {
                        s.give_up.saturating_duration_since(Instant::now())
                    };
                    self.journal_timer = Some(ctx.arm_timer(wait, TAG_JOURNAL));
                }
                break;
            }
            if let Some(t) = self.journal_timer.take() {
                ctx.cancel_timer(t);
            }
        }
        let drained = match self.flush_out() {
            Ok(d) => d,
            Err(_) => return Action::Close,
        };
        if drained && (self.close_after_flush || (eof && self.streaming.is_none())) {
            return Action::Close;
        }
        if !drained && eof {
            // Peer half-closed; keep write interest only to flush.
            self.close_after_flush = true;
        }
        let want_write = !drained;
        if want_write != self.want_write {
            if ctx.set_interest(!eof, want_write).is_err() {
                return Action::Close;
            }
            self.want_write = want_write;
        }
        // The parse deadline tracks the newest partial request.
        if let Some(t) = self.deadline.take() {
            ctx.cancel_timer(t);
        }
        if self.parser.has_partial() && !eof {
            self.deadline = Some(ctx.arm_timer(self.inner.cfg.request_deadline, TAG_DEADLINE));
        }
        Action::Continue
    }
}

impl EventHandler for ConnHandler {
    fn on_register(&mut self, ctx: &mut ShardCtx<'_>) -> Action {
        self.token = ctx.token();
        match ctx.register_fd(self.stream.as_raw_fd(), true, false) {
            Ok(()) => Action::Continue,
            Err(_) => Action::Close,
        }
    }

    fn on_ready(&mut self, ctx: &mut ShardCtx<'_>, readable: bool, _writable: bool) -> Action {
        let mut eof = false;
        if readable {
            let mut buf = ctx.take_scratch();
            let parser = &mut self.parser;
            let outcome = read_budgeted(&mut self.stream, &mut buf, |bytes| {
                parser.feed(bytes);
                true
            });
            ctx.put_scratch(buf);
            match outcome {
                ReadOutcome::KeepOpen => {}
                // Peer closed its half: flush what we owe, then close.
                ReadOutcome::Eof => eof = true,
                ReadOutcome::Refused | ReadOutcome::Failed(_) => return Action::Close,
            }
        }
        self.serve_buffered();
        self.settle(ctx, eof)
    }

    fn on_timer(&mut self, ctx: &mut ShardCtx<'_>, tag: u64) -> Action {
        match tag {
            TAG_DEADLINE => {
                self.deadline = None;
                if self.parser.has_partial() {
                    self.inner.rec.counter("portal.http.deadline_408").inc();
                    Response::json(408, "{\"error\":\"request deadline exceeded\"}\n")
                        .write_to(&mut self.out, false);
                    self.close_after_flush = true;
                }
                self.settle(ctx, false)
            }
            TAG_JOURNAL => {
                self.journal_timer = None;
                if let Some(s) = &mut self.streaming {
                    s.wait = Wait::Parked;
                }
                self.settle(ctx, false)
            }
            _ => Action::Continue,
        }
    }

    /// A worker published the journal this connection waits on.
    fn on_notify(&mut self, ctx: &mut ShardCtx<'_>) -> Action {
        self.settle(ctx, false)
    }

    fn on_close(&mut self) {
        // A connection that goes while it waits leaves the job's waiters.
        if let Some(s) = &self.streaming {
            self.inner.board.stop_waiting(s.job, self.token);
        }
        self.inner.rec.gauge("portal.conns.open").add(-1);
    }
}

fn not_found() -> Response {
    Response::json(404, "{\"error\":\"not found\"}\n")
}

fn method_not_allowed(allow: &'static str) -> Response {
    Response::json(405, "{\"error\":\"method not allowed\"}\n").header("allow", allow)
}

/// `GET /metrics`: one `name value` line per counter/gauge, plus
/// `count`/`mean`/`p50`/`p99` lines per histogram.
pub fn render_metrics(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        out.push_str(&format!("{name} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        out.push_str(&format!("{name} {v}\n"));
    }
    for (name, h) in &snap.histograms {
        out.push_str(&format!("{name}.count {}\n", h.count));
        out.push_str(&format!("{name}.mean {:.1}\n", h.mean()));
        out.push_str(&format!("{name}.p50 {}\n", h.quantile_bound(0.5)));
        out.push_str(&format!("{name}.p99 {}\n", h.quantile_bound(0.99)));
    }
    out
}
