//! Jobs behind the portal: the board (id → status → journal), the
//! compile step (XMI or CNX body → validated descriptor), the runner
//! abstraction (wire cluster, simulated cluster, or a stub), and the
//! submission worker pool that drains the admission queue.
//!
//! Every job executes against its **own** [`Recorder`], so the canonical
//! journal streamed from `GET /jobs/<id>/journal` is exactly
//! [`journal_jsonl_filtered`]`(rec, ["wire"])` of that run — byte-
//! comparable with a simulated run of the same descriptor, the same
//! differential `cnctl submit --journal` pins.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_cluster::NodeSpec;
use cn_cnx::ast::CnxDocument;
use cn_core::{
    execute_descriptor_seeded, execute_with_api_seeded, ClientConfig, CnApi, DynamicArgs,
    Neighborhood, NeighborhoodConfig, NetMsg,
};
use cn_observe::export::json_escape;
use cn_observe::{journal_jsonl_filtered, Counter, Recorder, LATENCY_BUCKETS_US};
use cn_reactor::Token;
use cn_sync::Mutex;
use cn_tasks::seed_transitive_closure;
use cn_transform::xmi2cnx::{xmi_to_cnx_xslt, ClientSettings};
use cn_wire::{Discovery, FabricHandle, SocketFabric, WireConfig};

use crate::admission::Admission;

pub type JobId = u64;

/// How long a finished job's board entry (status + journal) stays
/// retrievable before the workers evict it (`portal.board_evictions`
/// counts the drops). The board also keeps at most `2 × max_inflight`
/// (never fewer than 16) finished entries, evicting the oldest-finished
/// first, so its size does not follow the job count.
const BOARD_TTL: Duration = Duration::from_secs(300);

/// Submission lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobState {
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

struct Entry {
    state: JobState,
    /// Canonical journal, available once `Done` (or the error rendering
    /// once `Failed`).
    journal: Option<Arc<String>>,
    error: Option<String>,
    tasks: usize,
    /// When the job reached a terminal state — the eviction clock for
    /// [`JobBoard::evict_expired`].
    finished_at: Option<Instant>,
    /// Reactor tokens of the connections streaming this journal, parked
    /// until the job finishes: each at most once, and a connection that
    /// closes takes its token back, so the list is bounded by the open
    /// connections streaming this job.
    waiters: Vec<Token>,
}

#[derive(Default)]
struct Entries {
    by_id: HashMap<JobId, Entry>,
    /// Terminal entries, oldest-finished first — the eviction order of
    /// both the TTL and the bound.
    finished: VecDeque<JobId>,
}

/// The job registry: connection handlers and workers share it.
///
/// Bounded: queued and running entries are capped by admission, finished
/// ones by `max_finished` (the oldest-finished goes first) and by the TTL
/// of [`JobBoard::evict_expired`]. An evicted id answers `404` like any
/// unknown job; `portal.board_evictions` counts them.
///
/// A connection that finds a journal not yet published is recorded on
/// its entry ([`JobBoard::journal_or_wait`]), and the worker that
/// publishes it calls the board's wake function with that connection's
/// token, outside the board lock.
pub struct JobBoard {
    entries: Mutex<Entries>,
    next_id: AtomicU64,
    max_finished: usize,
    evictions: Counter,
    wake: Box<dyn Fn(Token) + Send + Sync>,
}

impl JobBoard {
    /// A board that keeps at most `max_finished` terminal entries, counts
    /// evictions in `rec`, and calls `wake` once for each connection
    /// waiting on a job when the job finishes.
    pub fn new(
        max_finished: usize,
        rec: &Recorder,
        wake: Box<dyn Fn(Token) + Send + Sync>,
    ) -> JobBoard {
        JobBoard {
            entries: Mutex::named("portal.board", Entries::default()),
            next_id: AtomicU64::new(1),
            max_finished,
            evictions: rec.counter("portal.board_evictions"),
            wake,
        }
    }

    /// Register a fresh submission in `Queued` state.
    pub fn create(&self) -> JobId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.entries.lock().by_id.insert(
            id,
            Entry {
                state: JobState::Queued,
                journal: None,
                error: None,
                tasks: 0,
                finished_at: None,
                waiters: Vec::new(),
            },
        );
        id
    }

    /// Drop an entry that was rejected at admission.
    pub fn discard(&self, id: JobId) {
        self.entries.lock().by_id.remove(&id);
    }

    pub fn mark_running(&self, id: JobId) {
        if let Some(e) = self.entries.lock().by_id.get_mut(&id) {
            e.state = JobState::Running;
        }
    }

    pub fn complete(&self, id: JobId, journal: String, tasks: usize) {
        self.finish(id, |e| {
            e.state = JobState::Done;
            e.journal = Some(Arc::new(journal));
            e.tasks = tasks;
        });
    }

    pub fn fail(&self, id: JobId, error: String) {
        self.finish(id, |e| {
            e.state = JobState::Failed;
            e.journal = Some(Arc::new(format!("{{\"error\":{}}}\n", json_string(&error))));
            e.error = Some(error);
        });
    }

    /// Move an entry to a terminal state, evict the oldest-finished
    /// entries beyond the bound, and wake the connections that waited on
    /// it once the lock is released.
    fn finish(&self, id: JobId, terminal: impl FnOnce(&mut Entry)) {
        let waiters = {
            let mut entries = self.entries.lock();
            let Some(e) = entries.by_id.get_mut(&id) else { return };
            terminal(e);
            e.finished_at = Some(Instant::now());
            let waiters = std::mem::take(&mut e.waiters);
            entries.finished.push_back(id);
            while entries.finished.len() > self.max_finished {
                let Some(oldest) = entries.finished.pop_front() else { break };
                entries.by_id.remove(&oldest);
                self.evictions.inc();
            }
            waiters
        };
        // Injected ordering bug for cn-check: the waiters are taken off the
        // entry and never woken, so a parked stream only ends at its give-up.
        #[cfg(feature = "mutations")]
        let waiters: Vec<Token> = {
            drop(waiters);
            Vec::new()
        };
        for token in waiters {
            (self.wake)(token);
        }
    }

    /// Evict terminal entries older than `ttl`, returning how many were
    /// dropped. Queued and running jobs never expire — only finished ones
    /// whose journal has had `ttl` to be collected. Keeps an idle portal's
    /// board shrinking without a background sweeper thread (the workers
    /// call this between jobs).
    pub fn evict_expired(&self, ttl: Duration) -> usize {
        let mut entries = self.entries.lock();
        let mut evicted = 0;
        while let Some(&oldest) = entries.finished.front() {
            let expired = entries
                .by_id
                .get(&oldest)
                .and_then(|e| e.finished_at)
                .is_none_or(|t| t.elapsed() >= ttl);
            if !expired {
                break;
            }
            entries.finished.pop_front();
            entries.by_id.remove(&oldest);
            evicted += 1;
        }
        self.evictions.add(evicted as u64);
        evicted
    }

    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.entries.lock().by_id.get(&id).map(|e| e.state)
    }

    /// The streamable journal: the full canonical journal (or the error
    /// rendering) once the job is terminal, else `None` with `token`
    /// recorded to be woken when it gets there. Reading and recording
    /// share one critical section, so a publish cannot fall between them.
    pub fn journal_or_wait(&self, id: JobId, token: Token) -> Option<Option<Arc<String>>> {
        let mut entries = self.entries.lock();
        let e = entries.by_id.get_mut(&id)?;
        if e.journal.is_none() && !e.waiters.contains(&token) {
            e.waiters.push(token);
        }
        Some(e.journal.clone())
    }

    /// Take `token` off `id`'s waiters: its connection stopped waiting.
    pub fn stop_waiting(&self, id: JobId, token: Token) {
        if let Some(e) = self.entries.lock().by_id.get_mut(&id) {
            e.waiters.retain(|t| *t != token);
        }
    }

    /// The `GET /jobs/<id>` body.
    pub fn status_json(&self, id: JobId) -> Option<String> {
        let entries = self.entries.lock();
        let e = entries.by_id.get(&id)?;
        let mut out = format!("{{\"id\":\"j-{id}\",\"state\":\"{}\"", e.state.as_str());
        if e.state == JobState::Done {
            out.push_str(&format!(",\"tasks\":{}", e.tasks));
        }
        if let Some(err) = &e.error {
            out.push_str(&format!(",\"error\":{}", json_string(err)));
        }
        out.push_str("}\n");
        Some(out)
    }
}

/// A quoted JSON string, for the identifiers and error texts the portal's
/// status bodies and `cnctl check --format json` embed.
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Parse the wire-format job id (`j-<n>`) out of a request path segment.
pub fn parse_job_id(segment: &str) -> Option<JobId> {
    segment.strip_prefix("j-")?.parse().ok()
}

/// A compiled submission, ready to execute.
pub struct CompiledJob {
    pub descriptor: CnxDocument,
    pub cnx_text: String,
}

/// What a runner reports back for a completed job.
pub struct RunOutcome {
    /// Canonical journal (`journal_jsonl_filtered(rec, ["wire"])`).
    pub journal: String,
    /// Total task results across the descriptor's jobs.
    pub tasks: usize,
}

/// Executes a compiled job against some cluster. The portal is generic
/// over this so the same HTTP front end serves a live wire cluster
/// (production), an in-process simulated neighborhood (self-contained
/// demos), or a stub (benchmarks, tests).
pub trait JobRunner: Send + Sync + 'static {
    fn run(&self, job: &CompiledJob) -> Result<RunOutcome, String>;
}

/// Runs jobs over the real socket fabric against `cnctl serve` workers —
/// the production path. The process binds one client fabric per cluster on
/// its first job and keeps it: each job registers an endpoint of its own on
/// it and runs against a recorder of its own, so its journal is exactly
/// what one `cnctl submit` invocation would write.
pub struct WireRunner {
    pub discovery: Discovery,
    pub batch: bool,
    pub reactor_shards: usize,
    pub timeout: Duration,
    pub digraph_seed: u64,
}

/// What a client fabric is bound for: a `WireRunner`'s discovery, batching
/// and shard count.
type FabricKey = (Discovery, bool, usize);

/// The process's client fabrics, each created by the first job that needed
/// it and kept for the life of the process, as the paper's client acquires
/// its CN API factory once. A table rather than a `WireRunner` field only
/// because callers outside this crate build the runner with a struct
/// literal. Each fabric records its own `wire.*` counters and connection
/// spans.
static CLIENT_FABRICS: Mutex<Vec<(FabricKey, FabricHandle<NetMsg>)>> =
    Mutex::named("portal.client_fabrics", Vec::new());

impl WireRunner {
    /// This runner's client fabric: the one an earlier job bound, or a new
    /// one.
    fn fabric(&self) -> Result<FabricHandle<NetMsg>, String> {
        let key = (self.discovery.clone(), self.batch, self.reactor_shards);
        let mut fabrics = CLIENT_FABRICS.lock();
        if let Some((_, fabric)) = fabrics.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(fabric));
        }
        let cfg = WireConfig {
            discovery: self.discovery.clone(),
            batch: self.batch,
            reactor_shards: self.reactor_shards,
            ..WireConfig::default()
        };
        let fabric: FabricHandle<NetMsg> = Arc::new(
            SocketFabric::new(cfg, Recorder::new()).map_err(|e| format!("client bind: {e}"))?,
        );
        fabrics.push((key, Arc::clone(&fabric)));
        Ok(fabric)
    }
}

impl JobRunner for WireRunner {
    fn run(&self, job: &CompiledJob) -> Result<RunOutcome, String> {
        let rec = Recorder::new();
        let api = CnApi::over(self.fabric()?, ClientConfig::default(), rec.clone());
        let seed = self.digraph_seed;
        let reports = execute_with_api_seeded(
            &api,
            &job.descriptor,
            &DynamicArgs::new(),
            self.timeout,
            |job| seed_transitive_closure(job, seed),
        )
        .map_err(|e| format!("execution: {e}"))?;
        Ok(RunOutcome {
            journal: journal_jsonl_filtered(&rec, &["wire"]),
            tasks: reports.iter().map(|r| r.results.len()).sum(),
        })
    }
}

/// Runs jobs on an in-process simulated neighborhood — the self-contained
/// mode (`cnctl portal --sim N`). One deployment per job keeps journals
/// deterministic and byte-identical to a standalone simulated run.
pub struct SimRunner {
    pub nodes: usize,
    pub timeout: Duration,
    pub digraph_seed: u64,
}

impl JobRunner for SimRunner {
    fn run(&self, job: &CompiledJob) -> Result<RunOutcome, String> {
        let rec = Recorder::new();
        let nb = Neighborhood::deploy_with(
            NodeSpec::fleet(self.nodes, 8192, 16),
            NeighborhoodConfig { recorder: rec.clone(), ..NeighborhoodConfig::default() },
        );
        cn_tasks::publish_all_archives(nb.registry());
        let seed = self.digraph_seed;
        let result = execute_descriptor_seeded(
            &nb,
            &job.descriptor,
            &DynamicArgs::new(),
            self.timeout,
            |job| seed_transitive_closure(job, seed),
        );
        nb.shutdown();
        let reports = result.map_err(|e| format!("execution: {e}"))?;
        Ok(RunOutcome {
            journal: journal_jsonl_filtered(&rec, &["wire"]),
            tasks: reports.iter().map(|r| r.results.len()).sum(),
        })
    }
}

/// Validates the descriptor and returns a canned journal without touching
/// any cluster — load tests and HTTP-layer tests use this to keep the
/// front end honest (parse, compile, admission) while execution is free.
pub struct StubRunner {
    pub journal: String,
    pub delay: Duration,
}

impl JobRunner for StubRunner {
    fn run(&self, job: &CompiledJob) -> Result<RunOutcome, String> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        Ok(RunOutcome { journal: self.journal.clone(), tasks: job.descriptor.task_count() })
    }
}

/// Sniff + compile one submission body: XMI goes through the cached
/// XMI2CNX stylesheet, anything else must already be CNX. Both end in
/// parse + validate.
pub fn compile_submission(body: &[u8]) -> Result<CompiledJob, String> {
    let text = std::str::from_utf8(body).map_err(|_| "submission body is not UTF-8".to_string())?;
    let cnx_text = if looks_like_xmi(text) {
        xmi_to_cnx_xslt(text, &ClientSettings::default()).map_err(|e| format!("XMI2CNX: {e}"))?
    } else {
        text.to_string()
    };
    let descriptor = cn_cnx::parse_cnx(&cnx_text).map_err(|e| format!("CNX parse: {e}"))?;
    cn_cnx::validate(&descriptor).map_err(|e| format!("CNX validation: {e}"))?;
    Ok(CompiledJob { descriptor, cnx_text })
}

/// Is the body's first start tag an `XMI` element? Reads no further than
/// that tag: whether the rest is well-formed is the compile's to say.
pub fn looks_like_xmi(text: &str) -> bool {
    let mut reader = cn_xml::Reader::new(text);
    loop {
        match reader.next_event() {
            Ok(cn_xml::Event::StartTag { name, .. }) => return name.local() == "XMI",
            Ok(cn_xml::Event::Eof) | Err(_) => return false,
            Ok(_) => {}
        }
    }
}

/// One queued unit of work: the job id plus the raw uploaded body.
pub struct JobWork {
    pub id: JobId,
    pub body: Vec<u8>,
}

/// Spawn the submission workers that drain the admission queue, one
/// submission per wake-up: compile, execute via the runner, publish the
/// journal on the board, release the admission slot. A worker that is
/// busy leaves what is queued to the idle ones. If a thread cannot be
/// started, the admission queue is closed, the workers already running are
/// joined and the error is returned.
pub fn spawn_workers(
    n: usize,
    admission: Arc<Admission<JobWork>>,
    board: Arc<JobBoard>,
    runner: Arc<dyn JobRunner>,
    rec: Recorder,
) -> std::io::Result<Vec<std::thread::JoinHandle<()>>> {
    let mut workers = Vec::new();
    for i in 0..n.max(1) {
        let (queue, board) = (Arc::clone(&admission), Arc::clone(&board));
        let (runner, rec) = (Arc::clone(&runner), rec.clone());
        let spawned = std::thread::Builder::new()
            .name(format!("cn-portal-worker-{i}"))
            .spawn(move || worker_loop(&queue, &board, &*runner, &rec));
        match spawned {
            Ok(worker) => workers.push(worker),
            Err(e) => {
                admission.close();
                for worker in workers {
                    let _ = worker.join();
                }
                return Err(e);
            }
        }
    }
    Ok(workers)
}

fn worker_loop(
    admission: &Admission<JobWork>,
    board: &JobBoard,
    runner: &dyn JobRunner,
    rec: &Recorder,
) {
    loop {
        // Board upkeep rides the worker loop: finished entries past their
        // TTL are dropped before taking on new work, so an idle-but-alive
        // portal keeps its board bounded too.
        board.evict_expired(BOARD_TTL);
        let Some((key, work)) = admission.next(Duration::from_millis(100)) else {
            if admission.is_closed() {
                return;
            }
            continue;
        };
        rec.counter("portal.worker.batches").inc();
        let compiled = compile_submission(&work.body);
        board.mark_running(work.id);
        let started = Instant::now();
        // A panic in the runner is one more way for the job to fail:
        // unwinding past here would leave the board entry `running`, the
        // admission slot taken and this worker gone for good.
        let outcome = compiled.and_then(|job| {
            let run = std::panic::AssertUnwindSafe(|| runner.run(&job));
            std::panic::catch_unwind(run).unwrap_or_else(|payload| {
                Err(format!("runner panicked: {}", cn_core::task::panic_text(&*payload)))
            })
        });
        rec.histogram("portal.job_us", LATENCY_BUCKETS_US)
            .record(started.elapsed().as_micros() as u64);
        // Counted before the board publishes: publishing wakes the streams
        // parked on the job, and a client that has read the journal must
        // find the job counted.
        match outcome {
            Ok(out) => {
                rec.counter("portal.jobs.completed").inc();
                board.complete(work.id, out.journal, out.tasks);
            }
            Err(e) => {
                rec.event_with(cn_observe::Severity::Warn, "portal", None, || {
                    format!("job j-{} failed: {e}", work.id)
                });
                rec.counter("portal.jobs.failed").inc();
                board.fail(work.id, e);
            }
        }
        admission.finish(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure2_cnx() -> String {
        cn_cnx::write_cnx(&cn_cnx::ast::figure2_descriptor(2))
    }

    fn new_board(max_finished: usize) -> JobBoard {
        JobBoard::new(max_finished, &Recorder::new(), Box::new(|_| {}))
    }

    /// A board whose wake function reports each token it is called with.
    fn watched_board() -> (Arc<JobBoard>, cn_sync::channel::Receiver<Token>) {
        let (tx, rx) = cn_sync::channel::unbounded();
        let wake = Box::new(move |token| tx.send(token).expect("test alive"));
        (Arc::new(JobBoard::new(16, &Recorder::new(), wake)), rx)
    }

    /// Every token woken so far.
    fn woken(wakes: &cn_sync::channel::Receiver<Token>) -> Vec<Token> {
        std::iter::from_fn(|| wakes.try_recv().ok()).collect()
    }

    #[test]
    fn board_lifecycle_and_status_json() {
        let board = new_board(16);
        let id = board.create();
        assert_eq!(board.state(id), Some(JobState::Queued));
        assert_eq!(board.journal_or_wait(id, 1), Some(None));
        board.mark_running(id);
        assert!(board.status_json(id).unwrap().contains("\"running\""));
        board.complete(id, "{\"x\":1}\n".to_string(), 4);
        let status = board.status_json(id).unwrap();
        assert!(status.contains("\"done\""), "{status}");
        assert!(status.contains("\"tasks\":4"), "{status}");
        assert_eq!(board.journal_or_wait(id, 1).unwrap().unwrap().as_str(), "{\"x\":1}\n");
        assert_eq!(board.status_json(999), None);
    }

    #[test]
    fn failed_jobs_surface_the_error_in_both_views() {
        let board = new_board(16);
        let id = board.create();
        board.fail(id, "boom \"quoted\"".to_string());
        let status = board.status_json(id).unwrap();
        assert!(status.contains("\"failed\""), "{status}");
        assert!(status.contains("boom \\\"quoted\\\""), "{status}");
        let journal = board.journal_or_wait(id, 1).unwrap().unwrap();
        assert!(journal.starts_with("{\"error\":"), "{journal}");
    }

    #[test]
    fn eviction_drops_only_expired_terminal_entries() {
        let board = new_board(16);
        let queued = board.create();
        let running = board.create();
        board.mark_running(running);
        let done = board.create();
        board.complete(done, "{}\n".to_string(), 1);
        let failed = board.create();
        board.fail(failed, "boom".to_string());

        // A generous TTL keeps everything.
        assert_eq!(board.evict_expired(Duration::from_secs(3600)), 0);
        assert!(board.state(done).is_some());

        // TTL zero expires exactly the terminal entries; live jobs stay.
        assert_eq!(board.evict_expired(Duration::ZERO), 2);
        assert_eq!(board.state(done), None);
        assert_eq!(board.state(failed), None);
        assert_eq!(board.status_json(done), None);
        assert_eq!(board.state(queued), Some(JobState::Queued));
        assert_eq!(board.state(running), Some(JobState::Running));
    }

    #[test]
    fn finished_entries_beyond_the_bound_evict_oldest_first() {
        let rec = Recorder::new();
        let board = JobBoard::new(3, &rec, Box::new(|_| {}));
        let queued = board.create();
        let running = board.create();
        board.mark_running(running);
        let finished: Vec<JobId> = (0..5)
            .map(|i| {
                let id = board.create();
                if i % 2 == 0 {
                    board.complete(id, "{}\n".to_string(), 1);
                } else {
                    board.fail(id, "boom".to_string());
                }
                id
            })
            .collect();

        // Two past the bound: the two that finished first answer 404 now
        // (no status, no journal — a stream reading it gets `job vanished`).
        for &id in &finished[..2] {
            assert_eq!(board.status_json(id), None);
            assert_eq!(board.journal_or_wait(id, 1), None);
        }
        for &id in &finished[2..] {
            assert!(board.journal_or_wait(id, 1).unwrap().is_some());
        }
        assert_eq!(rec.counter("portal.board_evictions").get(), 2);
        // Live entries are not the bound's to take.
        assert_eq!(board.state(queued), Some(JobState::Queued));
        assert_eq!(board.state(running), Some(JobState::Running));

        // The TTL walks the same order and shares the counter.
        assert_eq!(board.evict_expired(Duration::ZERO), 3);
        assert_eq!(rec.counter("portal.board_evictions").get(), 5);
        board.complete(running, "{}\n".to_string(), 1);
        assert_eq!(board.state(running), Some(JobState::Done));
    }

    #[test]
    fn a_waiting_token_is_recorded_once() {
        let (board, wakes) = watched_board();
        let id = board.create();
        assert_eq!(board.journal_or_wait(id, 7), Some(None));
        board.mark_running(id);
        assert_eq!(board.journal_or_wait(id, 7), Some(None));
        board.complete(id, "{}\n".to_string(), 1);
        assert_eq!(wakes.try_recv(), Ok(7));
        assert!(wakes.try_recv().is_err(), "one token, woken twice");
        // A finished job answers at once and records nobody.
        assert!(board.journal_or_wait(id, 8).unwrap().is_some());
    }

    #[test]
    fn complete_and_fail_each_wake_their_waiters_exactly_once() {
        let (board, wakes) = watched_board();
        let done = board.create();
        let failed = board.create();
        assert_eq!(board.journal_or_wait(done, 1), Some(None));
        assert_eq!(board.journal_or_wait(done, 2), Some(None));
        assert_eq!(board.journal_or_wait(failed, 3), Some(None));

        board.complete(done, "{}\n".to_string(), 1);
        let mut first = woken(&wakes);
        first.sort_unstable();
        assert_eq!(first, [1, 2]);
        board.fail(failed, "boom".to_string());
        assert_eq!(woken(&wakes), [3]);

        // A second finish of either finds no one left to wake.
        board.complete(done, "{}\n".to_string(), 1);
        board.fail(failed, "boom".to_string());
        assert!(wakes.try_recv().is_err(), "a waiter was woken twice");
    }

    #[test]
    fn the_wake_runs_outside_the_board_lock() {
        // The wake function reads the board itself: called with the board
        // lock held, it would deadlock rather than report.
        let (tx, rx) = cn_sync::channel::unbounded();
        let slot: Arc<std::sync::OnceLock<std::sync::Weak<JobBoard>>> = Arc::default();
        let wake = {
            let slot = Arc::clone(&slot);
            Box::new(move |token: Token| {
                let board = slot.get().and_then(std::sync::Weak::upgrade).expect("board alive");
                tx.send(board.state(token)).expect("test alive");
            })
        };
        let board = Arc::new(JobBoard::new(16, &Recorder::new(), wake));
        assert!(slot.set(Arc::downgrade(&board)).is_ok());
        let id = board.create();
        assert_eq!(board.journal_or_wait(id, id), Some(None));

        let worker = {
            let board = Arc::clone(&board);
            std::thread::spawn(move || board.complete(id, "{}\n".to_string(), 1))
        };
        let seen = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(seen, Ok(Some(JobState::Done)), "wake ran under the board lock");
        worker.join().expect("worker");
    }

    #[test]
    fn a_token_that_stopped_waiting_is_not_woken() {
        let (board, wakes) = watched_board();
        let id = board.create();
        assert_eq!(board.journal_or_wait(id, 1), Some(None));
        assert_eq!(board.journal_or_wait(id, 2), Some(None));
        board.stop_waiting(id, 1);
        board.stop_waiting(999, 2);
        board.complete(id, "{}\n".to_string(), 1);
        assert_eq!(woken(&wakes), [2]);
    }

    #[test]
    fn job_id_round_trips() {
        assert_eq!(parse_job_id("j-42"), Some(42));
        assert_eq!(parse_job_id("42"), None);
        assert_eq!(parse_job_id("j-x"), None);
    }

    #[test]
    fn compile_accepts_cnx_and_rejects_garbage() {
        let ok = compile_submission(figure2_cnx().as_bytes()).unwrap();
        assert!(ok.descriptor.task_count() >= 4);
        let err = match compile_submission(b"definitely not a descriptor") {
            Ok(_) => panic!("garbage compiled"),
            Err(e) => e,
        };
        assert!(err.contains("CNX parse"), "{err}");
        // An `<XMI` root is sniffed from its start tag alone, so a body cut
        // off further down is the transform's error, not the CNX parser's.
        let xmi = cn_xml::write_document(
            &cn_model::export_xmi(&cn_transform::figure2_model(2)),
            &cn_xml::WriteOptions::xmi(),
        );
        let truncated = &xmi[..xmi.len() / 2];
        assert!(looks_like_xmi(truncated));
        assert!(!looks_like_xmi("<?xml version=\"1.0\"?><!-- XMI --><cn2/>"));
        assert!(!looks_like_xmi("<XMI"));
        let err = match compile_submission(truncated.as_bytes()) {
            Ok(_) => panic!("truncated XMI compiled"),
            Err(e) => e,
        };
        assert!(err.starts_with("XMI2CNX: "), "{err}");
    }

    #[test]
    fn hostile_bodies_fail_at_their_stage_without_a_panic() {
        let stage = |body: &[u8]| match compile_submission(body) {
            Ok(_) => panic!("a hostile body of {} bytes compiled", body.len()),
            Err(e) => {
                let known = ["XMI2CNX: ", "CNX parse: ", "CNX validation: "];
                assert!(known.iter().any(|p| e.starts_with(p)), "{e}");
            }
        };
        // The Figure-3 XMI cut short, at every 97th offset and at each of
        // its last 64 (a cut that drops only the trailing newline still
        // compiles, so the last cut is at `len - 2`).
        let xmi = cn_xml::write_document(
            &cn_model::export_xmi(&cn_transform::figure2_model(2)),
            &cn_xml::WriteOptions::xmi(),
        );
        let last = xmi.len() - 1;
        for cut in (0..last).step_by(97).chain(last.saturating_sub(64)..last) {
            stage(&xmi.as_bytes()[..cut]);
        }
        // 100 000 nested elements under each root the compile reads.
        let nested = |open: &str, close: &str| {
            let (depth, mut body) = (100_000, open.to_string());
            body.push_str(&"<x>".repeat(depth));
            body.push_str(&"</x>".repeat(depth));
            body.push_str(close);
            body
        };
        stage(nested("<XMI>", "</XMI>").as_bytes());
        stage(nested("<XMI><UML:ActivityGraph>", "</UML:ActivityGraph></XMI>").as_bytes());
        stage(nested("<cn2>", "</cn2>").as_bytes());
    }

    #[test]
    fn compile_accepts_xmi() {
        let xmi = cn_xml::write_document(
            &cn_model::export_xmi(&cn_transform::figure2_model(2)),
            &cn_xml::WriteOptions::xmi(),
        );
        let job = compile_submission(xmi.as_bytes()).unwrap();
        assert!(job.cnx_text.contains("tctask999"), "{}", job.cnx_text);
    }

    #[test]
    fn workers_drain_compile_and_publish() {
        let admission: Arc<Admission<JobWork>> = Arc::new(Admission::new(8, 8));
        let board = Arc::new(new_board(16));
        let rec = Recorder::new();
        let runner = Arc::new(StubRunner { journal: "{}\n".to_string(), delay: Duration::ZERO });
        let workers =
            spawn_workers(2, Arc::clone(&admission), Arc::clone(&board), runner, rec.clone())
                .unwrap();

        let good = board.create();
        admission.submit(1, JobWork { id: good, body: figure2_cnx().into_bytes() }).unwrap();
        let bad = board.create();
        admission.submit(2, JobWork { id: bad, body: b"junk".to_vec() }).unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        while board.state(good) != Some(JobState::Done)
            || board.state(bad) != Some(JobState::Failed)
        {
            assert!(Instant::now() < deadline, "workers never finished the jobs");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(board.journal_or_wait(good, 1).unwrap().unwrap().as_str(), "{}\n");
        assert_eq!(rec.counter("portal.jobs.completed").get(), 1);
        assert_eq!(rec.counter("portal.jobs.failed").get(), 1);

        admission.close();
        for w in workers {
            w.join().expect("worker");
        }
    }
}
