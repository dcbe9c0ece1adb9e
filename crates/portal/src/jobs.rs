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
use cn_core::spaces::SpaceRegistry;
use cn_core::{
    execute_descriptor_seeded, execute_with_api_seeded, ClientConfig, CnApi, DynamicArgs,
    JobHandle, Neighborhood, NeighborhoodConfig, NetMsg,
};
use cn_observe::export::json_escape;
use cn_observe::{journal_jsonl_filtered, Counter, Recorder, LATENCY_BUCKETS_US};
use cn_sync::Mutex;
use cn_transform::xmi2cnx::{xmi_to_cnx_xslt, ClientSettings};
use cn_wire::{Discovery, FabricHandle, SocketFabric, WireConfig};

use crate::admission::Admission;

pub type JobId = u64;

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
pub struct JobBoard {
    entries: Mutex<Entries>,
    next_id: AtomicU64,
    max_finished: usize,
    evictions: Counter,
}

impl JobBoard {
    /// A board that keeps at most `max_finished` terminal entries and
    /// counts evictions in `rec`.
    pub fn new(max_finished: usize, rec: &Recorder) -> JobBoard {
        JobBoard {
            entries: Mutex::named("portal.board", Entries::default()),
            next_id: AtomicU64::new(1),
            max_finished,
            evictions: rec.counter("portal.board_evictions"),
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

    /// Move an entry to a terminal state and evict the oldest-finished
    /// entries beyond the bound.
    fn finish(&self, id: JobId, terminal: impl FnOnce(&mut Entry)) {
        let mut entries = self.entries.lock();
        let Some(e) = entries.by_id.get_mut(&id) else { return };
        terminal(e);
        e.finished_at = Some(Instant::now());
        entries.finished.push_back(id);
        while entries.finished.len() > self.max_finished {
            let oldest = entries.finished.pop_front().expect("non-empty");
            entries.by_id.remove(&oldest);
            self.evictions.inc();
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

    /// The streamable journal: `None` until the job reaches a terminal
    /// state, then the full canonical journal (or the error rendering).
    pub fn journal(&self, id: JobId) -> Option<Option<Arc<String>>> {
        self.entries.lock().by_id.get(&id).map(|e| e.journal.clone())
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

/// The Figure-3 seeding every front end uses for the transitive-closure
/// example: when the descriptor has the `tctask0`/`tctask999` shape,
/// deposit the deterministic input matrix (same digraph as `cnctl
/// submit`/`trace`, so journals are cross-comparable).
pub fn seed_transitive_closure(job: &mut JobHandle, digraph_seed: u64) {
    let names = job.task_names();
    if names.iter().any(|n| n == "tctask0") && names.iter().any(|n| n == "tctask999") {
        let input = cn_tasks::random_digraph(16, 0.25, 1..9, digraph_seed);
        let worker_names: Vec<String> =
            names.iter().filter(|n| *n != "tctask0" && *n != "tctask999").cloned().collect();
        cn_tasks::seed_input(job, "matrix.txt", &input, &worker_names, "tctask999")
            .expect("seed input");
    }
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
        let api = CnApi::over(
            self.fabric()?,
            Arc::new(SpaceRegistry::with_recorder(&rec)),
            ClientConfig::default(),
            rec.clone(),
        );
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
/// busy leaves what is queued to the idle ones.
pub fn spawn_workers(
    n: usize,
    admission: Arc<Admission<JobWork>>,
    board: Arc<JobBoard>,
    runner: Arc<dyn JobRunner>,
    rec: Recorder,
    board_ttl: Duration,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..n.max(1))
        .map(|i| {
            let admission = Arc::clone(&admission);
            let board = Arc::clone(&board);
            let runner = Arc::clone(&runner);
            let rec = rec.clone();
            std::thread::Builder::new()
                .name(format!("cn-portal-worker-{i}"))
                .spawn(move || worker_loop(&admission, &board, &*runner, &rec, board_ttl))
                .expect("spawn portal worker")
        })
        .collect()
}

fn worker_loop(
    admission: &Admission<JobWork>,
    board: &JobBoard,
    runner: &dyn JobRunner,
    rec: &Recorder,
    board_ttl: Duration,
) {
    loop {
        // Board upkeep rides the worker loop: finished entries past their
        // TTL are dropped before taking on new work, so an idle-but-alive
        // portal keeps its board bounded too.
        board.evict_expired(board_ttl);
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
        match outcome {
            Ok(out) => {
                board.complete(work.id, out.journal, out.tasks);
                rec.counter("portal.jobs.completed").inc();
            }
            Err(e) => {
                rec.event_with(cn_observe::Severity::Warn, "portal", None, || {
                    format!("job j-{} failed: {e}", work.id)
                });
                board.fail(work.id, e);
                rec.counter("portal.jobs.failed").inc();
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
        JobBoard::new(max_finished, &Recorder::new())
    }

    #[test]
    fn board_lifecycle_and_status_json() {
        let board = new_board(16);
        let id = board.create();
        assert_eq!(board.state(id), Some(JobState::Queued));
        assert_eq!(board.journal(id), Some(None));
        board.mark_running(id);
        assert!(board.status_json(id).unwrap().contains("\"running\""));
        board.complete(id, "{\"x\":1}\n".to_string(), 4);
        let status = board.status_json(id).unwrap();
        assert!(status.contains("\"done\""), "{status}");
        assert!(status.contains("\"tasks\":4"), "{status}");
        assert_eq!(board.journal(id).unwrap().unwrap().as_str(), "{\"x\":1}\n");
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
        let journal = board.journal(id).unwrap().unwrap();
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
        let board = JobBoard::new(3, &rec);
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
        // (no status, no journal — a polling stream reads `job vanished`).
        for &id in &finished[..2] {
            assert_eq!(board.status_json(id), None);
            assert_eq!(board.journal(id), None);
        }
        for &id in &finished[2..] {
            assert!(board.journal(id).unwrap().is_some());
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
        let workers = spawn_workers(
            2,
            Arc::clone(&admission),
            Arc::clone(&board),
            runner,
            rec.clone(),
            Duration::from_secs(300),
        );

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
        assert_eq!(board.journal(good).unwrap().unwrap().as_str(), "{}\n");
        assert_eq!(rec.counter("portal.jobs.completed").get(), 1);
        assert_eq!(rec.counter("portal.jobs.failed").get(), 1);

        admission.close();
        for w in workers {
            w.join().expect("worker");
        }
    }
}
