//! The four closed-loop workloads: set-up, the measured phase, and the
//! figures taken from it.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::children::{self, Cluster, ClusterSample};
use crate::http::Client;
use crate::inputs::{self, Body, Rng};
use crate::json::Json;
use crate::stats::{self, Summary};

/// Fresh deployments one run sets up and measures, one after the other.
pub const PARTS: usize = 6;
/// Jobs run and discarded before measuring: enough to fill the stylesheet
/// cache and open every connection the steady state keeps, and at least
/// two windows on every connection.
const WARMUP_JOBS: usize = 8;
/// Outstanding submissions each `compile-storm` connection keeps: enough
/// to keep the compile workers fed across the portal's 20 ms journal poll.
const STORM_WINDOW: usize = 32;
/// Jobs one run may have to submit a second time (see `run_client`) before
/// each further one counts as failed. The seed commit fails about one wire
/// job in 5 000, so a run of some 460 expects 0.09 of them and sees three
/// about once in 8 000 runs; a change that fails one job in a hundred has
/// four or five a run.
pub const RETRY_ALLOWANCE: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig3Wire,
    WideWire,
    CompileStorm,
    CnxSim,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Fig3Wire, Workload::WideWire, Workload::CompileStorm, Workload::CnxSim];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Wire => "fig3-wire",
            Workload::WideWire => "wide-wire",
            Workload::CompileStorm => "compile-storm",
            Workload::CnxSim => "cnx-sim",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Is this one of `BENCHMARK.json`'s workloads, whose end-to-end metrics
    /// are held to their bounds? `compile-storm` keeps every core busy, and
    /// on unchanged code its timings move with the machine's speed by more
    /// than those bounds (README.md), so it is run, checked and reported,
    /// and a traced run carries its figures as `proc.storm_*`, but nothing
    /// is gated on them.
    pub fn gated(self) -> bool {
        self != Workload::CompileStorm
    }

    /// Closed-loop clients (threads, one connection each).
    pub fn clients(self) -> usize {
        match self {
            Workload::Fig3Wire | Workload::WideWire => 1,
            Workload::CompileStorm | Workload::CnxSim => nproc(),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// When `GET /jobs/<id>` is asked and what it must say.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StatusCheck {
    Never,
    /// Between `POST` and `/journal`, as a portal user polls: `200` and
    /// the job's own id, in any state.
    BeforeJournal,
    /// After the journal: `done` with the generator's task count.
    TasksAfterJournal,
}

/// What one client thread does.
#[derive(Clone)]
pub struct ClientPlan {
    port: u16,
    /// Bodies to draw from (one, or the seeded mix of `compile-storm`).
    bodies: Vec<Body>,
    seed: u64,
    window: usize,
    status: StatusCheck,
    /// Also `GET /metrics` after every this many jobs (0 = never).
    metrics_every: usize,
}

impl ClientPlan {
    /// One body, one job at a time, journal only.
    pub fn single(port: u16, body: Body, seed: u64) -> ClientPlan {
        ClientPlan {
            port,
            bodies: vec![body],
            seed,
            window: 1,
            status: StatusCheck::Never,
            metrics_every: 0,
        }
    }
}

#[derive(Clone, Copy)]
pub enum Stop {
    AfterJobs(usize),
    At(Instant),
}

/// Timestamps of one verified job.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Just before the first byte of `POST /jobs` was written.
    pub posted: Instant,
    /// The `202` was read in full.
    pub accepted: Instant,
    /// The last byte of the chunked journal was read.
    pub done: Instant,
}

#[derive(Debug, Default)]
pub struct ClientLog {
    pub jobs: Vec<JobRecord>,
    pub attempted: u64,
    pub failed: u64,
    /// Of `failed`: submissions the portal turned away (`429`/`503`).
    pub refused: u64,
    /// Jobs the cluster accepted and then failed (an in-band `{"error"`
    /// journal) and that were submitted once more. Not in `failed` here:
    /// `figures` counts the ones past `RETRY_ALLOWANCE` as failed.
    pub retried: u64,
    pub faults: Vec<String>,
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    fn note(&mut self, why: String) {
        if self.faults.len() < 5 {
            self.faults.push(why);
        }
    }

    fn merge(&mut self, other: ClientLog) {
        self.jobs.extend(other.jobs);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.retried += other.retried;
        self.faults.extend(other.faults);
        self.faults.truncate(5);
    }
}

struct Pending {
    id: String,
    body: usize,
    posted: Instant,
    accepted: Instant,
    /// This is the job's second submission.
    again: bool,
}

/// Why a job's answer does not count.
pub enum Fault {
    /// The cluster accepted the job and then failed it.
    JobFailed(String),
    Other(String),
}

pub fn run_client(plan: &ClientPlan, stop: Stop) -> ClientLog {
    let mut log = ClientLog::default();
    let mut http = Client::new(plan.port);
    let mut rng = Rng::new(plan.seed);
    let mut outstanding: VecDeque<Pending> = VecDeque::new();
    loop {
        let more = match stop {
            Stop::AfterJobs(n) => log.attempted < n as u64,
            Stop::At(t) => Instant::now() < t,
        };
        if more && outstanding.len() < plan.window {
            log.attempted += 1;
            let body = if plan.bodies.len() > 1 { rng.below(plan.bodies.len()) } else { 0 };
            match submit(&mut http, plan, body) {
                Ok(pending) => outstanding.push_back(pending),
                Err((why, refused)) => {
                    log.refused += u64::from(refused);
                    log.fail(why);
                    // A portal that refuses or is gone must not turn the
                    // closed loop into a busy loop.
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            continue;
        }
        let Some(pending) = outstanding.pop_front() else { break };
        match collect(&mut http, plan, &pending) {
            Ok(done) => {
                log.jobs.push(JobRecord {
                    posted: pending.posted,
                    accepted: pending.accepted,
                    done,
                });
                let n = log.jobs.len();
                if plan.metrics_every > 0 && n % plan.metrics_every == 0 {
                    if let Err(why) = scrape_metrics(&mut http) {
                        log.fail(why);
                    }
                }
            }
            // A user whose job the cluster failed submits it again, which
            // is one more attempt. The seed commit needs this about once in
            // 5 000 wire jobs: a per-job client fabric binds UDP on its
            // ephemeral TCP port number, which another fabric's send socket
            // may hold (`client bind: Address already in use`). The job
            // keeps its first `posted`, so its latency is what that user
            // waited; a job that fails twice, and every other fault, is a
            // failure at once.
            Err(Fault::JobFailed(why)) if !pending.again => {
                log.retried += 1;
                log.attempted += 1;
                log.note(format!("{}: {why}; submitted again", pending.id));
                match submit(&mut http, plan, pending.body) {
                    Ok(again) => outstanding.push_back(Pending {
                        posted: pending.posted,
                        again: true,
                        ..again
                    }),
                    Err((why, refused)) => {
                        log.refused += u64::from(refused);
                        log.fail(why);
                    }
                }
            }
            Err(Fault::JobFailed(why) | Fault::Other(why)) => {
                log.fail(format!("{}: {why}", pending.id))
            }
        }
    }
    log
}

/// `POST /jobs`; the error says whether the portal refused the job.
fn submit(http: &mut Client, plan: &ClientPlan, body: usize) -> Result<Pending, (String, bool)> {
    let posted = Instant::now();
    let resp = http.request("POST", "/jobs", &plan.bodies[body].bytes).map_err(|e| (e, false))?;
    let accepted = Instant::now();
    let text = String::from_utf8_lossy(&resp.body);
    if resp.status != 202 {
        let refused = resp.status == 429 || resp.status == 503;
        return Err((format!("POST /jobs answered {}: {}", resp.status, text.trim_end()), refused));
    }
    let id = Json::parse(&text)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_str).map(str::to_string))
        .ok_or_else(|| (format!("202 without an id: {}", text.trim_end()), false))?;
    Ok(Pending { id, body, posted, accepted, again: false })
}

/// Read the job's journal (and status, where the workload asks) and check
/// both; returns when the journal's last byte arrived.
fn collect(http: &mut Client, plan: &ClientPlan, p: &Pending) -> Result<Instant, Fault> {
    let want = &plan.bodies[p.body];
    if plan.status == StatusCheck::BeforeJournal {
        status_of(http, &p.id).map_err(Fault::Other)?;
    }
    let resp =
        http.request("GET", &format!("/jobs/{}/journal", p.id), b"").map_err(Fault::Other)?;
    let done = Instant::now();
    if resp.status != 200 {
        return Err(Fault::Other(format!("journal answered {}", resp.status)));
    }
    if let Some(fault) = inputs::journal_fault(&resp.body, &want.journal) {
        let failed = resp.body.starts_with(inputs::JOB_ERROR_PREFIX);
        return Err(if failed { Fault::JobFailed(fault) } else { Fault::Other(fault) });
    }
    if plan.status == StatusCheck::TasksAfterJournal {
        let status = status_of(http, &p.id).map_err(Fault::Other)?;
        let state = status.get("state").and_then(Json::as_str);
        let tasks = status.get("tasks").and_then(Json::as_f64);
        if state != Some("done") || tasks != Some(want.tasks as f64) {
            return Err(Fault::Other(format!(
                "want done with {} tasks, got {}",
                want.tasks,
                status.compact()
            )));
        }
    }
    Ok(done)
}

/// `GET /jobs/<id>`: `200` and a document about this job.
fn status_of(http: &mut Client, id: &str) -> Result<Json, String> {
    let resp = http.request("GET", &format!("/jobs/{id}"), b"")?;
    let text = String::from_utf8_lossy(&resp.body);
    match Json::parse(&text) {
        Ok(doc) if resp.status == 200 && doc.get("id").and_then(Json::as_str) == Some(id) => {
            Ok(doc)
        }
        _ => Err(format!("status answered {}: {}", resp.status, text.trim_end())),
    }
}

/// `GET /metrics` as `name value` lines.
fn scrape_metrics(http: &mut Client) -> Result<String, String> {
    let resp = http.request("GET", "/metrics", b"")?;
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    if resp.status != 200 || !text.contains("portal.http.requests ") {
        return Err(format!("/metrics answered {} without the request counter", resp.status));
    }
    Ok(text)
}

fn metric_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Run every client to `stop` on its own thread and merge their logs.
fn run_clients(plans: &[ClientPlan], stop: Stop) -> ClientLog {
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            plans.iter().map(|plan| scope.spawn(move || run_client(plan, stop))).collect();
        let mut all = ClientLog::default();
        for h in handles {
            all.merge(h.join().expect("client thread panicked"));
        }
        all
    })
}

/// A deployed, warmed-up workload ready to be measured.
pub struct Deployment {
    pub cluster: Cluster,
    plans: Vec<ClientPlan>,
}

/// Everything before the first measured job: inputs from the seed, their
/// reference journals, the children, readiness, and the warm-up jobs.
pub fn set_up(workload: Workload, seed: u64, cnctl: &Path) -> Result<Deployment, String> {
    let clients = workload.clients();
    let (cluster, bodies, window, status, metrics_every) = match workload {
        Workload::Fig3Wire | Workload::WideWire => {
            let workers = if workload == Workload::Fig3Wire {
                inputs::FIG3_WORKERS
            } else {
                inputs::WIDE_WORKERS
            };
            let body = inputs::executed_body(inputs::xmi(workers), workers, seed)?;
            (children::wire_cluster(cnctl, seed)?, vec![body], 1, StatusCheck::Never, 0)
        }
        Workload::CnxSim => {
            let cnx = inputs::compile(inputs::xmi(inputs::FIG3_WORKERS).as_bytes())?.cnx_text;
            let body = inputs::executed_body(cnx, inputs::FIG3_WORKERS, seed)?;
            (children::sim_portal(cnctl, seed)?, vec![body], 1, StatusCheck::BeforeJournal, 16)
        }
        Workload::CompileStorm => {
            let journal = std::sync::Arc::new(inputs::canned_journal());
            let bodies = inputs::STORM_WORKERS
                .map(|w| Body {
                    bytes: std::sync::Arc::new(inputs::xmi(w).into_bytes()),
                    journal: journal.clone(),
                    tasks: w + 2,
                })
                .collect();
            let cluster = children::stub_portal(nproc())?;
            (cluster, bodies, STORM_WINDOW, StatusCheck::TasksAfterJournal, 0)
        }
    };
    let plans: Vec<ClientPlan> = (0..clients)
        .map(|i| ClientPlan {
            port: cluster.http_port,
            bodies: bodies.clone(),
            // Each connection draws its own stream of body sizes.
            seed: seed.wrapping_mul(0x100).wrapping_add(i as u64),
            window,
            status,
            metrics_every,
        })
        .collect();
    let warm = run_clients(&plans, Stop::AfterJobs(WARMUP_JOBS.div_ceil(clients).max(2 * window)));
    if warm.failed > 0 {
        return Err(format!("{} warm-up job(s) failed: {:?}", warm.failed, warm.faults));
    }
    Ok(Deployment { cluster, plans })
}

/// What the measured part of one deployment saw.
pub struct Part {
    pub log: ClientLog,
    pub start: Instant,
    pub length: Duration,
    /// `/proc` and `/metrics` at the start and at the end.
    pub procs: (ClusterSample, ClusterSample),
    pub metrics: (String, String),
}

/// Run the deployment's clients for `length`. `/proc` and `/metrics` are
/// read from this thread, outside the timed interval.
pub fn measure(deployment: &Deployment, length: Duration) -> Result<Part, String> {
    let mut scraper = Client::new(deployment.cluster.http_port);
    let metrics_before = scrape_metrics(&mut scraper)?;
    let procs_before = deployment.cluster.sample()?;
    let start = Instant::now();
    let log = run_clients(&deployment.plans, Stop::At(start + length));
    let procs_after = deployment.cluster.sample()?;
    let metrics_after = scrape_metrics(&mut scraper)?;
    Ok(Part {
        log,
        start,
        length,
        procs: (procs_before, procs_after),
        metrics: (metrics_before, metrics_after),
    })
}

/// One run of a workload: `parts` times over, set up a fresh deployment
/// and measure it for its share of `length`. A deployment keeps for life
/// what it drew at start-up (ports, hence which peer lands on which reactor
/// shard and which server becomes JobManager), and the servers' CPU per job
/// wanders by a third over tens of seconds on unchanged code; measuring
/// several deployments and pooling them keeps one draw from being the
/// result, and gives the set-up time its own repeats. Returns the seconds
/// each set-up took and the parts.
pub fn run(
    workload: Workload,
    seed: u64,
    cnctl: &Path,
    length: Duration,
    parts: usize,
) -> Result<(Vec<f64>, Vec<Part>), String> {
    let mut setups = Vec::new();
    let mut measured = Vec::new();
    for _ in 0..parts {
        let t = Instant::now();
        let deployment = set_up(workload, seed, cnctl)?;
        setups.push(t.elapsed().as_secs_f64());
        measured.push(measure(&deployment, length / parts as u32)?);
    }
    Ok((setups, measured))
}

/// The figures of one workload run. End-to-end metrics are taken over all
/// parts pooled, with the parts' own readings as the spread; the rest are
/// layer metrics over all parts together.
#[derive(Default)]
pub struct Figures {
    pub attempted: u64,
    pub failed: u64,
    pub refused: u64,
    pub retried: u64,
    pub faults: Vec<String>,
    /// Verified jobs that ended inside their part (the timed ones).
    pub jobs: usize,
    pub job_p50_ms: Summary,
    pub jobs_per_s: Summary,
    /// Δ(`utime+stime`) of all children ÷ jobs they ran.
    pub cpu_ms_per_job: f64,
    pub rss_peak_mb: Summary,
    pub submit_p50_us: f64,
    pub submit_p99_us: f64,
    pub job_p90_ms: f64,
    pub job_max_ms: f64,
    pub jobs_per_batch: f64,
    pub portal_cpu_ms_per_job: f64,
    pub serve_cpu_ms_per_job: f64,
    pub portal_rss_mb: f64,
    pub serve_rss_mb: f64,
    pub ctx_switches_per_job: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn figures(parts: &[Part]) -> Figures {
    let mut f = Figures::default();
    let (mut p50, mut rate, mut rss) = (vec![], vec![], vec![]);
    let (mut job_ms, mut submit_us) = (vec![], vec![]);
    let (mut completed, mut batches) = (0.0, 0.0);
    let (mut portal_cpu, mut serve_cpu, mut switches) = (0.0, 0.0, 0.0);
    let (mut verified, mut busy_s) = (0.0, 0.0);
    for part in parts {
        f.attempted += part.log.attempted;
        f.failed += part.log.failed;
        f.refused += part.log.refused;
        f.retried += part.log.retried;
        f.faults.extend(part.log.faults.iter().cloned());
        // Jobs that ended after the part did (the last one of each client,
        // the tail of a window) are checked and counted as attempted, but
        // not timed: they ran while the load was already falling.
        let timed: Vec<&JobRecord> =
            part.log.jobs.iter().filter(|j| j.done < part.start + part.length).collect();
        let latencies: Vec<f64> = timed.iter().map(|j| ms(j.done - j.posted)).collect();
        let (before, after) = part.procs;
        // The children's CPU covers every job they ran, late ones too.
        let ran = part.log.jobs.len() as f64;
        if let Some(last) = timed.iter().map(|j| j.done).max() {
            // Jobs over the time to the last completion: a measured time,
            // not a count over a fixed window, so not quantised to jobs.
            let busy = (last - part.start).as_secs_f64();
            p50.push(stats::median(&latencies));
            rate.push(timed.len() as f64 / busy);
            busy_s += busy;
        }
        rss.push(after.rss_peak_mb());
        verified += ran;
        f.jobs += timed.len();
        job_ms.extend(latencies);
        submit_us.extend(timed.iter().map(|j| ms(j.accepted - j.posted) * 1e3));
        let delta =
            |name: &str| metric_value(&part.metrics.1, name) - metric_value(&part.metrics.0, name);
        completed += delta("portal.jobs.completed");
        batches += delta("portal.worker.batches");
        portal_cpu += after.portal.cpu_ms - before.portal.cpu_ms;
        serve_cpu += after.serve.cpu_ms - before.serve.cpu_ms;
        switches += after.ctx_switches() as f64 - before.ctx_switches() as f64;
        f.portal_rss_mb = f.portal_rss_mb.max(after.portal.rss_peak_mb);
        f.serve_rss_mb = f.serve_rss_mb.max(after.serve.rss_peak_mb);
    }
    f.faults.truncate(5);
    f.failed += f.retried.saturating_sub(RETRY_ALLOWANCE);
    let job_ms = stats::sorted(&job_ms);
    let submit_us = stats::sorted(&submit_us);
    if f.jobs > 0 {
        f.job_p50_ms = Summary::over(stats::median(&job_ms), &p50);
        f.jobs_per_s = Summary::over(f.jobs as f64 / busy_s, &rate);
        f.cpu_ms_per_job = (portal_cpu + serve_cpu) / verified;
        f.portal_cpu_ms_per_job = portal_cpu / verified;
        f.serve_cpu_ms_per_job = serve_cpu / verified;
        f.ctx_switches_per_job = switches / verified;
    }
    f.rss_peak_mb = Summary::of_median(&rss);
    f.submit_p50_us = stats::quantile_sorted(&submit_us, 0.50);
    f.submit_p99_us = stats::quantile_sorted(&submit_us, 0.99);
    f.job_p90_ms = stats::quantile_sorted(&job_ms, 0.90);
    f.job_max_ms = job_ms.last().copied().unwrap_or(0.0);
    if batches > 0.0 {
        f.jobs_per_batch = completed / batches;
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procfs::ProcSample;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.clients() >= 1 && w.clients() <= nproc());
        }
        assert_eq!(Workload::parse("concurrent-wire"), None);
    }

    /// A portal that answers one connection's requests from a script:
    /// `(status, body)` per request, in order.
    fn scripted_portal(script: Vec<(u16, String)>) -> (u16, std::thread::JoinHandle<Vec<String>>) {
        use std::io::{Read as _, Write as _};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut parser = cn_portal::RequestParser::new(1 << 20);
            let mut seen = Vec::new();
            let mut chunk = [0u8; 4096];
            for (status, body) in script {
                let request = loop {
                    if let Some(request) = parser.next_request().unwrap() {
                        break request;
                    }
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "client hung up before the script ended");
                    parser.feed(&chunk[..n]);
                };
                seen.push(format!("{} {}", request.method, request.target));
                let head = format!("HTTP/1.1 {status} X\r\nContent-Length: {}\r\n\r\n", body.len());
                stream.write_all(format!("{head}{body}").as_bytes()).unwrap();
            }
            seen
        });
        (port, server)
    }

    #[test]
    fn a_job_the_cluster_failed_is_submitted_once_more_and_only_once() {
        let body = Body {
            bytes: std::sync::Arc::new(b"<XMI/>".to_vec()),
            journal: std::sync::Arc::new("{\"ok\":1}\n".to_string()),
            tasks: 3,
        };
        let accepted = |id: &str| (202, format!("{{\"id\":\"{id}\",\"state\":\"queued\"}}\n"));
        let failed = (200, "{\"error\":\"client bind: Address already in use\"}\n".to_string());
        let good = (200, "{\"ok\":1}\n".to_string());
        let wrong = (200, "{\"ok\":2}\n".to_string());

        // Fails once, goes through the second time: two attempts, one
        // retry, and whether that is a failure is for `figures` to say.
        let (port, server) =
            scripted_portal(vec![accepted("j-1"), failed.clone(), accepted("j-2"), good.clone()]);
        let log = run_client(&ClientPlan::single(port, body.clone(), 1), Stop::AfterJobs(1));
        assert_eq!((log.attempted, log.failed, log.retried, log.jobs.len()), (2, 0, 1, 1));
        assert!(log.faults[0].contains("submitted again"), "{:?}", log.faults);
        assert!(log.jobs[0].posted < log.jobs[0].accepted);
        assert_eq!(
            server.join().unwrap(),
            ["POST /jobs", "GET /jobs/j-1/journal", "POST /jobs", "GET /jobs/j-2/journal"]
        );

        // Fails twice: a failure. A wrong journal is never submitted again.
        let (port, server) = scripted_portal(vec![
            accepted("j-1"),
            failed.clone(),
            accepted("j-2"),
            failed,
            accepted("j-3"),
            wrong,
        ]);
        let log = run_client(&ClientPlan::single(port, body, 1), Stop::AfterJobs(3));
        assert_eq!((log.attempted, log.failed, log.retried, log.jobs.len()), (3, 2, 1, 0));
        assert_eq!(server.join().unwrap().len(), 6);
    }

    #[test]
    fn metric_lines_match_whole_names_only() {
        let text =
            "portal.jobs.completed 41\nportal.jobs.completed_late 7\nportal.http_us.mean 3.5\n";
        assert_eq!(metric_value(text, "portal.jobs.completed"), 41.0);
        assert_eq!(metric_value(text, "portal.http_us.mean"), 3.5);
        assert_eq!(metric_value(text, "portal.jobs"), 0.0);
    }

    #[test]
    fn figures_are_taken_per_part_and_skip_late_jobs() {
        let sample = |cpu: f64, rss: f64| ClusterSample {
            portal: ProcSample { cpu_ms: cpu, rss_peak_mb: rss, ctx_switches: 0 },
            serve: ProcSample::default(),
        };
        // A part of 1 s with jobs ending at the given offsets (ms), each
        // having taken `took` ms, and the CPU its children burned.
        let part = |ends: &[u64], took: u64, cpu: f64, rss: f64| {
            let start = Instant::now();
            let at = |ms: u64| start + Duration::from_millis(ms);
            let jobs = ends
                .iter()
                .map(|&e| JobRecord {
                    posted: at(e - took),
                    accepted: at(e - took + 1),
                    done: at(e),
                })
                .collect();
            Part {
                log: ClientLog {
                    jobs,
                    attempted: 4,
                    failed: 1,
                    refused: 1,
                    retried: 1,
                    faults: vec![],
                },
                start,
                length: Duration::from_secs(1),
                procs: (sample(10.0, 5.0), sample(10.0 + cpu, rss)),
                metrics: (
                    "portal.jobs.completed 10\nportal.worker.batches 4\n".to_string(),
                    "portal.jobs.completed 17\nportal.worker.batches 6\n".to_string(),
                ),
            }
        };
        // Two jobs by 0.8 s; one by 0.5 s; three by 0.6 s and a late one.
        let parts = [
            part(&[400, 800], 400, 100.0, 6.0),
            part(&[500], 300, 30.0, 6.0),
            part(&[200, 400, 600, 1100], 200, 60.0, 9.0),
        ];
        let f = figures(&parts);
        // Three retried jobs are one more than a run is allowed.
        assert_eq!(RETRY_ALLOWANCE, 2);
        assert_eq!((f.attempted, f.failed, f.refused, f.retried, f.jobs), (12, 4, 3, 3, 6));
        let close = |s: Summary, want: [f64; 3]| {
            [s.min, s.value, s.max].iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-9)
        };
        // Six timed jobs over 0.8 + 0.5 + 0.6 s; parts read 2.5, 2 and 5.
        assert!(close(f.jobs_per_s, [2.0, 6.0 / 1.9, 5.0]), "{:?}", f.jobs_per_s);
        // Latencies 400, 400, 300, 200, 200, 200 pooled.
        assert!(close(f.job_p50_ms, [200.0, 250.0, 400.0]), "{:?}", f.job_p50_ms);
        // 190 ms of CPU over the seven jobs that ran, the late one too.
        assert!((f.cpu_ms_per_job - 190.0 / 7.0).abs() < 1e-9);
        assert!(close(f.rss_peak_mb, [6.0, 6.0, 9.0]), "{:?}", f.rss_peak_mb);
        assert_eq!(f.jobs_per_batch, 3.5);
        assert!((f.job_max_ms - 400.0).abs() < 1e-9);
        assert!((f.portal_cpu_ms_per_job - 190.0 / 7.0).abs() < 1e-9);
    }
}
