//! The staged replay: the Figure-6 path of one job walked in this process,
//! stage by stage, against freshly spawned `cnctl serve` processes, with a
//! span around each public call. Its rows sum to its own total; what the
//! black-box `job_p50_ms` has on top of that sum (admission queue wait,
//! the portal's journal poll, socket hops) is `unattributed_ms`, which only
//! tracing inside the programs can split.

use std::path::Path;
use std::time::{Duration, Instant};

use cn_portal::{looks_like_xmi, CompiledJob, JobRunner, RequestParser, WireRunner};
use cn_transform::xmi2cnx::ClientSettings;
use cn_wire::Discovery;

use crate::children;
use crate::http::Client;
use crate::inputs::{self, Body};
use crate::json::Json;
use crate::layers::{chunked_journal, decode_chunked, post_request};
use crate::report::Layers;
use crate::stats::{self, Timing};
use crate::workloads::{self, ClientPlan, Fault, Stop, RETRY_ALLOWANCE};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one replayed job share its number.
    pub job: u64,
    pub model: &'static str,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    on: bool,
    model: &'static str,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), on: true, model: "" }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, job, model: self.model });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    fn stage<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, job);
        let out = f();
        self.close(span);
        out
    }

    /// The spans as a Chrome-trace (`chrome://tracing`, Perfetto) document:
    /// one complete event per span, one row per model.
    pub fn chrome_trace(&self) -> String {
        let events = self.spans.iter().map(|s| {
            let parent = s.parent.map(|p| self.spans[p].name).unwrap_or("");
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.model)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(if s.model == "fig3" { 1.0 } else { 2.0 })),
                (
                    "args",
                    Json::obj([("job", Json::Num(s.job as f64)), ("parent", Json::str(parent))]),
                ),
            ])
        });
        Json::Arr(events.collect()).pretty()
    }
}

/// Jobs of each model the replay walks traced, and as many untraced.
const JOBS: usize = 50;

/// The stages of one job, in path order, with the unit each is reported in.
pub const STAGES: [(&str, &str); 7] = [
    ("http_parse", "us"),
    ("sniff", "us"),
    ("xmi2cnx", "us"),
    ("cnx_parse", "us"),
    ("cnx_validate", "us"),
    ("run", "ms"),
    ("journal_encode", "us"),
];

/// Walk one submission down the path the portal takes it, calling the
/// same public functions in the same order. Returns the seconds it took.
fn replay_job(
    tracer: &mut Tracer,
    job: u64,
    request: &[u8],
    runner: &WireRunner,
    want: &str,
) -> Result<f64, Fault> {
    let other = |e: String| Fault::Other(e);
    let started = Instant::now();
    let root = tracer.open("job", None, job);
    let parsed = tracer.stage("http_parse", root, job, || {
        let mut parser = RequestParser::new(cn_portal::http::DEFAULT_MAX_BODY_BYTES);
        parser.feed(request);
        parser.next_request()
    });
    let parsed = parsed
        .map_err(|e| other(e.to_string()))?
        .ok_or_else(|| other("request is incomplete".into()))?;
    let text = std::str::from_utf8(&parsed.body).map_err(|_| other("body is not UTF-8".into()))?;
    if !tracer.stage("sniff", root, job, || looks_like_xmi(text)) {
        return Err(other("replayed body is not XMI".into()));
    }
    let cnx_text = tracer
        .stage("xmi2cnx", root, job, || {
            cn_transform::xmi_to_cnx_xslt(text, &ClientSettings::default())
        })
        .map_err(|e| other(format!("XMI2CNX: {e}")))?;
    let descriptor = tracer
        .stage("cnx_parse", root, job, || cn_cnx::parse_cnx(&cnx_text))
        .map_err(|e| other(format!("CNX parse: {e}")))?;
    tracer
        .stage("cnx_validate", root, job, || cn_cnx::validate(&descriptor))
        .map_err(|e| other(format!("CNX validation: {e}")))?;
    let compiled = CompiledJob { descriptor, cnx_text };
    // What the portal would stream as an in-band `{"error"` journal.
    let outcome =
        tracer.stage("run", root, job, || runner.run(&compiled)).map_err(Fault::JobFailed)?;
    let streamed = tracer
        .stage("journal_encode", root, job, || {
            decode_chunked(&chunked_journal(outcome.journal.as_bytes()))
        })
        .map_err(other)?;
    tracer.close(root);
    let took = started.elapsed().as_secs_f64();
    match inputs::journal_fault(&streamed, want) {
        Some(fault) => Err(other(fault)),
        None => Ok(took),
    }
}

/// `replay_job`, walked once more when the cluster failed the job, as the
/// black-box client submits such a job again; the failed walk's spans are
/// dropped. `retried` counts such jobs and `RETRY_ALLOWANCE` caps them.
fn replay_retrying(
    tracer: &mut Tracer,
    job: u64,
    request: &[u8],
    runner: &WireRunner,
    want: &str,
    retried: &mut u64,
) -> Result<f64, String> {
    let mark = tracer.spans.len();
    let mut outcome = replay_job(tracer, job, request, runner, want);
    if let Err(Fault::JobFailed(why)) = &outcome {
        if *retried < RETRY_ALLOWANCE {
            eprintln!("cnbench: replayed job {job}: {why}; walked again");
            *retried += 1;
            tracer.spans.truncate(mark);
            outcome = replay_job(tracer, job, request, runner, want);
        }
    }
    outcome.map_err(|(Fault::JobFailed(why) | Fault::Other(why))| why)
}

/// Seconds each span named `name` of `model` took.
fn durations(tracer: &Tracer, model: &str, name: &str) -> Vec<f64> {
    tracer
        .spans
        .iter()
        .filter(|s| s.model == model && s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect()
}

fn stage_metric(model: &str, stage: &str, unit: &str) -> String {
    format!("stage.{model}.{stage}_{unit}")
}

fn scale(unit: &str) -> f64 {
    if unit == "ms" {
        1e3
    } else {
        1e6
    }
}

/// Round trips of one keep-alive `GET`, in microseconds.
fn rtt_us(http: &mut Client, target: &str, budget: Duration) -> Result<Timing, String> {
    let mut get = || -> Result<f64, String> {
        let t = Instant::now();
        let response = http.request("GET", target, b"")?;
        let took = t.elapsed().as_secs_f64();
        if response.status == 200 {
            Ok(took * 1e6)
        } else {
            Err(format!("GET {target} answered {}", response.status))
        }
    };
    get()?;
    let start = Instant::now();
    let mut us = Vec::new();
    while us.len() < 50 || start.elapsed() < budget {
        us.push(get()?);
    }
    Ok(Timing::of(&us))
}

/// Spawn a wire cluster, measure both models black-box through its portal
/// and replayed against its servers (`JOBS` of each, traced and untraced
/// alternating), and fill in every `stage.*` figure plus the ones derived
/// from them.
pub fn run(
    cnctl: &Path,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let cluster = children::wire_cluster(cnctl, seed)?;
    // What `cnctl portal --peers` builds for itself, here in this process.
    let runner = WireRunner {
        discovery: Discovery::Loopback { peers: cluster.serve_ports.clone() },
        batch: true,
        reactor_shards: 0,
        timeout: Duration::from_secs(60),
        digraph_seed: seed,
    };
    let mut l = Layers::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut run_ms = Vec::new();
    let (mut job_number, mut retried) = (0, 0);
    for (model, workers) in [("fig3", inputs::FIG3_WORKERS), ("wide", inputs::WIDE_WORKERS)] {
        let body: Body = inputs::executed_body(inputs::xmi(workers), workers, seed)?;
        let request = post_request(&body.bytes);

        // Black box: the same body through the portal, one client.
        let plan = ClientPlan::single(cluster.http_port, body.clone(), seed);
        let log = workloads::run_client(&plan, Stop::AfterJobs(3 + JOBS));
        retried += log.retried;
        if log.failed > 0 || retried > RETRY_ALLOWANCE {
            return Err(format!("black-box {model} jobs failed: {:?}", log.faults));
        }
        let black_box_ms: Vec<f64> =
            log.jobs.iter().skip(3).map(|j| (j.done - j.posted).as_secs_f64() * 1e3).collect();

        // Replay: warm once, then traced and untraced turn by turn.
        tracer.model = model;
        tracer.on = false;
        let mut replay = |tracer: &mut Tracer, job| {
            replay_retrying(tracer, job, &request, &runner, &body.journal, &mut retried)
        };
        replay(tracer, 0)?;
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        for _ in 0..JOBS {
            job_number += 1;
            tracer.on = true;
            traced.push(replay(tracer, job_number)?);
            tracer.on = false;
            untraced.push(replay(tracer, job_number)?);
        }

        let mut rows_ms = 0.0;
        for (stage, unit) in STAGES {
            let timing = Timing::of(&durations(tracer, model, stage)).map(|s| s * scale(unit));
            rows_ms += timing.median * 1e3 / scale(unit);
            l.put(&stage_metric(model, stage, unit), timing);
        }
        let total = Timing::of(&durations(tracer, model, "job")).map(|s| s * 1e3);
        if (rows_ms - total.median).abs() > 0.05 * total.median {
            return Err(format!(
                "{model}: stage rows sum to {rows_ms:.3} ms, not within 5 % of the total {:.3} ms",
                total.median
            ));
        }
        l.put(&stage_metric(model, "total", "ms"), total);
        l.put_value(
            &stage_metric(model, "unattributed", "ms"),
            stats::median(&black_box_ms) - rows_ms,
        );
        run_ms.push(l.get(&stage_metric(model, "run", "ms")).expect("put above"));
        traced_s += stats::median(&traced);
        untraced_s += stats::median(&untraced);
    }
    let (fig3_run, wide_run) = (run_ms[0], run_ms[1]);
    let extra_tasks = (inputs::WIDE_WORKERS - inputs::FIG3_WORKERS) as f64;
    l.put_value("core.place_ms_per_task", (wide_run.median - fig3_run.median) / extra_tasks);
    l.put_value("proc.trace_overhead_share", (traced_s - untraced_s) / untraced_s);

    // The HTTP + reactor floor of the same portal, and a board read.
    let mut http = Client::new(cluster.http_port);
    l.put("portal.healthz_rtt_us", rtt_us(&mut http, "/healthz", budget)?);
    l.put("portal.status_rtt_us", rtt_us(&mut http, "/jobs/j-1", budget)?);
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_a_chrome_trace() {
        let mut t = Tracer::new();
        t.model = "fig3";
        let root = t.open("job", None, 7);
        let answer = t.stage("run", root, 7, || 42);
        t.close(root);
        assert_eq!(answer, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert_eq!(durations(&t, "fig3", "run").len(), 1);
        assert!(durations(&t, "wide", "run").is_empty());

        let doc = Json::parse(&t.chrome_trace()).unwrap();
        let events = doc.as_arr();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("run"));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_str), Some("job"));
        assert_eq!(args.get("job").and_then(Json::as_f64), Some(7.0));

        // Switched off, nothing is recorded and the closure still runs.
        t.on = false;
        assert_eq!(t.stage("run", None, 8, || 1), 1);
        assert_eq!(t.spans.len(), 2);
    }

    #[test]
    fn every_stage_has_a_metric_name_for_both_models() {
        let listed = |name: String| crate::report::PER_LAYER.iter().any(|(n, _, _)| *n == name);
        for model in ["fig3", "wide"] {
            for (stage, unit) in STAGES {
                assert!(listed(stage_metric(model, stage, unit)), "{model} {stage}");
            }
            assert!(listed(stage_metric(model, "total", "ms")));
            assert!(listed(stage_metric(model, "unattributed", "ms")));
        }
    }
}
