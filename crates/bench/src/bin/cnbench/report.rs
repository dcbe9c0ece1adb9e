//! What the benchmark reports: the metric tables (the single source that
//! `BENCHMARK.json` is checked against), the result documents, the machine
//! fingerprint, and `compare`.

use crate::json::Json;
use crate::stats::{Summary, Timing};
use crate::workloads::{Figures, Workload, RETRY_ALLOWANCE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the other side's value by which this metric may be worse
    /// before `compare` (and the driver) call it a regression.
    pub bound: f64,
}

/// What a user of the system sees, for every workload. `failed_share` is
/// the fifth: it travels as `attempted`/`failed` beside the metrics (it is
/// 0 on a healthy run, and any rise is a regression). CPU per job is not
/// here but in `PER_LAYER` (`proc.*_cpu_ms_per_job`): README.md says why.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "job_p50_ms", unit: "ms", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "jobs_per_s", unit: "1/s", better: Better::Higher, bound: 0.10 },
    EndToEnd { name: "rss_peak_mb", unit: "MB", better: Better::Lower, bound: 0.15 },
];

use Better::{Higher, Lower};

/// Every per-layer metric a traced run prints: name, unit, better. The
/// first block comes from the traced workload's own black-box run, the
/// `storm` rows from a `compile-storm` run beside it, the rest from the
/// staged replay and the micro-timings. At most 64 names: a figure that is
/// another row under a second name, or the sum or ratio of two rows, has
/// no row of its own.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("portal.submit_p50_us", "us", Lower),
    ("portal.submit_p99_us", "us", Lower),
    ("portal.job_p90_ms", "ms", Lower),
    ("portal.job_max_ms", "ms", Lower),
    ("portal.refused", "count", Lower),
    ("portal.retried", "count", Lower),
    ("proc.portal_cpu_ms_per_job", "ms", Lower),
    ("proc.serve_cpu_ms_per_job", "ms", Lower),
    ("proc.portal_rss_mb", "MB", Lower),
    ("proc.serve_rss_mb", "MB", Lower),
    ("proc.ctx_switches_per_job", "count", Lower),
    ("proc.storm_jobs_per_s", "1/s", Higher),
    ("proc.storm_cpu_ms_per_job", "ms", Lower),
    ("portal.jobs_per_batch", "ratio", Higher),
    ("proc.trace_overhead_share", "ratio", Lower),
    ("stage.fig3.http_parse_us", "us", Lower),
    ("stage.fig3.sniff_us", "us", Lower),
    ("stage.fig3.xmi2cnx_us", "us", Lower),
    ("stage.fig3.cnx_parse_us", "us", Lower),
    ("stage.fig3.cnx_validate_us", "us", Lower),
    ("stage.fig3.run_ms", "ms", Lower),
    ("stage.fig3.journal_encode_us", "us", Lower),
    ("stage.fig3.total_ms", "ms", Lower),
    ("stage.fig3.unattributed_ms", "ms", Lower),
    ("stage.wide.http_parse_us", "us", Lower),
    ("stage.wide.sniff_us", "us", Lower),
    ("stage.wide.xmi2cnx_us", "us", Lower),
    ("stage.wide.cnx_parse_us", "us", Lower),
    ("stage.wide.cnx_validate_us", "us", Lower),
    ("stage.wide.run_ms", "ms", Lower),
    ("stage.wide.journal_encode_us", "us", Lower),
    ("stage.wide.total_ms", "ms", Lower),
    ("stage.wide.unattributed_ms", "ms", Lower),
    ("xml.parse_mb_s", "MB/s", Higher),
    ("xml.write_mb_s", "MB/s", Higher),
    ("xpath.parse_us", "us", Lower),
    ("xpath.eval_us", "us", Lower),
    ("xslt.compile_ms", "ms", Lower),
    ("xslt.apply_ms", "ms", Lower),
    ("transform.native_wide_ms", "ms", Lower),
    ("transform.batch_docs_s_p1", "1/s", Higher),
    ("transform.batch_docs_s_pn", "1/s", Higher),
    ("portal.admission_ops_s", "1/s", Higher),
    ("portal.healthz_rtt_us", "us", Lower),
    ("portal.status_rtt_us", "us", Lower),
    ("reactor.wheel_ops_s", "1/s", Higher),
    ("reactor.mailbox_wake_us", "us", Lower),
    ("wire.encode_ns", "ns", Lower),
    ("wire.decode_ns", "ns", Lower),
    ("wire.frame_split_mb_s", "MB/s", Higher),
    ("wire.burst_msgs_s", "1/s", Higher),
    ("wire.rtt_us", "us", Lower),
    ("wire.connect_ms", "ms", Lower),
    ("cluster.net_msgs_s", "1/s", Higher),
    ("cluster.multicast_us", "us", Lower),
    ("core.run_sim_fig3_ms", "ms", Lower),
    ("core.run_sim_wide_ms", "ms", Lower),
    ("core.place_ms_per_task", "ms", Lower),
    ("core.sched_select_ns", "ns", Lower),
    ("core.tuplespace_ops_s", "1/s", Higher),
    ("tasks.floyd16_us", "us", Lower),
    ("observe.span_ns", "ns", Lower),
    ("observe.counter_ns", "ns", Lower),
    ("observe.journal_export_us", "us", Lower),
];

/// Per-layer figures by name, in the order they were measured.
#[derive(Default)]
pub struct Layers {
    rows: Vec<(String, Timing)>,
}

impl Layers {
    pub fn put(&mut self, name: &str, timing: Timing) {
        debug_assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name} is not in PER_LAYER");
        self.rows.push((name.to_string(), timing));
    }

    /// A figure that is one number, not a distribution.
    pub fn put_value(&mut self, name: &str, value: f64) {
        self.put(name, Timing { median: value, p10: value, p90: value, n: 1 });
    }

    pub fn get(&self, name: &str) -> Option<Timing> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, t)| *t)
    }

    pub fn extend(&mut self, other: Layers) {
        self.rows.extend(other.rows);
    }

    /// Every name of `PER_LAYER`, in table order; a name nobody measured is
    /// an error, so a traced run cannot silently drop a metric.
    pub fn in_table_order(&self) -> Result<Vec<(&'static str, &'static str, Timing)>, String> {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                self.get(name)
                    .map(|t| (*name, *unit, t))
                    .ok_or_else(|| format!("per-layer metric {name} was not measured"))
            })
            .collect()
    }
}

/// The black-box figures of one workload that are layer metrics.
pub fn workload_layers(f: &Figures) -> Layers {
    let mut l = Layers::default();
    l.put_value("portal.submit_p50_us", f.submit_p50_us);
    l.put_value("portal.submit_p99_us", f.submit_p99_us);
    l.put_value("portal.job_p90_ms", f.job_p90_ms);
    l.put_value("portal.job_max_ms", f.job_max_ms);
    l.put_value("portal.refused", f.refused as f64);
    l.put_value("portal.retried", f.retried as f64);
    l.put_value("proc.portal_cpu_ms_per_job", f.portal_cpu_ms_per_job);
    l.put_value("proc.serve_cpu_ms_per_job", f.serve_cpu_ms_per_job);
    l.put_value("proc.portal_rss_mb", f.portal_rss_mb);
    l.put_value("proc.serve_rss_mb", f.serve_rss_mb);
    l.put_value("proc.ctx_switches_per_job", f.ctx_switches_per_job);
    l
}

/// What a `compile-storm` run adds to every traced run: the compile path
/// under load, whose timings do not repeat well enough to be gated.
pub fn storm_layers(f: &Figures) -> Layers {
    let mut l = Layers::default();
    l.put_value("proc.storm_jobs_per_s", f.jobs_per_s.value);
    l.put_value("proc.storm_cpu_ms_per_job", f.cpu_ms_per_job);
    l.put_value("portal.jobs_per_batch", f.jobs_per_batch);
    l
}

/// The end-to-end summaries of one workload run, in table order.
pub fn end_to_end_of(setup_s: Summary, f: &Figures) -> [Summary; 4] {
    [setup_s, f.job_p50_ms, f.jobs_per_s, f.rss_peak_mb]
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The benchmark contract's result line, over every black-box run made.
pub fn contract_line(runs: &[&Figures], metrics: Vec<(&str, &str, f64)>) -> String {
    let attempted: u64 = runs.iter().map(|f| f.attempted).sum();
    let failed: u64 = runs.iter().map(|f| f.failed).sum();
    Json::obj([
        ("correct", Json::Bool(failed == 0 && runs.iter().all(|f| f.jobs > 0))),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics.into_iter().map(|(n, u, v)| (n, metric_json(v, u))))),
    ])
    .compact()
}

/// One workload's section of a `cnbench run` document.
pub fn workload_json(setup_s: Summary, f: &Figures) -> Json {
    let share = if f.attempted == 0 { 1.0 } else { f.failed as f64 / f.attempted as f64 };
    let metrics = END_TO_END.iter().zip(end_to_end_of(setup_s, f)).map(|(m, s)| {
        let row = Json::obj([
            ("value", Json::Num(s.value)),
            ("unit", Json::str(m.unit)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
            ("spread", Json::Num(s.spread)),
        ]);
        (m.name, row)
    });
    Json::obj([
        ("attempted", Json::Num(f.attempted as f64)),
        ("failed", Json::Num(f.failed as f64)),
        ("failed_share", Json::Num(share)),
        ("retried", Json::Num(f.retried as f64)),
        ("verified_jobs", Json::Num(f.jobs as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

pub fn layers_json(layers: &[(&'static str, &'static str, Timing)]) -> Json {
    Json::obj(layers.iter().map(|(name, unit, t)| {
        let row = Json::obj([
            ("value", Json::Num(t.median)),
            ("unit", Json::str(*unit)),
            ("p10", Json::Num(t.p10)),
            ("p90", Json::Num(t.p90)),
            ("n", Json::Num(t.n as f64)),
        ]);
        (*name, row)
    }))
}

/// The machine and the inputs a result was measured with.
pub fn fingerprint(seed: u64, seconds: f64, jobs: &[(Workload, u64)]) -> Json {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let fd_soft = cn_reactor::sys::fd_limits().map(|(soft, _)| soft as f64).unwrap_or(0.0);
    Json::obj([
        ("nproc", Json::Num(crate::workloads::nproc() as f64)),
        ("reactor_shards", Json::Num(cn_reactor::default_shards() as f64)),
        ("fd_soft_limit", Json::Num(fd_soft)),
        ("kernel", Json::str(read("/proc/sys/kernel/osrelease").unwrap_or_default())),
        ("git_commit", Json::str(git_commit().unwrap_or_else(|| "unknown".into()))),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_workload", Json::Num(seconds)),
        ("jobs_attempted", Json::obj(jobs.iter().map(|(w, n)| (w.name(), Json::Num(*n as f64))))),
    ])
}

/// `HEAD` of the repository the benchmark runs in, read from `.git`
/// without running git; `None` in a plain checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs' own spread is wider than the bound: neither "unchanged"
    /// nor "worse" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Is `b` worse than `a` by more than `bound` (a share of `a`)? `spread`
/// is the wider of the two sides' `Summary::spread`.
pub fn verdict(a: f64, b: f64, spread: f64, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

pub struct CompareRow {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Compare two `cnbench run` documents: one row per workload × end-to-end
/// metric, plus one for `failed_share`, where any rise is worse, and one
/// for `retried`, where a rise past what a run is allowed is. On a workload
/// that is not gated (`Workload::gated`) a timing is never `worse`, only
/// `unresolved`: unchanged code moves it by more than its bound.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<CompareRow>, String> {
    let workloads = |doc: &Json| doc.get("workloads").map(|w| w.fields().to_vec());
    let (wa, wb) = (
        workloads(a).ok_or("first file has no \"workloads\"")?,
        workloads(b).ok_or("second file has no \"workloads\"")?,
    );
    let mut rows = Vec::new();
    for (name, side_a) in &wa {
        let gated = Workload::parse(name).is_none_or(Workload::gated);
        let side_b = wb
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("second file lacks workload {name}"))?;
        let number = |side: &Json, metric: &str, field: &str| {
            side.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get(field))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no {metric}.{field}"))
        };
        for m in &END_TO_END {
            let (va, vb) = (number(side_a, m.name, "value")?, number(side_b, m.name, "value")?);
            let spread = number(side_a, m.name, "spread")?.max(number(side_b, m.name, "spread")?);
            let verdict = match verdict(va, vb, spread, m.better, m.bound) {
                Verdict::Worse if !gated => Verdict::Unresolved,
                v => v,
            };
            rows.push(CompareRow {
                workload: name.clone(),
                metric: m.name,
                a: va,
                b: vb,
                spread,
                verdict,
            });
        }
        let share = |side: &Json| {
            side.get("failed_share")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no failed_share"))
        };
        let (fa, fb) = (share(side_a)?, share(side_b)?);
        rows.push(CompareRow {
            workload: name.clone(),
            metric: "failed_share",
            a: fa,
            b: fb,
            spread: 0.0,
            verdict: if fb > fa { Verdict::Worse } else { Verdict::Ok },
        });
        let retried = |side: &Json| side.get("retried").and_then(Json::as_f64).unwrap_or(0.0);
        let (ra, rb) = (retried(side_a), retried(side_b));
        rows.push(CompareRow {
            workload: name.clone(),
            metric: "retried",
            a: ra,
            b: rb,
            spread: 0.0,
            verdict: if rb > ra.max(RETRY_ALLOWANCE as f64) { Verdict::Worse } else { Verdict::Ok },
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_at_and_just_past_a_bound() {
        // Lower is better: 10 % worse is still inside a 0.10 bound.
        assert_eq!(verdict(100.0, 110.0, 0.0, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(100.0, 110.01, 0.0, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(100.0, 50.0, 0.0, Better::Lower, 0.10), Verdict::Ok);
        // Higher is better: the drop is taken as a share of the first side.
        assert_eq!(verdict(200.0, 180.0, 0.0, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(verdict(200.0, 179.9, 0.0, Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(verdict(200.0, 400.0, 0.0, Better::Higher, 0.10), Verdict::Ok);
        // A spread wider than the bound cannot be called unchanged, but a
        // difference past the bound is still worse.
        assert_eq!(verdict(100.0, 101.0, 0.11, Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 101.0, 0.10, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(100.0, 120.0, 0.50, Better::Lower, 0.10), Verdict::Worse);
    }

    fn figures(p50: f64, failed: u64) -> Figures {
        let flat = |v: f64| Summary { value: v, min: v * 0.99, max: v * 1.01, spread: 0.01 };
        Figures {
            attempted: 100,
            failed,
            jobs: 100 - failed as usize,
            job_p50_ms: flat(p50),
            jobs_per_s: flat(16.0),
            cpu_ms_per_job: 11.0,
            rss_peak_mb: flat(25.0),
            ..Figures::default()
        }
    }

    fn document_of(workload: &str, f: &Figures) -> Json {
        let setup = Summary { value: 1.2, min: 1.1, max: 1.3, spread: 0.08 };
        let text =
            Json::obj([("workloads", Json::obj([(workload, workload_json(setup, f))]))]).pretty();
        Json::parse(&text).unwrap()
    }

    fn document(p50: f64, failed: u64) -> Json {
        document_of("fig3-wire", &figures(p50, failed))
    }

    #[test]
    fn compare_flags_regressions_and_failures_only() {
        let verdicts = |a: &Json, b: &Json| -> Vec<(&'static str, Verdict)> {
            compare(a, b).unwrap().iter().map(|r| (r.metric, r.verdict)).collect()
        };
        let base = document(60.0, 0);
        assert!(verdicts(&base, &base).iter().all(|(_, v)| *v == Verdict::Ok));
        assert_eq!(verdicts(&base, &base).len(), 6);
        let slower = verdicts(&base, &document(66.1, 0));
        assert_eq!(slower[1], ("job_p50_ms", Verdict::Worse));
        assert_eq!(slower.iter().filter(|(_, v)| *v == Verdict::Worse).count(), 1);
        // The same difference on the workload that is not gated.
        let storm = |p50| document_of("compile-storm", &figures(p50, 0));
        assert_eq!(verdicts(&storm(60.0), &storm(66.1))[1], ("job_p50_ms", Verdict::Unresolved));
        let failing = verdicts(&base, &document(60.0, 1));
        assert_eq!(failing[4], ("failed_share", Verdict::Worse));
        // Resubmitted jobs: a rise within a run's allowance is chance.
        let retried = |n| document_of("fig3-wire", &Figures { retried: n, ..figures(60.0, 0) });
        assert_eq!(verdicts(&retried(0), &retried(RETRY_ALLOWANCE))[5], ("retried", Verdict::Ok));
        let past = verdicts(&retried(0), &retried(RETRY_ALLOWANCE + 1));
        assert_eq!(past[5], ("retried", Verdict::Worse));
        // Fewer failures than before is not a regression.
        assert!(verdicts(&document(60.0, 1), &base).iter().all(|(_, v)| *v == Verdict::Ok));
        assert!(compare(&base, &Json::obj([("workloads", Json::Obj(vec![]))])).is_err());
        assert!(compare(&Json::Null, &base).is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let line = contract_line(&[&figures(60.0, 2)], vec![("job_p50_ms", "ms", 60.03)]);
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("failed").and_then(Json::as_f64), Some(2.0));
        let metric = parsed.get("metrics").unwrap().get("job_p50_ms").unwrap();
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("ms"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn layers_refuse_to_drop_a_metric() {
        let mut l = Layers::default();
        l.put_value("xml.parse_mb_s", 100.0);
        assert!(l.in_table_order().unwrap_err().contains("was not measured"));
        for (name, _, _) in PER_LAYER {
            l.put_value(name, 1.0);
        }
        let rows = l.in_table_order().unwrap();
        assert_eq!(rows.len(), PER_LAYER.len());
        // The first value put under a name wins.
        assert_eq!(rows.iter().find(|r| r.0 == "xml.parse_mb_s").unwrap().2.median, 100.0);
    }

    /// `BENCHMARK.json` at the repository root must say what these tables
    /// say: the driver reads the file, `compare` and the result line read
    /// the tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let text = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        let workloads: Vec<String> =
            doc.get("workloads").unwrap().as_arr().iter().map(|w| text(w, "name")).collect();
        let gated: Vec<&str> =
            Workload::ALL.iter().filter(|w| w.gated()).map(|w| w.name()).collect();
        assert_eq!(workloads, gated);
        let e2e = doc.get("end_to_end").unwrap().as_arr();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit);
            assert_eq!(text(row, "better"), m.better.as_str());
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").unwrap().as_arr();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(row, "name"), *name);
            assert_eq!(text(row, "unit"), *unit);
            assert_eq!(text(row, "better"), better.as_str());
        }
        assert_eq!(doc.get("paths").unwrap().as_arr(), [Json::str("crates/bench/src/bin/cnbench")]);
    }
}
