//! `cnbench` — the Figure-6 path measured end to end and layer by layer.
//! See README.md beside this file for the metrics, the workloads and how
//! they are expected to interact.

mod children;
mod http;
mod inputs;
mod json;
mod layers;
mod procfs;
mod replay;
mod report;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Duration;

use json::Json;
use report::{Layers, Verdict, END_TO_END};
use stats::Summary;
use workloads::{Figures, Workload};

const USAGE: &str = "usage:
  cnbench --workload NAME --seed N --seconds S --trace 0|1   one workload, one result line
  cnbench run     [--seed N] [--seconds S] [--smoke] [--out FILE]
  cnbench trace   [--seed N] [--seconds S] [--smoke] [--out FILE] [--spans FILE]
  cnbench compare A.json B.json
workloads: fig3-wire wide-wire compile-storm cnx-sim; every mode takes --cnctl PATH";

/// Seconds one workload is measured for (`run_seconds` of BENCHMARK.json).
const RUN_SECONDS: f64 = 28.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("cnbench: {e}");
        std::process::exit(1);
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {name}")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("--stub-portal") => stub_portal_main(args),
        Some("run") => run_all(&args[1..]),
        Some("trace") => trace_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(first) if first.starts_with("--") && first != "--help" => one(args),
        _ => Err(USAGE.to_string()),
    }
}

/// `cnctl` from `--cnctl`, else beside this executable. In a checkout of
/// the repository it is first brought up to date with the sources, into
/// the target directory this executable itself was built in, so the
/// benchmark always measures the code it sits next to.
fn cnctl_path(args: &[String]) -> Result<PathBuf, String> {
    let existing = |path: PathBuf| {
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "{} not found: run from the repository root, or build it \
                 (`cargo build --release --bin cnctl`) and pass --cnctl",
                path.display()
            ))
        }
    };
    if let Some(p) = flag(args, "--cnctl") {
        return existing(PathBuf::from(p));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let release = exe.parent().filter(|dir| dir.file_name().is_some_and(|n| n == "release"));
    if let Some(target_dir) = release.and_then(Path::parent) {
        if Path::new("Cargo.toml").is_file() && Path::new("src/bin/cnctl.rs").is_file() {
            let built = std::process::Command::new("cargo")
                .args(["build", "--release", "--offline", "--quiet", "--bin", "cnctl"])
                .arg("--target-dir")
                .arg(target_dir)
                .status()
                .map_err(|e| format!("run cargo: {e}"))?;
            if !built.success() {
                return Err("building cnctl failed".to_string());
            }
        }
    }
    existing(exe.with_file_name("cnctl"))
}

struct Common {
    seed: u64,
    seconds: f64,
    cnctl: PathBuf,
}

fn common(args: &[String]) -> Result<Common, String> {
    let seconds: f64 = parsed(args, "--seconds", RUN_SECONDS)?;
    // A tenth of the time, so a pipeline can run every workload in a minute.
    let seconds = if args.iter().any(|a| a == "--smoke") { seconds / 10.0 } else { seconds };
    // No deployment may outlive its children's `--run-for` dead-man switch.
    if !(seconds > 0.0 && seconds <= children::RUN_FOR_S as f64) {
        return Err(format!("--seconds {seconds} is out of range (0, {}]", children::RUN_FOR_S));
    }
    Ok(Common { seed: parsed(args, "--seed", 1)?, seconds, cnctl: cnctl_path(args)? })
}

/// The untraced measurement of one workload: its set-up times and figures.
fn measure(workload: Workload, c: &Common, parts: usize) -> Result<(Summary, Figures), String> {
    let length = Duration::from_secs_f64(c.seconds);
    let (setups, measured) = workloads::run(workload, c.seed, &c.cnctl, length, parts)?;
    let f = workloads::figures(&measured);
    for fault in &f.faults {
        eprintln!("cnbench: {}: {fault}", workload.name());
    }
    Ok((Summary::of_median(&setups), f))
}

/// The traced run: each given workload black-box on one deployment for a
/// third of the time (its own `portal.*`/`proc.*` figures), `compile-storm`
/// among them whatever was asked for (the `storm` rows), then the staged
/// replay and the micro-timings, which are the same whatever the workload.
fn traced(
    workloads: &[Workload],
    c: &Common,
    spans: &Path,
) -> Result<(Vec<(Workload, Figures)>, Layers), String> {
    let third = Common { seed: c.seed, seconds: c.seconds / 3.0, cnctl: c.cnctl.clone() };
    let mut workloads = workloads.to_vec();
    if !workloads.contains(&Workload::CompileStorm) {
        workloads.push(Workload::CompileStorm);
    }
    let mut black_box = Vec::new();
    for workload in workloads {
        black_box.push((workload, measure(workload, &third, 1)?.1));
    }
    let (_, storm) =
        black_box.iter().find(|(w, _)| *w == Workload::CompileStorm).expect("run above");
    let mut shared = report::storm_layers(storm);
    let budget = Duration::from_secs_f64(c.seconds / 3.0 / 50.0);
    let mut tracer = replay::Tracer::new();
    shared.extend(replay::run(&c.cnctl, c.seed, budget, &mut tracer)?);
    std::fs::write(spans, tracer.chrome_trace())
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    shared.extend(layers::measure(c.seed, budget)?);
    Ok((black_box, shared))
}

fn spans_path(args: &[String]) -> PathBuf {
    PathBuf::from(flag(args, "--spans").unwrap_or("cnbench-spans.json"))
}

/// One workload, one result line: the benchmark contract's entry point.
fn one(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let c = common(args)?;
    let line = if parsed(args, "--trace", 0u8)? == 0 {
        let (setup, f) = measure(workload, &c, workloads::PARTS)?;
        let values = report::end_to_end_of(setup, &f);
        let metrics = END_TO_END.iter().zip(values).map(|(m, s)| (m.name, m.unit, s.value));
        report::contract_line(&[&f], metrics.collect())
    } else {
        let (black_box, shared) = traced(&[workload], &c, &spans_path(args))?;
        let mut all = report::workload_layers(&black_box[0].1);
        all.extend(shared);
        let rows = all.in_table_order()?;
        let runs: Vec<&Figures> = black_box.iter().map(|(_, f)| f).collect();
        report::contract_line(&runs, rows.iter().map(|(n, u, t)| (*n, *u, t.median)).collect())
    };
    println!("{line}");
    Ok(())
}

fn write_result(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// `cnbench run`: every workload, every end-to-end metric, one document.
fn run_all(args: &[String]) -> Result<(), String> {
    let c = common(args)?;
    let out = flag(args, "--out").unwrap_or("cnbench-run.json");
    let mut sections = Vec::new();
    let mut attempted = Vec::new();
    let mut failed = 0;
    println!(
        "{:<14} {:<15} {:>12} {:>12} {:>12} {:>7}  unit",
        "workload", "metric", "value", "min", "max", "spread"
    );
    for workload in Workload::ALL {
        let (setup, f) = measure(workload, &c, workloads::PARTS)?;
        for (m, s) in END_TO_END.iter().zip(report::end_to_end_of(setup, &f)) {
            println!(
                "{:<14} {:<15} {:>12.4} {:>12.4} {:>12.4} {:>6.1}%  {}",
                workload.name(),
                m.name,
                s.value,
                s.min,
                s.max,
                s.spread * 100.0,
                m.unit
            );
        }
        let share = f.failed as f64 / f.attempted.max(1) as f64;
        println!(
            "{:<14} {:<15} {:>12.4} {:>33}  ratio ({} of {} submissions, {} submitted again; \
             {} jobs verified in time)",
            workload.name(),
            "failed_share",
            share,
            "",
            f.failed,
            f.attempted,
            f.retried,
            f.jobs
        );
        failed += f.failed;
        attempted.push((workload, f.attempted));
        sections.push((workload.name(), report::workload_json(setup, &f)));
    }
    let doc = Json::obj([
        ("cnbench", Json::str("run")),
        ("fingerprint", report::fingerprint(c.seed, c.seconds, &attempted)),
        ("workloads", Json::obj(sections)),
    ]);
    write_result(out, &doc)?;
    if failed > 0 {
        return Err(format!("{failed} job(s) failed"));
    }
    Ok(())
}

/// `cnbench trace`: the per-layer figures of every workload, the staged
/// replay and the micro-timings, plus the Chrome-trace span file.
fn trace_all(args: &[String]) -> Result<(), String> {
    let c = common(args)?;
    let out = flag(args, "--out").unwrap_or("cnbench-trace.json");
    let spans = spans_path(args);
    let (black_box, shared) = traced(&Workload::ALL, &c, &spans)?;
    let row = |scope: &str, name: &str, unit: &str, t: &stats::Timing| {
        println!(
            "{scope:<14} {name:<30} {:>14.4} {:>14.4} {:>14.4} {:>7}  {unit}",
            t.median, t.p10, t.p90, t.n
        );
    };
    println!(
        "{:<14} {:<30} {:>14} {:>14} {:>14} {:>7}  unit",
        "scope", "metric", "median", "p10", "p90", "n"
    );
    let mut sections = Vec::new();
    let mut attempted = Vec::new();
    let mut failed = 0;
    for (workload, f) in &black_box {
        let own = report::workload_layers(f);
        let rows: Vec<_> = report::PER_LAYER
            .iter()
            .filter_map(|(name, unit, _)| own.get(name).map(|t| (*name, *unit, t)))
            .collect();
        rows.iter().for_each(|(name, unit, t)| row(workload.name(), name, unit, t));
        sections.push((workload.name(), report::layers_json(&rows)));
        attempted.push((*workload, f.attempted));
        failed += f.failed;
    }
    let rows: Vec<_> = report::PER_LAYER
        .iter()
        .filter_map(|(name, unit, _)| shared.get(name).map(|t| (*name, *unit, t)))
        .collect();
    rows.iter().for_each(|(name, unit, t)| row("all", name, unit, t));
    let doc = Json::obj([
        ("cnbench", Json::str("trace")),
        ("fingerprint", report::fingerprint(c.seed, c.seconds, &attempted)),
        ("spans_file", Json::str(spans.display().to_string())),
        ("per_workload", Json::obj(sections)),
        ("layers", report::layers_json(&rows)),
    ]);
    write_result(out, &doc)?;
    println!("wrote {}", spans.display());
    if failed > 0 {
        return Err(format!("{failed} job(s) failed"));
    }
    Ok(())
}

/// `cnbench compare A.json B.json`: is B worse than A?
fn compare_files(args: &[String]) -> Result<(), String> {
    let [a, b] = args else { return Err(USAGE.to_string()) };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = report::compare(&load(a)?, &load(b)?)?;
    println!(
        "{:<14} {:<15} {:>12} {:>12} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "B vs A", "spread"
    );
    for r in &rows {
        let change = if r.a == 0.0 { 0.0 } else { (r.b - r.a) / r.a * 100.0 };
        println!(
            "{:<14} {:<15} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            change,
            r.spread * 100.0,
            r.verdict.as_str()
        );
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count();
    println!("{} rows: {worse} worse, {unresolved} unresolved", rows.len());
    if worse > 0 {
        return Err(format!("{worse} metric(s) worse than their bound allows"));
    }
    Ok(())
}

/// Hidden re-exec mode: the real portal front end (HTTP, admission,
/// compile workers) with execution replaced by a canned journal, hosted
/// in a child process so its CPU and memory are accounted like `cnctl`'s.
fn stub_portal_main(args: &[String]) -> Result<(), String> {
    use cn_portal::{PortalConfig, PortalServer, StubRunner};
    use std::io::Write as _;

    let cfg = PortalConfig {
        workers: parsed(args, "--workers", 2)?,
        max_inflight: 256,
        per_addr_inflight: 256,
        ..PortalConfig::default()
    };
    let run_for: u64 = parsed(args, "--run-for", children::RUN_FOR_S)?;
    let runner = StubRunner { journal: inputs::canned_journal(), delay: Duration::ZERO };
    let mut server =
        PortalServer::start(cfg, std::sync::Arc::new(runner), cn_observe::Recorder::new())
            .map_err(|e| format!("stub portal: {e}"))?;
    println!("portal stub on 127.0.0.1:{}", server.port());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    std::thread::sleep(Duration::from_secs(run_for));
    server.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn flags_parse_with_defaults_and_reject_garbage() {
        let a = args(&["--workload", "cnx-sim", "--seed", "9", "--seconds", "x"]);
        assert_eq!(flag(&a, "--workload"), Some("cnx-sim"));
        assert_eq!(parsed(&a, "--seed", 1u64), Ok(9));
        assert_eq!(parsed(&a, "--trace", 0u8), Ok(0));
        assert!(parsed(&a, "--seconds", 1.0f64).unwrap_err().contains("--seconds"));
        assert_eq!(flag(&a, "--seconds-more"), None);
    }

    #[test]
    fn bad_invocations_print_usage_instead_of_running() {
        assert!(run(&args(&[])).unwrap_err().starts_with("usage:"));
        assert!(run(&args(&["--help"])).unwrap_err().starts_with("usage:"));
        assert!(run(&args(&["compare", "only-one.json"])).unwrap_err().starts_with("usage:"));
        assert!(run(&args(&["--seed", "1"])).unwrap_err().contains("--workload is required"));
        let unknown = run(&args(&["--workload", "concurrent-wire"])).unwrap_err();
        assert!(unknown.contains("unknown workload"), "{unknown}");
    }

    #[test]
    fn run_seconds_is_what_benchmark_json_says() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS));
    }
}
