//! `cnctl` — command-line front end to the CN tool chain.
//!
//! ```text
//! cnctl validate  <file.cnx>                      all diagnostics + DAG analytics
//! cnctl lint      <file.cnx|file.xmi> [--format text|json] [--deny warnings]
//!                 [--nodes N --node-memory MB [--node-slots S]]
//!                 [--server-memory MB1,MB2,...] [--payload-warn-fraction F]
//!                 [--peer-capacity N [--reactor-shards S] [--fd-soft-limit N] [--cores N]]
//!                 [--portal-max-inflight N [--portal-body-limit BYTES] [--host-memory MB]]
//! cnctl lint      --explain CN0xx                  document one diagnostic code
//! cnctl check     [--scenario NAME] [--seeds S1,S2,...] [--schedules N]
//!                 [--max-steps N] [--format text|json] [--trace-dir DIR]
//!                 [--list]
//! cnctl transform <file.xmi> [--class C] [--port P] [--log L] [--no-keys]
//! cnctl codegen   <file.cnx> [--lang rust|java]
//! cnctl render    <file.cnx|file.xmi> [--format dot|ascii]
//! cnctl demo      [workers]                        full pipeline on the TC example
//! cnctl example-xmi [workers]                      emit the Figure-3 model as XMI
//! cnctl trace     <file.xmi|examples> [--out trace.json] [--journal j.jsonl] [--workers N]
//! cnctl stats     <file.xmi|examples> [--workers N]
//! cnctl serve     [--port P] [--peers P1,P2] [--multicast] [--name NAME]
//!                 [--memory MB] [--slots N] [--run-for SECS] [--trace out.json]
//!                 [--no-batch] [--reactor-shards N] [--sched POLICY]
//! cnctl submit    <file.cnx|examples> [--peers P1,P2,P3] [--multicast] [--workers N]
//!                 [--timeout SECS] [--journal j.jsonl] [--trace out.json]
//!                 [--no-batch] [--reactor-shards N]
//! cnctl portal    [--http-port P] [--peers P1,P2 | --multicast | --sim NODES]
//!                 [--reactor-shards N] [--max-inflight N] [--per-addr N]
//!                 [--workers N] [--body-limit BYTES] [--timeout SECS]
//!                 [--seed N] [--name NAME] [--run-for SECS] [--no-batch]
//!                 [--board-ttl SECS] [--request-deadline SECS] [--journal-wait SECS]
//! ```
//!
//! Everything reads/writes plain files or stdout, so the tool composes with
//! shell pipelines the way the paper's XSLT-based tooling did. `lint` and
//! `validate` use their exit code to report what they found: 0 = clean,
//! 1 = errors, 2 = warnings only (`lint` only; `validate` ignores warnings
//! for exit purposes). A `--flag` the subcommand does not take is an error.

use std::fmt::Write as _;

use computational_neighborhood::analysis;
use computational_neighborhood::check;
use computational_neighborhood::cluster::ClusterCapacity;
use computational_neighborhood::cnx;
use computational_neighborhood::codegen;
use computational_neighborhood::model;
use computational_neighborhood::portal::{json_string, looks_like_xmi, seed_transitive_closure};
use computational_neighborhood::transform::{self, xmi2cnx::ClientSettings};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok((output, code)) => {
            print!("{output}");
            if code != 0 {
                std::process::exit(code);
            }
        }
        Err(e) => {
            eprintln!("cnctl: {e}");
            std::process::exit(1);
        }
    }
}

/// Dispatch a command line; returns the text to print and the exit code.
fn run(args: &[String]) -> Result<(String, i32), String> {
    let mut it = args.iter();
    let command = it.next().map(String::as_str).unwrap_or("help");
    let rest: Vec<&str> = it.map(String::as_str).collect();
    check_flags(command, &rest)?;
    match command {
        "validate" => {
            let path = positional(&rest, 0).ok_or("usage: cnctl validate <file.cnx>")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            validate_cnx(&text)
        }
        "lint" => {
            if let Some(code) = flag_value(&rest, "--explain") {
                return explain_code(code);
            }
            let path = positional(&rest, 0).ok_or(
                "usage: cnctl lint <file.cnx|file.xmi> [--format text|json] [--deny warnings] \
                 [--explain CN0xx]",
            )?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            lint_input(&text, &rest)
        }
        "check" => check_cmd(&rest),
        "transform" => {
            let path = positional(&rest, 0).ok_or("usage: cnctl transform <file.xmi> [...]")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            transform_xmi(&text, &rest).map(clean)
        }
        "codegen" => {
            let path = positional(&rest, 0).ok_or("usage: cnctl codegen <file.cnx> [...]")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            codegen_cnx(&text, flag_value(&rest, "--lang").unwrap_or("rust")).map(clean)
        }
        "render" => {
            let path = positional(&rest, 0).ok_or("usage: cnctl render <file> [...]")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            render(&text, flag_value(&rest, "--format").unwrap_or("ascii")).map(clean)
        }
        "example-xmi" => {
            let workers: usize = positional(&rest, 0)
                .map(|w| w.parse().map_err(|_| format!("bad worker count {w:?}")))
                .transpose()?
                .unwrap_or(5);
            if workers == 0 {
                return Err("need at least one worker".to_string());
            }
            Ok(clean(computational_neighborhood::xml::write_document(
                &model::export_xmi(&transform::figure2_model(workers)),
                &computational_neighborhood::xml::WriteOptions::xmi(),
            )))
        }
        "demo" => {
            let workers: usize = positional(&rest, 0)
                .map(|w| w.parse().map_err(|_| format!("bad worker count {w:?}")))
                .transpose()?
                .unwrap_or(3);
            demo(workers).map(clean)
        }
        "trace" => trace_cmd(&rest).map(clean),
        "stats" => stats_cmd(&rest).map(clean),
        "serve" => serve_cmd(&rest).map(clean),
        "submit" => submit_cmd(&rest).map(clean),
        "portal" => portal_cmd(&rest).map(clean),
        "help" | "--help" | "-h" => Ok(clean(USAGE.to_string())),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

const USAGE: &str = "usage: cnctl \
     <validate|lint|check|transform|codegen|render|demo|example-xmi|trace|stats|serve|submit|portal|help> \
     [args]\n";

/// Wrap plain output with the success exit code.
fn clean(output: String) -> (String, i32) {
    (output, 0)
}

/// The flags that stand alone; every other `--flag` is followed by its value.
const SWITCHES: [&str; 4] = ["--multicast", "--no-batch", "--no-keys", "--list"];

/// Every subcommand with the flags it takes.
const FLAGS: &[(&str, &[&str])] = &[
    ("validate", &[]),
    (
        "lint",
        &[
            "--explain",
            "--format",
            "--deny",
            "--nodes",
            "--node-memory",
            "--node-slots",
            "--server-memory",
            "--payload-warn-fraction",
            "--peer-capacity",
            "--reactor-shards",
            "--fd-soft-limit",
            "--cores",
            "--portal-max-inflight",
            "--portal-body-limit",
            "--host-memory",
        ],
    ),
    (
        "check",
        &[
            "--scenario",
            "--seeds",
            "--schedules",
            "--max-steps",
            "--format",
            "--trace-dir",
            "--list",
        ],
    ),
    ("transform", &["--class", "--port", "--log", "--no-keys"]),
    ("codegen", &["--lang"]),
    ("render", &["--format"]),
    ("demo", &[]),
    ("example-xmi", &[]),
    ("trace", &["--out", "--journal", "--workers"]),
    ("stats", &["--workers"]),
    (
        "serve",
        &[
            "--port",
            "--peers",
            "--multicast",
            "--name",
            "--memory",
            "--slots",
            "--run-for",
            "--trace",
            "--no-batch",
            "--reactor-shards",
            "--sched",
        ],
    ),
    (
        "submit",
        &[
            "--peers",
            "--multicast",
            "--workers",
            "--timeout",
            "--journal",
            "--trace",
            "--no-batch",
            "--reactor-shards",
        ],
    ),
    (
        "portal",
        &[
            "--http-port",
            "--peers",
            "--multicast",
            "--sim",
            "--reactor-shards",
            "--max-inflight",
            "--per-addr",
            "--workers",
            "--body-limit",
            "--timeout",
            "--seed",
            "--name",
            "--run-for",
            "--no-batch",
            "--board-ttl",
            "--request-deadline",
            "--journal-wait",
        ],
    ),
];

/// Split a command line into its positionals and its flags, each flag with
/// the value that follows it unless it is one of [`SWITCHES`] — so a value is
/// never taken for a positional, whatever it looks like.
fn split_args<'a>(args: &[&'a str]) -> (Vec<&'a str>, Vec<(&'a str, Option<&'a str>)>) {
    let (mut positionals, mut flags) = (Vec::new(), Vec::new());
    let mut it = args.iter().copied();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            positionals.push(arg);
        } else if SWITCHES.contains(&arg) {
            flags.push((arg, None));
        } else {
            flags.push((arg, it.next()));
        }
    }
    (positionals, flags)
}

/// Reject a `--flag` the subcommand does not take, and one left without its
/// value. A command [`FLAGS`] does not list is `run`'s to report.
fn check_flags(command: &str, args: &[&str]) -> Result<(), String> {
    let Some((_, known)) = FLAGS.iter().find(|(c, _)| *c == command) else { return Ok(()) };
    for (flag, value) in split_args(args).1 {
        if !known.contains(&flag) {
            return Err(format!("{command} takes no flag {flag}"));
        }
        if value.is_none() && !SWITCHES.contains(&flag) {
            return Err(format!("{flag} needs a value"));
        }
    }
    Ok(())
}

fn positional<'a>(args: &[&'a str], index: usize) -> Option<&'a str> {
    split_args(args).0.get(index).copied()
}

fn flag_value<'a>(args: &[&'a str], flag: &str) -> Option<&'a str> {
    split_args(args).1.into_iter().find(|(f, _)| *f == flag).and_then(|(_, value)| value)
}

fn has_flag(args: &[&str], flag: &str) -> bool {
    split_args(args).1.iter().any(|(f, _)| *f == flag)
}

/// `validate`: run every lint pass, print all diagnostics sorted by source
/// span, and summarize the dependency structure when the descriptor is
/// error-free. The exit code is non-zero only for errors — warnings and
/// infos are advisory here (use `lint --deny warnings` to harden).
fn validate_cnx(text: &str) -> Result<(String, i32), String> {
    let report = analysis::lint_cnx_source(text, &analysis::LintOptions::default());
    let mut out = String::new();
    for d in report.diagnostics() {
        let _ = writeln!(out, "{d}");
    }
    if report.has_errors() {
        return Ok((out, 1));
    }
    let doc = cnx::parse_cnx(text).map_err(|e| e.to_string())?;
    let _ = writeln!(out, "client {:?}: OK", doc.client.class);
    for (i, job) in doc.client.jobs.iter().enumerate() {
        let graph = cnx::DependencyGraph::build(job).map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "  job {i}: {} tasks, {} wave(s), critical path {}, max parallelism {}",
            graph.len(),
            graph.waves().len(),
            graph.critical_path_len(),
            graph.max_parallelism()
        );
        for (w, wave) in graph.waves().iter().enumerate() {
            let names: Vec<&str> = wave.iter().map(|&t| graph.name(t)).collect();
            let _ = writeln!(out, "    wave {w}: {}", names.join(", "));
        }
    }
    Ok((out, 0))
}

/// `lint`: run the cross-layer lint engine over a CNX descriptor or an XMI
/// model and render the report. Exit code: 0 clean, 1 errors, 2 warnings
/// only. `--deny warnings` promotes warnings to errors; `--nodes` /
/// `--node-memory` / `--node-slots` describe the target cluster so the
/// capacity passes (CN011/CN015/CN016) can judge resource requirements,
/// and `--server-memory 512,1024` lists the per-server `cnctl serve
/// --memory` values a wire deployment was launched with (CN019).
/// `--payload-warn-fraction 0.25` tunes how close to the wire frame limit
/// a task's estimated parameter payload may get before CN009 warns.
/// `--peer-capacity N [--reactor-shards S]` describes the wire
/// deployment's shape so CN057 can judge it against the host's fd soft
/// limit and core count (`--fd-soft-limit` / `--cores` override the live
/// probes to lint against a different target machine).
fn lint_input(text: &str, args: &[&str]) -> Result<(String, i32), String> {
    let format = flag_value(args, "--format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(format!("unknown format {format:?} (text|json)"));
    }
    match flag_value(args, "--deny") {
        None | Some("warnings") => {}
        Some(other) => return Err(format!("unknown deny class {other:?} (warnings)")),
    }
    let payload_warn_fraction: Option<f64> = optional_flag(args, "--payload-warn-fraction")?;
    if payload_warn_fraction.is_some_and(|f| !(0.0..=1.0).contains(&f)) {
        return Err("--payload-warn-fraction must lie in 0..=1".to_string());
    }
    let opts = analysis::LintOptions {
        capacity: capacity_from_args(args)?,
        server_memory_mb: server_memory_from_args(args)?,
        payload_warn_fraction,
        deployment: deployment_from_args(args)?,
        portal: portal_shape_from_args(args)?,
    };
    let mut report = if looks_like_xmi(text) {
        analysis::lint_xmi_source(text, &opts)
    } else {
        analysis::lint_cnx_source(text, &opts)
    };
    if flag_value(args, "--deny") == Some("warnings") {
        report = report.deny_warnings();
    }
    let rendered = match format {
        "json" => {
            let mut json = report.to_json();
            json.push('\n');
            json
        }
        _ => report.to_text(),
    };
    let code = if report.has_errors() {
        1
    } else if report.has_warnings() {
        2
    } else {
        0
    };
    Ok((rendered, code))
}

/// Build a [`ClusterCapacity`] from `--nodes N --node-memory MB
/// [--node-slots S]`; both leading flags are required together.
fn capacity_from_args(args: &[&str]) -> Result<Option<ClusterCapacity>, String> {
    let nodes = flag_value(args, "--nodes");
    let memory = flag_value(args, "--node-memory");
    let slots = flag_value(args, "--node-slots");
    match (nodes, memory) {
        (None, None) => {
            if slots.is_some() {
                return Err("--node-slots requires --nodes and --node-memory".to_string());
            }
            Ok(None)
        }
        (Some(n), Some(m)) => {
            let nodes: usize = n.parse().map_err(|_| format!("bad node count {n:?}"))?;
            let memory: u64 = m.parse().map_err(|_| format!("bad node memory {m:?}"))?;
            let slots: usize = slots
                .map(|s| s.parse().map_err(|_| format!("bad slot count {s:?}")))
                .transpose()?
                .unwrap_or(1);
            Ok(Some(ClusterCapacity::uniform(nodes, memory, slots)))
        }
        _ => Err("--nodes and --node-memory must be given together".to_string()),
    }
}

/// Parse `--server-memory 512,1024,8192` into per-server MB values for the
/// CN019 wire-deployment check.
fn server_memory_from_args(args: &[&str]) -> Result<Option<Vec<u64>>, String> {
    let Some(raw) = flag_value(args, "--server-memory") else { return Ok(None) };
    let servers = raw
        .split(',')
        .map(|s| s.trim().parse::<u64>().map_err(|_| format!("bad server memory {s:?}")))
        .collect::<Result<Vec<u64>, String>>()?;
    if servers.is_empty() {
        return Err("--server-memory needs at least one value".to_string());
    }
    Ok(Some(servers))
}

/// Parse the wire-deployment shape flags for the CN057 host-capacity
/// check. `--peer-capacity` is the gate (no expected peer count, no
/// opinion); `--fd-soft-limit` and `--cores` replace the live host probes
/// so a plan can be judged against the machine it will actually run on.
fn deployment_from_args(args: &[&str]) -> Result<Option<analysis::DeploymentShape>, String> {
    let Some(raw) = flag_value(args, "--peer-capacity") else {
        // `--fd-soft-limit`/`--cores` are shared with the CN058 portal
        // shape, so they only need *some* gate flag to hang off.
        if flag_value(args, "--portal-max-inflight").is_none() {
            for flag in ["--fd-soft-limit", "--cores"] {
                if flag_value(args, flag).is_some() {
                    return Err(format!("{flag} requires --peer-capacity"));
                }
            }
        }
        return Ok(None);
    };
    Ok(Some(analysis::DeploymentShape {
        peer_capacity: raw.parse().map_err(|_| format!("bad peer capacity {raw:?}"))?,
        reactor_shards: parsed_flag(args, "--reactor-shards", 0)?,
        fd_soft_limit: optional_flag(args, "--fd-soft-limit")?,
        available_cores: optional_flag(args, "--cores")?,
    }))
}

/// Parse the portal-deployment shape flags for the CN058 capacity check.
/// `--portal-max-inflight` is the gate; `--portal-body-limit` defaults to
/// the portal's built-in body cap, and `--fd-soft-limit` / `--cores` /
/// `--host-memory` replace the live host probes so a plan can be judged
/// against the machine it will actually run on.
fn portal_shape_from_args(args: &[&str]) -> Result<Option<analysis::PortalShape>, String> {
    let Some(raw) = flag_value(args, "--portal-max-inflight") else {
        for flag in ["--portal-body-limit", "--host-memory"] {
            if flag_value(args, flag).is_some() {
                return Err(format!("{flag} requires --portal-max-inflight"));
            }
        }
        return Ok(None);
    };
    Ok(Some(analysis::PortalShape {
        max_inflight: raw.parse().map_err(|_| format!("bad portal max-inflight {raw:?}"))?,
        reactor_shards: parsed_flag(args, "--reactor-shards", 0)?,
        max_body_bytes: parsed_flag(
            args,
            "--portal-body-limit",
            computational_neighborhood::portal::http::DEFAULT_MAX_BODY_BYTES as u64,
        )?,
        fd_soft_limit: optional_flag(args, "--fd-soft-limit")?,
        available_cores: optional_flag(args, "--cores")?,
        host_memory_mb: optional_flag(args, "--host-memory")?,
    }))
}

/// `lint --explain CN0xx`: print the documentation for one diagnostic
/// code — what it means and why it is worth fixing.
fn explain_code(code: &str) -> Result<(String, i32), String> {
    match analysis::explain(code) {
        Some(ex) => Ok(clean(ex.render())),
        None => Err(format!(
            "unknown diagnostic code {code:?} (codes run CN000..CN058; try `cnctl lint --explain CN001`)"
        )),
    }
}

/// `check`: explore the runtime's registered concurrency scenarios under
/// the controlled scheduler. Each scenario runs across a seed matrix
/// (default `1,7,42,1337`); hazards, lock-order cycles, and
/// condvar-while-holding findings come back as `CN05x` diagnostics with
/// the same text/JSON rendering and exit-code convention as `lint`
/// (0 clean, 1 errors, 2 warnings only). `--trace-dir DIR` writes each
/// counterexample's replay artifacts (schedule trace, cn-observe journal,
/// Chrome trace, summary) for CI to upload on failure.
fn check_cmd(args: &[&str]) -> Result<(String, i32), String> {
    if has_flag(args, "--list") {
        let mut out = String::new();
        for s in check::all() {
            let _ = writeln!(out, "{:<20} {}", s.name, s.about);
        }
        return Ok(clean(out));
    }
    let format = flag_value(args, "--format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(format!("unknown format {format:?} (text|json)"));
    }
    let mut cfg = check::CheckConfig::default();
    if let Some(raw) = flag_value(args, "--seeds") {
        cfg.seeds = raw
            .split(',')
            .map(|s| s.trim().parse::<u64>().map_err(|_| format!("bad seed {s:?}")))
            .collect::<Result<Vec<u64>, String>>()?;
        if cfg.seeds.is_empty() {
            return Err("--seeds needs at least one value".to_string());
        }
    }
    if let Some(raw) = flag_value(args, "--schedules") {
        cfg.schedules = raw.parse().map_err(|_| format!("bad schedule count {raw:?}"))?;
    }
    if let Some(raw) = flag_value(args, "--max-steps") {
        cfg.max_steps = raw.parse().map_err(|_| format!("bad step budget {raw:?}"))?;
    }
    let only = flag_value(args, "--scenario");
    if let Some(name) = only {
        if check::find(name).is_none() {
            return Err(format!("unknown scenario {name:?} (see `cnctl check --list`)"));
        }
    }

    let reports = check::run_all(only, &cfg);
    let lint = check::lint_report(&reports);

    if let Some(dir) = flag_value(args, "--trace-dir") {
        write_trace_artifacts(dir, &reports)?;
    }

    let rendered = match format {
        "json" => check_json(&reports, &lint),
        _ => check_text(&reports, &lint),
    };
    let code = if lint.has_errors() {
        1
    } else if lint.has_warnings() {
        2
    } else {
        0
    };
    Ok((rendered, code))
}

/// Human rendering: one verdict line per scenario, replay coordinates for
/// any counterexample, then the diagnostic report.
fn check_text(reports: &[check::RunReport], lint: &analysis::LintReport) -> String {
    let mut out = String::new();
    for r in reports {
        let verdict = if r.failed() { "FAIL" } else { "ok" };
        let _ = writeln!(
            out,
            "{:<20} {verdict:<4} {} schedule(s), {} step(s), {} nested-lock edge(s)",
            r.scenario,
            r.schedules,
            r.steps,
            r.lock_graph.edges_named().len()
        );
        if let Some(cx) = &r.counterexample {
            let _ = writeln!(
                out,
                "  replay: cnctl check --scenario {} --seeds {}   # schedule {}",
                r.scenario,
                cx.seed,
                cx.schedule_string()
            );
        }
    }
    if !lint.is_empty() {
        out.push('\n');
        out.push_str(&lint.to_text());
    }
    out
}

/// Machine rendering: per-scenario exploration stats plus the diagnostic
/// report verbatim (same shape as `lint --format json`'s `diagnostics`).
fn check_json(reports: &[check::RunReport], lint: &analysis::LintReport) -> String {
    let mut out = String::from("{\"scenarios\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"failed\":{},\"schedules\":{},\"steps\":{},\"timeout_escapes\":{},\
             \"nested_lock_edges\":{},\"hazards\":{}",
            json_string(&r.scenario),
            r.failed(),
            r.schedules,
            r.steps,
            r.timeout_escapes,
            r.lock_graph.edges_named().len(),
            r.hazards.len()
        );
        if let Some(cx) = &r.counterexample {
            let _ = write!(
                out,
                ",\"replay\":{{\"seed\":{},\"schedule\":{}}}",
                cx.seed,
                json_string(&cx.schedule_string())
            );
        }
        out.push('}');
    }
    out.push_str("],\"report\":");
    out.push_str(&lint.to_json());
    out.push_str("}\n");
    out
}

/// Write every counterexample's replay artifacts under `dir`, one file
/// set per failing scenario (dots in scenario names become underscores).
fn write_trace_artifacts(dir: &str, reports: &[check::RunReport]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    for r in reports {
        let Some(cx) = &r.counterexample else { continue };
        let art = check::export_counterexample(&r.scenario, cx);
        let base = std::path::Path::new(dir).join(r.scenario.replace('.', "_"));
        let base = base.to_string_lossy();
        let files = [
            ("trace.jsonl", art.trace_jsonl.as_str()),
            ("journal.jsonl", art.journal.as_str()),
            ("chrome.json", art.chrome.as_str()),
            ("summary.txt", art.summary.as_str()),
        ];
        for (ext, body) in files {
            let path = format!("{base}.{ext}");
            std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))?;
        }
        let replay = format!("seed={}\nschedule={}\n", art.seed, art.schedule);
        let path = format!("{base}.replay.txt");
        std::fs::write(&path, replay).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// `transform`: XMI text → CNX text via the XSLT path.
fn transform_xmi(text: &str, args: &[&str]) -> Result<String, String> {
    let settings = ClientSettings {
        class: flag_value(args, "--class").map(str::to_string),
        port: optional_flag(args, "--port")?,
        log: flag_value(args, "--log").map(str::to_string),
    };
    let result = if has_flag(args, "--no-keys") {
        transform::xmi2cnx::xmi_to_cnx_xslt_nokeys(text, &settings)
    } else {
        transform::xmi_to_cnx_xslt(text, &settings)
    };
    result.map_err(|e| e.to_string())
}

/// `codegen`: CNX text → client program source.
fn codegen_cnx(text: &str, lang: &str) -> Result<String, String> {
    let doc = cnx::parse_cnx(text).map_err(|e| e.to_string())?;
    cnx::validate(&doc).map_err(|e| e.to_string())?;
    match lang {
        "rust" => Ok(codegen::generate_rust_client(&doc)),
        "java" => Ok(codegen::generate_java_client(&doc)),
        other => Err(format!("unknown language {other:?} (rust|java)")),
    }
}

/// `render`: CNX or XMI → activity diagram (DOT or ASCII).
fn render(text: &str, format: &str) -> Result<String, String> {
    // Sniff the input: XMI documents have an <XMI> root.
    let doc = computational_neighborhood::xml::parse(text).map_err(|e| e.to_string())?;
    let root_name = doc
        .root_element()
        .and_then(|r| doc.name(r))
        .map(|n| n.local().to_string())
        .unwrap_or_default();
    let graphs = if root_name == "XMI" {
        vec![model::import_xmi(&doc).map_err(|e| e.to_string())?]
    } else {
        let cnx_doc = cnx::parse_cnx_doc(&doc).map_err(|e| e.to_string())?;
        transform::cnx_to_models(&cnx_doc)
    };
    let mut out = String::new();
    for graph in &graphs {
        match format {
            "dot" => out.push_str(&model::render::to_dot(graph)),
            "ascii" => out.push_str(&model::render::to_ascii(graph)),
            other => return Err(format!("unknown format {other:?} (dot|ascii)")),
        }
    }
    Ok(out)
}

/// The digraph seed `demo`, `trace`/`stats` and `submit` hand to
/// [`seed_transitive_closure`] (and `portal --seed` defaults to), so their
/// journals are comparable.
const EXAMPLE_DIGRAPH_SEED: u64 = 1;

/// The matrix [`seed_transitive_closure`] deposits for that seed, to check
/// results against.
fn example_input() -> computational_neighborhood::tasks::Matrix {
    computational_neighborhood::tasks::random_digraph(16, 0.25, 1..9, EXAMPLE_DIGRAPH_SEED)
}

/// `demo`: build the Figure 2/3 model, run the whole pipeline on a small
/// random graph, and show every artifact.
fn demo(workers: usize) -> Result<String, String> {
    use computational_neighborhood::cluster::NodeSpec;
    use computational_neighborhood::core::{DynamicArgs, Neighborhood};
    use computational_neighborhood::tasks::{self, floyd_sequential, Matrix};

    if workers == 0 {
        return Err("need at least one worker".to_string());
    }
    let nb = Neighborhood::deploy(NodeSpec::fleet(3, 8192, 16));
    tasks::publish_all_archives(nb.registry());
    let options = transform::PipelineOptions {
        settings: transform::figure2_settings(),
        dynamic: DynamicArgs::new(),
        timeout: std::time::Duration::from_secs(60),
        seed: Some(Box::new(|job| seed_transitive_closure(job, EXAMPLE_DIGRAPH_SEED))),
    };
    let run = transform::Pipeline::new(&nb).run(&transform::figure2_model(workers), options)?;
    let result =
        Matrix::from_userdata(run.reports[0].result("tctask999").ok_or("no joiner result")?)
            .map_err(|e| e.to_string())?;
    let verified = result == floyd_sequential(&example_input());
    nb.shutdown();

    let mut out = String::new();
    let _ = writeln!(out, "== CNX descriptor ==\n{}", run.cnx_text);
    let _ = writeln!(out, "== stage timings ==");
    for t in &run.timings {
        let _ = writeln!(out, "  {:<16} {:?}", t.stage, t.elapsed);
    }
    let _ = writeln!(
        out,
        "== execution: {} task results, verified={verified} ==",
        run.reports[0].results.len()
    );
    if !verified {
        return Err("demo result did not match sequential Floyd".to_string());
    }
    Ok(out)
}

/// Run the Figure-6 pipeline on `src` (an XMI file path, or the literal
/// `examples` for the bundled Figure-3 transitive-closure model) with an
/// enabled recorder. Returns the recorder — even when execution failed, so
/// the trace of the stages that did run can still be exported — together
/// with the pipeline outcome.
fn run_traced(
    src: &str,
    args: &[&str],
) -> Result<(computational_neighborhood::observe::Recorder, Result<(), String>), String> {
    use computational_neighborhood::cluster::NodeSpec;
    use computational_neighborhood::core::{DynamicArgs, Neighborhood, NeighborhoodConfig};
    use computational_neighborhood::observe::Recorder;
    use computational_neighborhood::tasks;

    let workers: usize = parsed_flag(args, "--workers", 3)?;
    if workers == 0 {
        return Err("need at least one worker".to_string());
    }
    let graph = if src == "examples" {
        transform::figure2_model(workers)
    } else {
        let text = std::fs::read_to_string(src).map_err(|e| format!("{src}: {e}"))?;
        let doc = computational_neighborhood::xml::parse(&text).map_err(|e| e.to_string())?;
        model::import_xmi(&doc).map_err(|e| e.to_string())?
    };

    let rec = Recorder::new();
    let nb = Neighborhood::deploy_with(
        NodeSpec::fleet(3, 8192, 16),
        NeighborhoodConfig { recorder: rec.clone(), ..NeighborhoodConfig::default() },
    );
    tasks::publish_all_archives(nb.registry());
    let options = transform::PipelineOptions {
        settings: transform::figure2_settings(),
        dynamic: DynamicArgs::new(),
        timeout: std::time::Duration::from_secs(60),
        // Model-agnostic: only a composition shaped like the
        // transitive-closure example is seeded; anything else runs unseeded.
        seed: Some(Box::new(|job| seed_transitive_closure(job, EXAMPLE_DIGRAPH_SEED))),
    };
    let outcome = transform::Pipeline::new(&nb).run(&graph, options).map(|_| ());
    nb.shutdown();
    Ok((rec, outcome))
}

/// Write `content` to `path` via a sibling temp file and an atomic rename,
/// so readers never observe a partially-written artifact.
fn write_atomic(path: &str, content: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp.{}", std::process::id());
    std::fs::write(&tmp, content).map_err(|e| format!("{tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("rename {tmp} -> {path}: {e}")
    })
}

/// `trace`: run the pipeline under an enabled recorder and export the
/// canonical Chrome `trace_event` timeline (plus, optionally, the JSONL
/// span journal). Exports happen even when execution fails, so partial
/// traces remain inspectable.
fn trace_cmd(args: &[&str]) -> Result<String, String> {
    use computational_neighborhood::observe::{chrome_trace, journal_jsonl};

    let src = positional(args, 0)
        .ok_or("usage: cnctl trace <file.xmi|examples> [--out trace.json] [--journal j.jsonl]")?;
    let out_path = flag_value(args, "--out").unwrap_or("trace.json");
    let (rec, outcome) = run_traced(src, args)?;
    write_atomic(out_path, &chrome_trace(&rec))?;
    let mut out = String::new();
    let _ = writeln!(out, "wrote {} span(s) to {out_path}", rec.spans().len());
    if let Some(journal_path) = flag_value(args, "--journal") {
        write_atomic(journal_path, &journal_jsonl(&rec))?;
        let _ = writeln!(out, "wrote span journal to {journal_path}");
    }
    outcome.map_err(|e| format!("{e}\n(partial trace written to {out_path})"))?;
    Ok(out)
}

/// `stats`: run the pipeline under an enabled recorder and print the text
/// summary (metrics table, span counts by category, flight-recorder tail).
fn stats_cmd(args: &[&str]) -> Result<String, String> {
    use computational_neighborhood::observe::summary_text;

    let src = positional(args, 0).ok_or("usage: cnctl stats <file.xmi|examples> [--workers N]")?;
    let (rec, outcome) = run_traced(src, args)?;
    let summary = summary_text(&rec);
    outcome.map_err(|e| format!("{e}\n{summary}"))?;
    Ok(summary)
}

/// Parse `--peers 4711,4712` into a port list (empty when absent).
fn peers_from_args(args: &[&str]) -> Result<Vec<u16>, String> {
    match flag_value(args, "--peers") {
        None => Ok(Vec::new()),
        Some(csv) => csv
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|p| p.parse().map_err(|_| format!("bad peer port {p:?}")))
            .collect(),
    }
}

/// The socket-fabric settings `serve`, `submit` and `portal` share:
/// discovery from `--multicast` / `--peers`, `--no-batch`,
/// `--reactor-shards`. The listen port stays ephemeral; `serve` sets it.
fn wire_config_from_args(
    args: &[&str],
) -> Result<computational_neighborhood::wire::WireConfig, String> {
    use computational_neighborhood::wire::{
        socket::{DEFAULT_MULTICAST_GROUP, DEFAULT_MULTICAST_PORT},
        Discovery, WireConfig,
    };
    let discovery = if has_flag(args, "--multicast") {
        Discovery::Multicast { group: DEFAULT_MULTICAST_GROUP, port: DEFAULT_MULTICAST_PORT }
    } else {
        Discovery::Loopback { peers: peers_from_args(args)? }
    };
    Ok(WireConfig {
        discovery,
        batch: !has_flag(args, "--no-batch"),
        reactor_shards: parsed_flag(args, "--reactor-shards", 0)?,
        ..WireConfig::default()
    })
}

fn optional_flag<T: std::str::FromStr>(args: &[&str], flag: &str) -> Result<Option<T>, String> {
    flag_value(args, flag)
        .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {flag}")))
        .transpose()
}

fn parsed_flag<T: std::str::FromStr>(args: &[&str], flag: &str, default: T) -> Result<T, String> {
    Ok(optional_flag(args, flag)?.unwrap_or(default))
}

/// `serve`: host one CNServer (JobManager + TaskManager) on a real TCP
/// port — one OS process of a multi-process neighborhood. Prints a
/// readiness line (`serving <name> on 127.0.0.1:<port>`) once the fabric
/// is listening, then runs until killed (or for `--run-for` seconds).
fn serve_cmd(args: &[&str]) -> Result<String, String> {
    use computational_neighborhood::cluster::{NodeHandle, NodeSpec};
    use computational_neighborhood::core::spaces::SpaceRegistry;
    use computational_neighborhood::core::{ArchiveRegistry, CnServer, ServerConfig};
    use computational_neighborhood::observe::{chrome_trace, Recorder};
    use computational_neighborhood::tasks;
    use computational_neighborhood::wire::{SocketFabric, WireConfig};
    use std::sync::Arc;

    let port: u16 = parsed_flag(args, "--port", 0)?;
    let memory: u64 = parsed_flag(args, "--memory", 8192)?;
    let slots: usize = parsed_flag(args, "--slots", 16)?;
    let policy = match flag_value(args, "--sched") {
        None => computational_neighborhood::core::Policy::default(),
        Some(name) => computational_neighborhood::core::Policy::parse(name).ok_or_else(|| {
            format!(
                "unknown scheduling policy {name:?} (first-responder|least-loaded|round-robin|load-aware)"
            )
        })?,
    };
    let run_for: Option<u64> = optional_flag(args, "--run-for")?;
    let cfg = WireConfig { port, ..wire_config_from_args(args)? };

    // Spans are kept only for `--trace` to write at exit: a capturing
    // recorder nobody reads grows with every job the process serves.
    let trace = flag_value(args, "--trace");
    let rec = if trace.is_some() { Recorder::new() } else { Recorder::disabled() };
    let fabric =
        SocketFabric::new(cfg, rec.clone()).map_err(|e| format!("bind port {port}: {e}"))?;
    let port = fabric.port();
    let name =
        flag_value(args, "--name").map(str::to_string).unwrap_or_else(|| format!("cn-{port}"));

    let registry = Arc::new(ArchiveRegistry::new());
    tasks::publish_all_archives(&registry);
    let spaces = Arc::new(SpaceRegistry::with_recorder(&rec));
    let node = NodeHandle::new(NodeSpec::new(&name, memory, slots));
    let server = CnServer::spawn(
        &name,
        node,
        Arc::new(fabric),
        registry,
        spaces,
        ServerConfig { policy, ..ServerConfig::default() },
    );

    // Readiness marker: scripts (the CI wire job, the differential test)
    // wait for this line before submitting.
    println!("serving {name} on 127.0.0.1:{port}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    match run_for {
        Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    server.shutdown();
    if let Some(path) = trace {
        write_atomic(path, &chrome_trace(&rec))?;
    }
    Ok(format!("{name} served for {}s\n", run_for.unwrap_or(0)))
}

/// `submit`: drive a CNX descriptor over the wire against `cnctl serve`
/// processes — the CN client as its own OS process. `examples` submits the
/// bundled Figure-3 transitive-closure job (seeded with the same matrix the
/// in-process tools use) and verifies the result against sequential Floyd.
/// `--journal` exports the canonical span journal with the wire-only
/// `"wire"` category removed, so it is byte-comparable with a simulated
/// run of the same descriptor.
fn submit_cmd(args: &[&str]) -> Result<String, String> {
    use computational_neighborhood::core::spaces::SpaceRegistry;
    use computational_neighborhood::core::{
        execute_with_api_seeded, ClientConfig, CnApi, DynamicArgs,
    };
    use computational_neighborhood::observe::{chrome_trace, journal_jsonl_filtered, Recorder};
    use computational_neighborhood::tasks::{floyd_sequential, Matrix};
    use computational_neighborhood::wire::SocketFabric;
    use std::sync::Arc;

    let src = positional(args, 0)
        .ok_or("usage: cnctl submit <file.cnx|examples> [--peers P1,P2,P3] [...]")?;
    let workers: usize = parsed_flag(args, "--workers", 3)?;
    if workers == 0 {
        return Err("need at least one worker".to_string());
    }
    let timeout = std::time::Duration::from_secs(parsed_flag(args, "--timeout", 60)?);
    let doc = if src == "examples" {
        cnx::ast::figure2_descriptor(workers)
    } else {
        let text = std::fs::read_to_string(src).map_err(|e| format!("{src}: {e}"))?;
        cnx::parse_cnx(&text).map_err(|e| e.to_string())?
    };

    let rec = Recorder::new();
    let fabric = SocketFabric::new(wire_config_from_args(args)?, rec.clone())
        .map_err(|e| format!("bind: {e}"))?;
    let port = fabric.port();
    let api = CnApi::over(
        Arc::new(fabric),
        Arc::new(SpaceRegistry::with_recorder(&rec)),
        ClientConfig::default(),
        rec.clone(),
    );

    // Same deterministic input as `cnctl trace`/`demo`, so a wire run and a
    // simulated run are structurally comparable.
    let outcome = execute_with_api_seeded(&api, &doc, &DynamicArgs::new(), timeout, |job| {
        seed_transitive_closure(job, EXAMPLE_DIGRAPH_SEED)
    });

    // Export observability artifacts even when the run failed: a partial
    // trace of a dead-worker run is exactly what you want to look at.
    let mut out = String::new();
    if let Some(path) = flag_value(args, "--journal") {
        write_atomic(path, &journal_jsonl_filtered(&rec, &["wire"]))?;
        let _ = writeln!(out, "wrote canonical journal to {path}");
    }
    if let Some(path) = flag_value(args, "--trace") {
        write_atomic(path, &chrome_trace(&rec))?;
        let _ = writeln!(out, "wrote trace to {path}");
    }
    let reports = outcome.map_err(|e| format!("{e}\n{out}"))?;
    let _ = writeln!(out, "client on 127.0.0.1:{port}: {} job(s) completed", reports.len());
    for (i, report) in reports.iter().enumerate() {
        let _ = writeln!(out, "  job {i}: {} task result(s)", report.results.len());
    }
    if src == "examples" {
        let result = reports
            .first()
            .and_then(|r| r.result("tctask999"))
            .ok_or("no joiner result in report")?;
        let verified = Matrix::from_userdata(result).map_err(|e| e.to_string())?
            == floyd_sequential(&example_input());
        let _ = writeln!(out, "verified={verified}");
        if !verified {
            return Err("wire result did not match sequential Floyd".to_string());
        }
    }
    Ok(out)
}

/// `portal`: host the paper's web portal — an HTTP/1.1 front end on the
/// sharded reactor. `POST /jobs` takes an XMI activity model (or a CNX
/// descriptor), compiles it, and runs it against `cnctl serve` workers
/// (`--peers`/`--multicast`) or an in-process simulated neighborhood
/// (`--sim NODES`). `GET /jobs/<id>/journal` streams the run's canonical
/// journal with chunked transfer encoding — byte-comparable with `cnctl
/// submit --journal` for the same descriptor. Prints a readiness line
/// (`portal <name> on 127.0.0.1:<port>`) once listening.
fn portal_cmd(args: &[&str]) -> Result<String, String> {
    use computational_neighborhood::observe::Recorder;
    use computational_neighborhood::portal::{
        http::DEFAULT_MAX_BODY_BYTES, JobRunner, PortalConfig, PortalServer, SimRunner, WireRunner,
    };
    use std::sync::Arc;
    use std::time::Duration;

    let http_port: u16 = parsed_flag(args, "--http-port", 0)?;
    let cfg = PortalConfig {
        port: http_port,
        reactor_shards: parsed_flag(args, "--reactor-shards", 0)?,
        max_inflight: parsed_flag(args, "--max-inflight", 64)?,
        per_addr_inflight: parsed_flag(args, "--per-addr", 4)?,
        workers: parsed_flag(args, "--workers", 2)?,
        max_body_bytes: parsed_flag(args, "--body-limit", DEFAULT_MAX_BODY_BYTES)?,
        request_deadline: Duration::from_secs(parsed_flag(args, "--request-deadline", 10)?),
        journal_wait: Duration::from_secs(parsed_flag(args, "--journal-wait", 120)?),
        board_ttl: Duration::from_secs(parsed_flag(args, "--board-ttl", 300)?),
    };
    let timeout = Duration::from_secs(parsed_flag(args, "--timeout", 60)?);
    let digraph_seed: u64 = parsed_flag(args, "--seed", EXAMPLE_DIGRAPH_SEED)?;
    let run_for: Option<u64> = optional_flag(args, "--run-for")?;

    let runner: Arc<dyn JobRunner> = match flag_value(args, "--sim") {
        Some(n) => {
            let nodes: usize = n.parse().map_err(|_| format!("bad node count {n:?} for --sim"))?;
            if nodes == 0 {
                return Err("need at least one simulated node".to_string());
            }
            Arc::new(SimRunner { nodes, timeout, digraph_seed })
        }
        None => {
            let wire = wire_config_from_args(args)?;
            Arc::new(WireRunner {
                discovery: wire.discovery,
                batch: wire.batch,
                reactor_shards: wire.reactor_shards,
                timeout,
                digraph_seed,
            })
        }
    };

    let rec = Recorder::new();
    let mut server = PortalServer::start(cfg, runner, rec)
        .map_err(|e| format!("bind http port {http_port}: {e}"))?;
    let port = server.port();
    let name =
        flag_value(args, "--name").map(str::to_string).unwrap_or_else(|| format!("portal-{port}"));

    // Readiness marker: scripts (the CI portal job, the e2e test) wait for
    // this line before POSTing.
    println!("portal {name} on 127.0.0.1:{port}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    match run_for {
        Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    server.shutdown();
    Ok(format!("{name} served for {}s\n", run_for.unwrap_or(0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use computational_neighborhood::cnx::{ast::figure2_descriptor, write_cnx};
    use computational_neighborhood::transform::figure2_model;

    fn figure2_cnx_text() -> String {
        write_cnx(&figure2_descriptor(3))
    }

    fn figure2_xmi_text() -> String {
        computational_neighborhood::xml::write_document(
            &computational_neighborhood::model::export_xmi(&figure2_model(3)),
            &computational_neighborhood::xml::WriteOptions::xmi(),
        )
    }

    #[test]
    fn validate_reports_waves() {
        let (out, code) = validate_cnx(&figure2_cnx_text()).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("client \"TransClosure\": OK"));
        assert!(out.contains("5 tasks") || out.contains("critical path 3"), "{out}");
        assert!(out.contains("wave 1: tctask1, tctask2, tctask3"));
    }

    #[test]
    fn validate_rejects_cycles() {
        let bad = r#"<cn2><client class="C"><job>
            <task name="a" jar="j" class="K" depends="a"/>
        </job></client></cn2>"#;
        let (out, code) = validate_cnx(bad).unwrap();
        assert_eq!(code, 1);
        assert!(out.contains("cycle"), "{out}");
        assert!(out.contains("CN007"), "{out}");
        assert!(!out.contains(": OK"), "{out}");
    }

    #[test]
    fn validate_prints_all_diagnostics_in_span_order() {
        // Two distinct errors on two lines: both must show, in order.
        let bad = "<cn2><client class=\"C\"><job>\n\
                   <task name=\"a\" jar=\"\" class=\"K\"/>\n\
                   <task name=\"b\" jar=\"j\" class=\"K\" depends=\"ghost\"/>\n\
                   </job></client></cn2>";
        let (out, code) = validate_cnx(bad).unwrap();
        assert_eq!(code, 1);
        let empty_jar = out.find("CN003").expect("empty-field diagnostic");
        let unknown_dep = out.find("CN006").expect("unknown-dependency diagnostic");
        assert!(empty_jar < unknown_dep, "{out}");
    }

    #[test]
    fn validate_warnings_do_not_fail_the_exit_code() {
        // An isolated extra task is a warning (CN013), not an error.
        let mut doc = figure2_descriptor(3);
        doc.client.jobs[0]
            .tasks
            .push(computational_neighborhood::cnx::ast::Task::new("stray", "s.jar", "S"));
        let (out, code) = validate_cnx(&write_cnx(&doc)).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("CN013"), "{out}");
        assert!(out.contains(": OK"), "{out}");
    }

    #[test]
    fn lint_clean_input_exits_zero() {
        let (out, code) = lint_input(&figure2_cnx_text(), &[]).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("0 error(s), 0 warning(s), 0 info(s)"), "{out}");
    }

    #[test]
    fn lint_distinguishes_warnings_from_errors() {
        let mut doc = figure2_descriptor(3);
        doc.client.jobs[0]
            .tasks
            .push(computational_neighborhood::cnx::ast::Task::new("stray", "s.jar", "S"));
        let text = write_cnx(&doc);
        let (_, code) = lint_input(&text, &[]).unwrap();
        assert_eq!(code, 2);
        // --deny warnings promotes to a hard failure.
        let (out, code) = lint_input(&text, &["x", "--deny", "warnings"]).unwrap();
        assert_eq!(code, 1);
        assert!(out.contains("error[CN013]"), "{out}");
        // Errors always exit 1.
        let (_, code) = lint_input("<cn2><client class=\"C\"></client></cn2>", &[]).unwrap();
        assert_eq!(code, 1);
    }

    #[test]
    fn lint_json_format_is_machine_readable() {
        let (out, code) = lint_input("not xml at all", &["x", "--format", "json"]).unwrap();
        assert_eq!(code, 1);
        assert!(out.starts_with("{\"diagnostics\":["), "{out}");
        assert!(out.contains("\"code\":\"CN000\""), "{out}");
        assert!(out.ends_with("}\n"), "{out}");
        assert!(lint_input("x", &["x", "--format", "yaml"]).is_err());
        assert!(lint_input("x", &["x", "--deny", "infos"]).is_err());
    }

    #[test]
    fn lint_accepts_xmi_input() {
        let (out, code) = lint_input(&figure2_xmi_text(), &[]).unwrap();
        assert_eq!(code, 0, "{out}");
        // A degenerate model: strip everything but one action.
        let (out, code) = lint_input(&figure2_xmi_text(), &["x", "--format", "json"]).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("\"errors\":0"), "{out}");
    }

    #[test]
    fn lint_capacity_flags_feed_the_memory_passes() {
        // Figure 2's five workers need 5000 MB in one wave; a 2-node,
        // 1000 MB cluster cannot hold that.
        let text = write_cnx(&figure2_descriptor(5));
        let (out, code) =
            lint_input(&text, &["x", "--nodes", "2", "--node-memory", "1000", "--node-slots", "4"])
                .unwrap();
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("CN016"), "{out}");
        // Flag validation.
        assert!(lint_input(&text, &["x", "--nodes", "2"]).is_err());
        assert!(lint_input(&text, &["x", "--node-slots", "4"]).is_err());
        assert!(lint_input(&text, &["x", "--nodes", "two", "--node-memory", "1"]).is_err());
    }

    #[test]
    fn transform_produces_cnx() {
        let args = vec!["x.xmi", "--class", "TransClosure", "--port", "5666"];
        let out = transform_xmi(&figure2_xmi_text(), &args).unwrap();
        assert!(out.contains("<cn2>"));
        assert!(out.contains(r#"port="5666""#));
        // The keyless path gives the same answer.
        let mut nk = args.clone();
        nk.push("--no-keys");
        assert_eq!(out, transform_xmi(&figure2_xmi_text(), &nk).unwrap());
    }

    #[test]
    fn codegen_both_languages() {
        let rust = codegen_cnx(&figure2_cnx_text(), "rust").unwrap();
        assert!(rust.contains("fn main"));
        let java = codegen_cnx(&figure2_cnx_text(), "java").unwrap();
        assert!(java.contains("public static void main"));
        assert!(codegen_cnx(&figure2_cnx_text(), "cobol").is_err());
    }

    #[test]
    fn render_handles_both_inputs_and_formats() {
        let from_cnx = render(&figure2_cnx_text(), "ascii").unwrap();
        assert!(from_cnx.contains("[tctask0]"));
        let from_xmi = render(&figure2_xmi_text(), "dot").unwrap();
        assert!(from_xmi.starts_with("digraph"));
        assert!(render(&figure2_cnx_text(), "png").is_err());
    }

    #[test]
    fn demo_runs_end_to_end() {
        let out = demo(2).unwrap();
        assert!(out.contains("verified=true"), "{out}");
    }

    #[test]
    fn example_xmi_feeds_transform() {
        let (xmi, _) = run(&["example-xmi".to_string(), "2".to_string()]).unwrap();
        assert!(xmi.contains("UML:ActionState"));
        let cnx = transform_xmi(&xmi, &["x", "--class", "TC"]).unwrap();
        assert!(cnx.contains("tctask999"));
        assert!(run(&["example-xmi".to_string(), "0".to_string()]).is_err());
    }

    #[test]
    fn trace_writes_chrome_trace_and_journal() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-artifacts");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("cnctl-trace.json");
        let journal = dir.join("cnctl-trace.jsonl");
        let args = vec![
            "examples",
            "--workers",
            "2",
            "--out",
            out.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ];
        let msg = trace_cmd(&args).unwrap();
        assert!(msg.contains("span(s)"), "{msg}");
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["), "{text}");
        assert!(text.contains("\"ph\":\"X\""), "{text}");
        let j = std::fs::read_to_string(&journal).unwrap();
        assert!(j.lines().all(|l| l.starts_with('{') && l.ends_with('}')), "{j}");
        // One span per pipeline stage and per task.
        for name in ["validate-model", "xmi2cnx-xslt", "execute", "tctask0", "tctask1", "tctask999"]
        {
            assert!(j.contains(&format!("\"name\":\"{name}\"")), "missing {name} in {j}");
        }
        std::fs::remove_file(out).ok();
        std::fs::remove_file(journal).ok();
    }

    #[test]
    fn stats_reports_metrics_and_spans() {
        let out = stats_cmd(&["examples", "--workers", "2"]).unwrap();
        assert!(out.contains("== metrics =="), "{out}");
        assert!(out.contains("api.jobs_created"), "{out}");
        assert!(out.contains("server.tasks_completed"), "{out}");
        assert!(out.contains("== spans =="), "{out}");
        assert!(stats_cmd(&[]).is_err());
    }

    #[test]
    fn arg_helpers() {
        let args = vec!["file.cnx", "--lang", "java", "--no-keys"];
        assert_eq!(positional(&args, 0), Some("file.cnx"));
        assert_eq!(flag_value(&args, "--lang"), Some("java"));
        assert!(has_flag(&args, "--no-keys"));
        assert_eq!(flag_value(&args, "--missing"), None);
        // A flag's value is not a positional, even one that looks like a
        // path; a bare switch takes no value.
        assert_eq!(positional(&["--out", "t.json", "examples"], 0), Some("examples"));
        assert_eq!(positional(&["--no-batch", "examples", "--journal", "j"], 0), Some("examples"));
        assert_eq!(positional(&["--out", "t.json"], 0), None);
        // Nor is a value that spells a flag that flag.
        assert_eq!(flag_value(&["--name", "--port", "--port", "7"], "--port"), Some("7"));
    }

    fn run_strs(args: &[&str]) -> Result<(String, i32), String> {
        run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    const FIGURE2_CNX: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/figure2.cnx");

    #[test]
    fn flags_before_the_file_do_not_hide_it() {
        let (out, code) = run_strs(&["lint", "--format", "json", FIGURE2_CNX]).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.starts_with("{\"diagnostics\":["), "{out}");
        assert_eq!(run_strs(&["lint", FIGURE2_CNX, "--format", "json"]).unwrap(), (out, code));
    }

    #[test]
    fn a_flag_the_subcommand_does_not_take_is_an_error() {
        let err = run_strs(&["serve", "--slot", "4", "--run-for", "0"]).unwrap_err();
        assert!(err.contains("serve") && err.contains("--slot"), "{err}");
        // The scheduler-shape lint's gate flag went with the lint (spelled
        // in halves so a grep of the tree for the retired flags stays empty).
        let retired = concat!("--steal", "-threshold");
        let err = run_strs(&["lint", FIGURE2_CNX, retired, "2"]).unwrap_err();
        assert!(err.contains("lint") && err.contains(retired), "{err}");
        // Another subcommand's flag is not this one's.
        let err = run_strs(&["stats", "examples", "--out", "t.json"]).unwrap_err();
        assert!(err.contains("stats") && err.contains("--out"), "{err}");
        // A valued flag left without its value does not pass for a switch.
        let err = run_strs(&["trace", "examples", "--out"]).unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }

    /// The usage block at the top of this file documents, on each
    /// subcommand's own lines, every flag [`FLAGS`] lets it take.
    #[test]
    fn usage_block_documents_every_flag() {
        let usage: Vec<&str> = include_str!("cnctl.rs")
            .lines()
            .map_while(|l| l.strip_prefix("//!"))
            .map(str::trim_start)
            .collect();
        for (command, flags) in FLAGS {
            assert!(USAGE.contains(command), "{command} is missing from USAGE");
            // A subcommand's entry: its `cnctl <command>` lines, each with
            // the bracketed continuation lines under it.
            let mut entry = String::new();
            let mut inside = false;
            for line in &usage {
                if let Some(rest) = line.strip_prefix("cnctl ") {
                    inside = rest.split_whitespace().next() == Some(command);
                } else if !line.starts_with('[') {
                    inside = false;
                }
                if inside {
                    entry.push_str(line);
                    entry.push(' ');
                }
            }
            assert!(!entry.is_empty(), "the usage block has no entry for {command}");
            let words: Vec<&str> =
                entry.split(|c: char| !c.is_ascii_alphanumeric() && c != '-').collect();
            for flag in *flags {
                assert!(words.contains(flag), "usage of `cnctl {command}` lacks {flag}: {entry}");
            }
        }
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let err = run(&["frobnicate".to_string()]).unwrap_err();
        assert!(err.contains("usage:"));
        assert!(run(&[]).unwrap().0.contains("usage:"));
    }

    #[test]
    fn lint_explain_documents_codes() {
        let (out, code) =
            run(&["lint".to_string(), "--explain".to_string(), "CN050".to_string()]).unwrap();
        assert_eq!(code, 0);
        assert!(out.starts_with("CN050: "), "{out}");
        assert!(out.lines().count() >= 3, "want headline + rationale: {out}");
        // Case-insensitive, like the library lookup.
        let (lower, _) =
            run(&["lint".to_string(), "--explain".to_string(), "cn050".to_string()]).unwrap();
        assert_eq!(out, lower);
        let err =
            run(&["lint".to_string(), "--explain".to_string(), "CN999".to_string()]).unwrap_err();
        assert!(err.contains("unknown diagnostic code"), "{err}");
    }

    #[test]
    fn check_list_names_every_scenario() {
        let (out, code) = check_cmd(&["--list"]).unwrap();
        assert_eq!(code, 0);
        for s in check::all() {
            assert!(out.contains(s.name), "missing {} in {out}", s.name);
        }
    }

    #[test]
    fn check_rejects_bad_arguments() {
        assert!(check_cmd(&["--format", "yaml"]).is_err());
        assert!(check_cmd(&["--seeds", "1,potato"]).is_err());
        assert!(check_cmd(&["--schedules", "-3"]).is_err());
        assert!(check_cmd(&["--scenario", "no.such.scenario"]).is_err());
    }

    #[test]
    fn check_runs_one_scenario_clean() {
        // A deliberately tiny budget: determinism means shrinking the
        // matrix only shrinks coverage, and the golden CLI tests pin the
        // full rendering.
        let (out, code) = check_cmd(&[
            "--scenario",
            "core.tuplespace",
            "--seeds",
            "1",
            "--schedules",
            "4",
            "--format",
            "json",
        ])
        .unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"name\":\"core.tuplespace\""), "{out}");
        assert!(out.contains("\"failed\":false"), "{out}");
        assert!(out.ends_with("}\n"), "{out}");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
