//! Multi-process wire-transport tests: `cnctl serve` workers as real OS
//! processes, a client over TCP/UDP loopback, and the differential
//! guarantee that a wire run and a simulated run of the same job export
//! the same canonical span journal.

use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::core::spaces::SpaceRegistry;
use computational_neighborhood::core::{
    execute_descriptor_seeded, execute_with_api_seeded, ClientConfig, ClientError, CnApi,
    DynamicArgs, JobRequirements, Neighborhood, NeighborhoodConfig, NetMsg, TaskSpec,
};
use computational_neighborhood::observe::{journal_jsonl_filtered, Recorder, Severity};
use computational_neighborhood::tasks::{self, random_digraph, seed_input};
use computational_neighborhood::wire::{Discovery, FabricHandle, SocketFabric, WireConfig};

const CNCTL: &str = env!("CARGO_BIN_EXE_cnctl");

/// Reserve `n` distinct ports by binding ephemeral listeners, then release
/// them. A later bind can race another process, but the window is tiny.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    listeners.iter().map(|l| l.local_addr().expect("addr").port()).collect()
}

struct Serves(Vec<Child>);

impl Drop for Serves {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Launch one `cnctl serve` per port, peered with the others, and wait for
/// every TCP listener to accept.
fn launch_serves(ports: &[u16]) -> Serves {
    launch_serves_with(ports, &[])
}

fn launch_serves_with(ports: &[u16], extra: &[&str]) -> Serves {
    let children = ports
        .iter()
        .map(|port| {
            let peers: Vec<String> =
                ports.iter().filter(|p| *p != port).map(|p| p.to_string()).collect();
            let mut args = vec![
                "serve".to_string(),
                "--port".to_string(),
                port.to_string(),
                "--peers".to_string(),
                peers.join(","),
                "--run-for".to_string(),
                "120".to_string(),
            ];
            args.extend(extra.iter().map(|a| a.to_string()));
            Command::new(CNCTL)
                .args(&args)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn cnctl serve")
        })
        .collect();
    let serves = Serves(children);
    let deadline = Instant::now() + Duration::from_secs(10);
    for port in ports {
        loop {
            match TcpStream::connect(("127.0.0.1", *port)) {
                Ok(_) => break,
                Err(e) => {
                    assert!(Instant::now() < deadline, "serve on {port} never came up: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }
    serves
}

fn seed_figure3(job: &mut computational_neighborhood::core::JobHandle) {
    let input = random_digraph(16, 0.25, 1..9, 1);
    let names = job.task_names();
    let worker_names: Vec<String> =
        names.iter().filter(|n| *n != "tctask0" && *n != "tctask999").cloned().collect();
    seed_input(job, "matrix.txt", &input, &worker_names, "tctask999").expect("seed input");
}

/// The tentpole acceptance: the Figure-3 job completes across 3 `cnctl
/// serve` processes plus a subprocess client (4 OS processes total), and
/// its canonical journal is byte-identical to an in-process simulated run
/// of the same descriptor.
#[test]
fn wire_run_matches_simulated_canonical_journal() {
    let ports = free_ports(3);
    let _serves = launch_serves(&ports);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-artifacts");
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("wire-differential.jsonl");
    let peers: Vec<String> = ports.iter().map(|p| p.to_string()).collect();
    let output = Command::new(CNCTL)
        .args([
            "submit",
            "examples",
            "--workers",
            "2",
            "--peers",
            &peers.join(","),
            "--timeout",
            "60",
            "--journal",
            journal_path.to_str().unwrap(),
        ])
        .output()
        .expect("run cnctl submit");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "submit failed: {stdout}");
    assert!(stdout.contains("verified=true"), "{stdout}");
    let wire_journal = std::fs::read_to_string(&journal_path).unwrap();

    // The same job on the simulated fabric, same recorder surface.
    let rec = Recorder::new();
    let nb = Neighborhood::deploy_with(
        NodeSpec::fleet(3, 8192, 16),
        NeighborhoodConfig { recorder: rec.clone(), ..NeighborhoodConfig::default() },
    );
    tasks::publish_all_archives(nb.registry());
    let doc = computational_neighborhood::cnx::ast::figure2_descriptor(2);
    execute_descriptor_seeded(&nb, &doc, &DynamicArgs::new(), Duration::from_secs(60), |job| {
        seed_figure3(job)
    })
    .expect("simulated run");
    nb.shutdown();
    let sim_journal = journal_jsonl_filtered(&rec, &["wire"]);

    assert!(!wire_journal.is_empty());
    assert_eq!(
        wire_journal, sim_journal,
        "canonical journals diverged between wire and simulated runs"
    );
    std::fs::remove_file(journal_path).ok();
}

/// PR5 differential guarantee: write coalescing is invisible to the
/// runtime. The same Figure-3 job over the wire with batching on (the
/// default) and off (`--no-batch` on every process) exports byte-identical
/// canonical journals.
#[test]
fn batched_and_unbatched_wire_runs_export_identical_journals() {
    let run = |no_batch: bool, tag: &str| -> String {
        let ports = free_ports(3);
        let extra: &[&str] = if no_batch { &["--no-batch"] } else { &[] };
        let _serves = launch_serves_with(&ports, extra);

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-artifacts");
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join(format!("wire-differential-{tag}.jsonl"));
        let peers = ports.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(",");
        let mut args = vec![
            "submit",
            "examples",
            "--workers",
            "2",
            "--peers",
            &peers,
            "--timeout",
            "60",
            "--journal",
            journal_path.to_str().unwrap(),
        ];
        if no_batch {
            args.push("--no-batch");
        }
        let output = Command::new(CNCTL).args(&args).output().expect("run cnctl submit");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "submit ({tag}) failed: {stdout}");
        assert!(stdout.contains("verified=true"), "{stdout}");
        let journal = std::fs::read_to_string(&journal_path).unwrap();
        std::fs::remove_file(journal_path).ok();
        journal
    };

    let batched = run(false, "batched");
    let unbatched = run(true, "unbatched");
    assert!(!batched.is_empty());
    assert_eq!(
        batched, unbatched,
        "canonical journals diverged between batched and unbatched wire runs"
    );
}

/// Killing the worker that hosts the JobManager mid-conversation must
/// surface a typed transport error to the client — not a hang — and leave
/// wire-category evidence in the flight recorder, with the client's
/// connect retries exercised on the way down.
#[test]
fn killing_a_serve_worker_surfaces_typed_error_and_flight_events() {
    let ports = free_ports(1);
    let mut serves = launch_serves(&ports);

    let rec = Recorder::new();
    let cfg = WireConfig {
        discovery: Discovery::Loopback { peers: ports.clone() },
        ..WireConfig::default()
    };
    let fabric = SocketFabric::new(cfg, rec.clone()).expect("client fabric");
    let api = CnApi::over(
        Arc::new(fabric),
        Arc::new(computational_neighborhood::core::spaces::SpaceRegistry::new()),
        ClientConfig::default(),
        rec.clone(),
    );

    // Healthy start: discovery finds the JM and the job is created.
    let mut job = api.create_job(&JobRequirements::default()).expect("create job");

    // Kill the only worker, then keep talking to it. The first write may
    // land in a dead socket buffer, but within a few attempts the client
    // sees a connect failure or timeout — never an indefinite hang.
    serves.0[0].kill().expect("kill serve");
    serves.0[0].wait().expect("reap serve");

    let started = Instant::now();
    let mut error = None;
    for i in 0..10 {
        let mut spec = TaskSpec::new(format!("t{i}"), "tctask.jar", "TCTask");
        spec.memory_mb = 64;
        match job.add_task(spec) {
            Ok(_) => continue,
            Err(e) => {
                // The first failure can be an ack timeout (the dying
                // socket still buffered the request); keep talking until
                // the transport itself reports the dead peer.
                let transport = matches!(e, ClientError::Net(_));
                error = Some(e);
                if transport {
                    break;
                }
            }
        }
    }
    let error = error.expect("client never observed the dead worker");
    assert!(started.elapsed() < Duration::from_secs(30), "took too long: {error}");

    // Typed evidence on the client: the error names the failure, the
    // flight recorder holds wire-category events, and the retry counters
    // moved.
    let msg = error.to_string();
    assert!(!msg.is_empty());
    let wire_events: Vec<_> =
        rec.flight().dump().into_iter().filter(|e| e.category == "wire").collect();
    assert!(
        wire_events.iter().any(|e| matches!(e.severity, Severity::Warn | Severity::Error)),
        "no wire-category warning/error in flight recorder: {wire_events:?}"
    );
    let retries = rec.counter("wire.connect_retries").get()
        + rec.counter("wire.timeouts").get()
        + rec.counter("wire.drops").get();
    assert!(retries > 0, "no retry/timeout/drop counters incremented");
}

/// A submit with no servers behind it fails with the typed no-managers
/// error, not a hang.
#[test]
fn submit_with_no_servers_is_a_typed_failure() {
    let output = Command::new(CNCTL)
        .args(["submit", "examples", "--workers", "2", "--timeout", "5"])
        .output()
        .expect("run cnctl submit");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("no willing JobManager"), "{stderr}");
}

/// The serve readiness line is machine-readable (scripts depend on it).
#[test]
fn serve_prints_readiness_line() {
    let ports = free_ports(1);
    let mut child = Command::new(CNCTL)
        .args(["serve", "--port", &ports[0].to_string(), "--run-for", "2", "--name", "w0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("readiness line");
    assert_eq!(line.trim(), format!("serving w0 on 127.0.0.1:{}", ports[0]));
    let _ = child.kill();
    let _ = child.wait();
}

/// A process's resident set in KB, from `/proc/<pid>/status`.
fn rss_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

/// A `cnctl serve` keeps nothing for a job once the job is over: across
/// 1 500 Figure-3 jobs from one client fabric (the portal's shape), each
/// serve's resident set grows by less than 256 KB between job 300 and the
/// last job. A recorder that kept every span read ≈ 0.5 MB per 1 000 jobs.
#[test]
fn serve_memory_does_not_grow_with_the_jobs_it_serves() {
    const JOBS: usize = 1_500;
    const WARM: usize = 300;
    const GROWTH_KB: u64 = 256;
    let ports = free_ports(3);
    let serves = launch_serves(&ports);
    let cfg = WireConfig {
        discovery: Discovery::Loopback { peers: ports.clone() },
        ..WireConfig::default()
    };
    let fabric: FabricHandle<NetMsg> =
        Arc::new(SocketFabric::new(cfg, Recorder::disabled()).expect("client fabric"));
    let doc = computational_neighborhood::cnx::ast::figure2_descriptor(2);
    let rss = || serves.0.iter().map(|c| rss_kb(c.id())).collect::<Vec<_>>();

    let mut warm = Vec::new();
    for i in 0..JOBS {
        if i == WARM {
            warm = rss();
        }
        let rec = Recorder::disabled();
        let api = CnApi::over(
            Arc::clone(&fabric),
            Arc::new(SpaceRegistry::with_recorder(&rec)),
            ClientConfig::default(),
            rec,
        );
        execute_with_api_seeded(&api, &doc, &DynamicArgs::new(), Duration::from_secs(60), |job| {
            seed_figure3(job)
        })
        .unwrap_or_else(|e| panic!("job {i}: {e}"));
    }
    let last = rss();
    for ((port, before), after) in ports.iter().zip(&warm).zip(&last) {
        assert!(
            after.saturating_sub(*before) < GROWTH_KB,
            "serve on {port} grew {before} → {after} KB over jobs {WARM}..{JOBS}"
        );
    }
}
