//! Multi-process portal tests: `cnctl serve` workers plus a `cnctl
//! portal` front end as real OS processes, a raw-TCP HTTP client POSTing
//! the Figure-3 XMI, and the differential guarantee that the journal
//! streamed back over HTTP is byte-identical to an in-process simulated
//! run of the same model.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::core::{
    execute_descriptor_seeded, DynamicArgs, Neighborhood, NeighborhoodConfig,
};
use computational_neighborhood::observe::{journal_jsonl_filtered, Recorder};
use computational_neighborhood::portal::http::ChunkedDecoder;
use computational_neighborhood::portal::{
    compile_submission, seed_transitive_closure, JobRunner, WireRunner,
};
use computational_neighborhood::tasks;
use computational_neighborhood::transform::figure2_model;
use computational_neighborhood::wire::Discovery;

const CNCTL: &str = env!("CARGO_BIN_EXE_cnctl");

/// Every test opens descriptors in this process (child pipes, sockets); the
/// one that counts them runs alone.
static FDS: RwLock<()> = RwLock::new(());

/// Reserve `n` distinct ports by binding ephemeral listeners, then release
/// them. A later bind can race another process, but the window is tiny.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    listeners.iter().map(|l| l.local_addr().expect("addr").port()).collect()
}

struct Procs(Vec<Child>);

impl Drop for Procs {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Launch one `cnctl serve` per port, peered with the others, and wait for
/// every TCP listener to accept.
fn launch_serves(ports: &[u16]) -> Procs {
    let children = ports
        .iter()
        .map(|port| {
            let peers: Vec<String> =
                ports.iter().filter(|p| *p != port).map(|p| p.to_string()).collect();
            Command::new(CNCTL)
                .args([
                    "serve",
                    "--port",
                    &port.to_string(),
                    "--peers",
                    &peers.join(","),
                    "--run-for",
                    "120",
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn cnctl serve")
        })
        .collect();
    let serves = Procs(children);
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

/// Launch `cnctl portal` fronting the given serve peers and block on its
/// readiness line.
fn launch_portal(http_port: u16, peers: &[u16], extra: &[&str]) -> Procs {
    let peers = peers.iter().map(u16::to_string).collect::<Vec<_>>().join(",");
    let mut args = vec![
        "portal".to_string(),
        "--http-port".to_string(),
        http_port.to_string(),
        "--peers".to_string(),
        peers,
        "--run-for".to_string(),
        "120".to_string(),
    ];
    args.extend(extra.iter().map(|a| a.to_string()));
    let mut child = Command::new(CNCTL)
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cnctl portal");
    let stdout = child.stdout.take().expect("portal stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("portal readiness line");
    assert_eq!(
        line.trim(),
        format!("portal portal-{http_port} on 127.0.0.1:{http_port}"),
        "unexpected readiness line"
    );
    Procs(vec![child])
}

/// A minimal HTTP/1.1 client for one keep-alive connection: no pipelining,
/// so every read ends exactly at a response boundary.
struct Http {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Http {
    fn connect(port: u16) -> Self {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("portal connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
        Http { stream, buf: Vec::new() }
    }

    fn fill(&mut self) {
        let mut tmp = [0u8; 16 * 1024];
        let n = self.stream.read(&mut tmp).expect("portal read");
        assert!(n > 0, "portal closed the connection early");
        self.buf.extend_from_slice(&tmp[..n]);
    }

    /// Send one request and read its response: (status, body).
    fn roundtrip(&mut self, method: &str, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nhost: e2e\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes()).expect("portal write");
        self.stream.write_all(body).expect("portal write body");

        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill();
        };
        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("response head");
        let status: u16 =
            head.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("status code");
        let header = |name: &str| -> Option<String> {
            head.lines().skip(1).find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim().eq_ignore_ascii_case(name).then(|| v.trim().to_string())
            })
        };
        self.buf.drain(..head_end);

        if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
            let mut dec = ChunkedDecoder::new();
            let mut out = Vec::new();
            loop {
                let used = dec.advance(&self.buf, &mut out).expect("chunked body");
                self.buf.drain(..used);
                if dec.is_done() {
                    break;
                }
                self.fill();
            }
            return (status, out);
        }
        let len: usize = header("content-length").and_then(|v| v.parse().ok()).unwrap_or(0);
        while self.buf.len() < len {
            self.fill();
        }
        let body: Vec<u8> = self.buf.drain(..len).collect();
        assert!(self.buf.is_empty(), "unexpected bytes after response body");
        (status, body)
    }
}

fn figure3_xmi(workers: usize) -> String {
    computational_neighborhood::xml::write_document(
        &computational_neighborhood::model::export_xmi(&figure2_model(workers)),
        &computational_neighborhood::xml::WriteOptions::xmi(),
    )
}

fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":\"");
    let start = json.find(&pat).unwrap_or_else(|| panic!("no {key:?} in {json}")) + pat.len();
    &json[start..start + json[start..].find('"').expect("unterminated field")]
}

/// The PR8 acceptance: the Figure-3 model goes in as XMI over HTTP, runs
/// on 3 `cnctl serve` processes behind a `cnctl portal` process (5 OS
/// processes total with the test), and the journal streamed back over
/// chunked HTTP is byte-identical to an in-process simulated run of the
/// same XMI through the same compile path.
#[test]
fn portal_streamed_journal_matches_simulated_run() {
    let _fds = FDS.read().unwrap_or_else(|e| e.into_inner());
    let ports = free_ports(4);
    let (http_port, serve_ports) = (ports[0], &ports[1..]);
    let _serves = launch_serves(serve_ports);
    let _portal = launch_portal(http_port, serve_ports, &["--timeout", "60"]);

    let xmi = figure3_xmi(2);
    let mut http = Http::connect(http_port);
    let (status, body) = http.roundtrip("POST", "/jobs", xmi.as_bytes());
    let accepted = String::from_utf8(body).expect("utf8 submit response");
    assert_eq!(status, 202, "{accepted}");
    let id = field(&accepted, "id").to_string();

    let deadline = Instant::now() + Duration::from_secs(90);
    loop {
        let (status, body) = http.roundtrip("GET", &format!("/jobs/{id}"), b"");
        assert_eq!(status, 200);
        let body = String::from_utf8(body).expect("utf8 status");
        match field(&body, "state") {
            "done" => break,
            "failed" => panic!("portal job failed: {body}"),
            _ => {
                assert!(Instant::now() < deadline, "job never finished: {body}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }

    let (status, journal) = http.roundtrip("GET", &format!("/jobs/{id}/journal"), b"");
    assert_eq!(status, 200);
    let wire_journal = String::from_utf8(journal).expect("utf8 journal");
    assert!(!wire_journal.is_empty(), "empty journal stream");

    // The CI portal job collects the streamed journal as a run artifact.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-artifacts");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("portal-journal.jsonl"), &wire_journal).unwrap();

    assert_eq!(
        wire_journal,
        simulated_journal(&xmi),
        "canonical journals diverged between the portal run and the simulated run"
    );
}

/// The same XMI through the same compile path, run on the simulated fabric
/// with the same deterministic input seed the portal uses.
fn simulated_journal(xmi: &str) -> String {
    let compiled = compile_submission(xmi.as_bytes()).expect("compile figure-3 XMI");
    let rec = Recorder::new();
    let nb = Neighborhood::deploy_with(
        NodeSpec::fleet(3, 8192, 16),
        NeighborhoodConfig { recorder: rec.clone(), ..NeighborhoodConfig::default() },
    );
    tasks::publish_all_archives(nb.registry());
    execute_descriptor_seeded(
        &nb,
        &compiled.descriptor,
        &DynamicArgs::new(),
        Duration::from_secs(60),
        |job| seed_transitive_closure(job, 1),
    )
    .expect("simulated run");
    nb.shutdown();
    journal_jsonl_filtered(&rec, &["wire"])
}

/// ROADMAP direction 1's acceptance: four HTTP clients submit fifty
/// Figure-3 jobs each, concurrently, to the 5-process cluster. Every job
/// completes on its first submission and streams the reference journal —
/// the jobs share the portal's one client fabric and the servers' task
/// threads, and none sees another's messages.
#[test]
fn concurrent_clients_all_get_the_reference_journal() {
    let _fds = FDS.read().unwrap_or_else(|e| e.into_inner());
    let ports = free_ports(4);
    let (http_port, serve_ports) = (ports[0], &ports[1..]);
    let _serves = launch_serves(serve_ports);
    // Room for all four clients from one address, with a slot to spare for
    // the moment between a job's journal and its admission slot coming back.
    let _portal = launch_portal(http_port, serve_ports, &["--timeout", "60", "--per-addr", "8"]);
    let xmi = figure3_xmi(2);
    let reference = simulated_journal(&xmi);

    std::thread::scope(|s| {
        for client in 0..4 {
            let (xmi, reference) = (&xmi, &reference);
            s.spawn(move || {
                let mut http = Http::connect(http_port);
                for n in 0..50 {
                    let (status, body) = http.roundtrip("POST", "/jobs", xmi.as_bytes());
                    let accepted = String::from_utf8(body).expect("utf8 submit response");
                    assert_eq!(status, 202, "client {client}, job {n}: {accepted}");
                    let id = field(&accepted, "id");
                    let (status, journal) =
                        http.roundtrip("GET", &format!("/jobs/{id}/journal"), b"");
                    assert_eq!(status, 200);
                    let journal = String::from_utf8(journal).expect("utf8 journal");
                    assert!(&journal == reference, "client {client}, job {n} ({id}): {journal}");
                }
            });
        }
    });
}

/// The portal's client fabric is bound by its first job and kept: after the
/// second job the process holds descriptors it did not hold before the
/// first, and eighteen jobs later it holds exactly as many.
#[test]
fn wire_jobs_share_one_client_fabric() {
    let _alone = FDS.write().unwrap_or_else(|e| e.into_inner());
    let ports = free_ports(1);
    let _serves = launch_serves(&ports);
    let runner = WireRunner {
        discovery: Discovery::Loopback { peers: ports },
        batch: true,
        reactor_shards: 0,
        timeout: Duration::from_secs(60),
        digraph_seed: 1,
    };
    let job = compile_submission(figure3_xmi(2).as_bytes()).expect("compile figure-3 XMI");
    let fds = || std::fs::read_dir("/proc/self/fd").expect("/proc/self/fd").count();
    let before = fds();
    let mut after = Vec::new();
    for n in 1..=20 {
        runner.run(&job).unwrap_or_else(|e| panic!("job {n}: {e}"));
        after.push(fds());
    }
    assert!(
        after[1] > before,
        "the client fabric went with its job: {before} fds before, {after:?}"
    );
    assert_eq!(after[19], after[1], "fd counts after each job: {after:?}");
}

/// The portal readiness line is machine-readable (the CI job and this
/// file's own launcher depend on it), and `/metrics` serves live counters
/// without any serve workers having done work yet.
#[test]
fn portal_prints_readiness_line_and_serves_metrics() {
    let _fds = FDS.read().unwrap_or_else(|e| e.into_inner());
    let ports = free_ports(1);
    let _portal = launch_portal(ports[0], &[], &["--sim", "2"]);
    let mut http = Http::connect(ports[0]);
    let (status, body) = http.roundtrip("GET", "/metrics", b"");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf8 metrics");
    assert!(text.contains("portal.http.requests "), "{text}");
    assert!(text.contains("portal.conns.open 1"), "{text}");
}

/// `cnctl portal` judges its own shape as it starts (CN058): its default 64
/// in-flight submissions, each pinning an fd, are more than a soft limit of
/// 48 fds lets the process hold. The warning goes to stderr and the
/// readiness line stays stdout's first; on the inherited limit the same
/// portal prints no code at all.
#[test]
fn portal_warns_of_its_fd_limit_at_start_up() {
    let _fds = FDS.read().unwrap_or_else(|e| e.into_inner());
    let portal = |limit: &str| {
        let args = ["--sim", "1", "--reactor-shards", "1", "--run-for", "0", "--name", "p0"];
        let output = Command::new("sh")
            .args(["-c", &format!("{limit}exec \"$0\" \"$@\""), CNCTL, "portal"])
            .args(args)
            .output()
            .expect("run sh");
        assert!(output.status.success(), "{output:?}");
        let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8");
        (text(output.stdout), text(output.stderr))
    };
    let (stdout, stderr) = portal("ulimit -n 48 && ");
    assert!(stdout.starts_with("portal p0 on 127.0.0.1:"), "{stdout}");
    assert!(stderr.contains("warning[CN058]") && stderr.contains("soft limit of 48"), "{stderr}");
    let (stdout, stderr) = portal("");
    assert!(stdout.starts_with("portal p0 on 127.0.0.1:"), "{stdout}");
    assert!(!stderr.contains("CN0"), "{stderr}");
}
