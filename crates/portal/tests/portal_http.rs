//! Integration tests for the reactor-driven HTTP server: a real
//! `PortalServer` with a stub runner, exercised by raw `TcpStream`
//! clients (keep-alive, pipelining, chunked journal streaming, admission
//! rejections, malformed input).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_observe::Recorder;
use cn_portal::http::ChunkedDecoder;
use cn_portal::{CompiledJob, JobRunner, PortalConfig, PortalServer, RunOutcome, StubRunner};

const STUB_JOURNAL: &str = "{\"seq\":1,\"cat\":\"wire\"}\n{\"seq\":2,\"cat\":\"wire\"}\n";

fn start_portal(cfg: PortalConfig, delay: Duration) -> PortalServer {
    let runner = Arc::new(StubRunner { journal: STUB_JOURNAL.to_string(), delay });
    PortalServer::start(cfg, runner, Recorder::new()).expect("portal start")
}

/// A test client: raw stream plus the carry-over buffer pipelined
/// responses need (one read may deliver bytes of the next response).
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn connect(port: u16) -> Client {
    let s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.set_nodelay(true).unwrap();
    Client { stream: s, buf: Vec::new() }
}

struct HttpResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl HttpResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

impl Client {
    fn fill(&mut self) -> usize {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk).expect("read");
        self.buf.extend_from_slice(&chunk[..n]);
        n
    }

    /// Minimal blocking response reader: enough HTTP/1.1 for the tests
    /// (Content-Length and chunked framing). Leftover bytes stay in the
    /// carry-over buffer for the next pipelined response.
    fn read_response(&mut self) -> HttpResponse {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            assert!(
                self.fill() > 0,
                "eof before response head; got {:?}",
                String::from_utf8_lossy(&self.buf)
            );
        };
        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("utf8 head");
        self.buf.drain(..head_end);
        let mut lines = head.split("\r\n");
        let status: u16 =
            lines.next().unwrap().split_whitespace().nth(1).unwrap().parse().expect("status");
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();

        let chunked = headers
            .iter()
            .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
        let body = if chunked {
            let mut dec = ChunkedDecoder::new();
            let mut body = Vec::new();
            loop {
                let used = dec.advance(&self.buf, &mut body).expect("chunked framing");
                self.buf.drain(..used);
                if dec.is_done() {
                    break;
                }
                assert!(self.fill() > 0, "eof mid chunked body");
            }
            body
        } else {
            let len: usize = headers
                .iter()
                .find(|(n, _)| n == "content-length")
                .map(|(_, v)| v.parse().expect("length"))
                .unwrap_or(0);
            while self.buf.len() < len {
                assert!(self.fill() > 0, "eof mid body");
            }
            self.buf.drain(..len).collect()
        };
        HttpResponse { status, headers, body }
    }

    fn write_all(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    fn read_to_end(&mut self) -> Vec<u8> {
        let mut rest = std::mem::take(&mut self.buf);
        self.stream.read_to_end(&mut rest).unwrap();
        rest
    }
}

fn post_job(c: &mut Client, body: &[u8]) -> HttpResponse {
    let head = format!("POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len());
    c.write_all(head.as_bytes());
    c.write_all(body);
    c.read_response()
}

fn get(c: &mut Client, path: &str) -> HttpResponse {
    c.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes());
    c.read_response()
}

fn job_id(resp: &HttpResponse) -> String {
    let body = String::from_utf8_lossy(&resp.body).to_string();
    let start = body.find("\"id\":\"").expect("id field") + 6;
    let end = body[start..].find('"').unwrap() + start;
    body[start..end].to_string()
}

fn figure2_cnx() -> String {
    cn_cnx::write_cnx(&cn_cnx::ast::figure2_descriptor(2))
}

fn wait_done(stream: &mut Client, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = get(stream, &format!("/jobs/{id}"));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8_lossy(&resp.body).to_string();
        if body.contains("\"done\"") {
            return;
        }
        assert!(!body.contains("\"failed\""), "job failed: {body}");
        assert!(Instant::now() < deadline, "job never finished: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn submit_poll_and_stream_journal_on_one_keepalive_connection() {
    let portal = start_portal(PortalConfig::default(), Duration::ZERO);
    let mut c = connect(portal.port());

    let resp = post_job(&mut c, figure2_cnx().as_bytes());
    assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
    let id = job_id(&resp);
    assert_eq!(resp.header("location").unwrap(), format!("/jobs/{id}"));

    wait_done(&mut c, &id);

    let journal = get(&mut c, &format!("/jobs/{id}/journal"));
    assert_eq!(journal.status, 200);
    assert_eq!(journal.header("transfer-encoding").unwrap(), "chunked");
    assert_eq!(String::from_utf8_lossy(&journal.body), STUB_JOURNAL);

    // The connection survived submit + polls + a chunked stream.
    let health = get(&mut c, "/healthz");
    assert_eq!(health.status, 200);
}

#[test]
fn journal_streams_while_job_still_running() {
    // The stub sleeps, so the journal GET must wait for completion and
    // then stream — exercising the park and the worker's wake-up.
    let portal = start_portal(PortalConfig::default(), Duration::from_millis(300));
    let mut c = connect(portal.port());
    let resp = post_job(&mut c, figure2_cnx().as_bytes());
    assert_eq!(resp.status, 202);
    let id = job_id(&resp);
    let journal = get(&mut c, &format!("/jobs/{id}/journal"));
    assert_eq!(journal.status, 200);
    assert_eq!(String::from_utf8_lossy(&journal.body), STUB_JOURNAL);
}

/// A stream whose job outlasts `journal_wait` gives up: the `200` ends with
/// the in-band timeout line as its last chunk, the connection closes after
/// it, and the job itself still finishes.
#[test]
fn journal_stream_gives_up_after_journal_wait() {
    let cfg = PortalConfig { journal_wait: Duration::from_millis(100), ..PortalConfig::default() };
    let portal = start_portal(cfg, Duration::from_secs(1));
    let mut c = connect(portal.port());
    let resp = post_job(&mut c, figure2_cnx().as_bytes());
    assert_eq!(resp.status, 202);
    let id = job_id(&resp);
    let t0 = Instant::now();
    let journal = get(&mut c, &format!("/jobs/{id}/journal"));
    let waited = t0.elapsed();
    assert_eq!(journal.status, 200);
    assert_eq!(String::from_utf8_lossy(&journal.body), "{\"error\":\"journal wait timed out\"}\n");
    assert!(waited < Duration::from_secs(1), "gave up only after {waited:?}");
    assert!(c.read_to_end().is_empty(), "the connection stayed open after the terminal chunk");
    wait_done(&mut connect(portal.port()), &id);
}

/// the same connection) against a runner that takes `delay`, after one
/// round that is not counted: it starts anywhere in a wheel tick, the later
/// ones start where the one before was answered.
fn rounds(delay: Duration) -> Vec<Duration> {
    let portal = start_portal(PortalConfig::default(), delay);
    let mut c = connect(portal.port());
    let body = figure2_cnx();
    let mut round = || {
        let t0 = Instant::now();
        let resp = post_job(&mut c, body.as_bytes());
        assert_eq!(resp.status, 202);
        let journal = get(&mut c, &format!("/jobs/{}/journal", job_id(&resp)));
        let took = t0.elapsed();
        assert_eq!(String::from_utf8_lossy(&journal.body), STUB_JOURNAL);
        took
    };
    round();
    (0..4).map(|_| round()).collect()
}

/// A stream that finds its job running is held to the next 5 ms wheel
/// tick, then answered when the job ends: a 2 ms job is answered on the
/// tick (not at 2 ms, and not at the 10 ms of a two-tick first look), and
/// an 11 ms job when it ends (not on the 15 ms tick after it).
#[test]
fn journal_stream_holds_to_the_tick_then_answers_when_the_job_ends() {
    let short = rounds(Duration::from_millis(2));
    let (quickest, slowest) = (short.iter().min().unwrap(), short.iter().max().unwrap());
    assert!(*slowest >= Duration::from_millis(4), "never held to the tick: {short:?}");
    assert!(*quickest < Duration::from_millis(9), "held past one tick: {short:?}");
    let late = rounds(Duration::from_millis(11));
    let quickest = late.iter().min().unwrap();
    assert!(*quickest < Duration::from_millis(14), "{late:?}");
}

/// Two submissions admitted before any worker wakes run side by side on
/// the two default workers: a worker takes one submission per wake-up and
/// leaves the other to its idle neighbour, instead of draining both and
/// running them one after the other.
#[test]
fn two_queued_submissions_run_on_two_workers() {
    let portal = start_portal(PortalConfig::default(), Duration::from_millis(200));
    let mut c = connect(portal.port());
    let body = figure2_cnx();
    let post = format!("POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len());
    let t0 = Instant::now();
    c.write_all(format!("{post}{post}").as_bytes());
    let ids: Vec<String> = (0..2)
        .map(|_| {
            let resp = c.read_response();
            assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
            job_id(&resp)
        })
        .collect();
    for id in &ids {
        wait_done(&mut c, id);
    }
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(350), "{took:?}");
}

/// Panics on its first job, runs every later one.
struct PanicsOnce(std::sync::atomic::AtomicBool);

impl JobRunner for PanicsOnce {
    fn run(&self, job: &CompiledJob) -> Result<RunOutcome, String> {
        if !self.0.swap(true, std::sync::atomic::Ordering::SeqCst) {
            panic!("seed input: the JobManager's link is gone");
        }
        Ok(RunOutcome { journal: STUB_JOURNAL.to_string(), tasks: job.descriptor.task_count() })
    }
}

#[test]
fn panicking_runner_fails_its_job_and_keeps_the_worker() {
    // One worker: if the panic took it, nothing would ever run job 2.
    let cfg = PortalConfig { workers: 1, ..PortalConfig::default() };
    let runner = Arc::new(PanicsOnce(Default::default()));
    let portal = PortalServer::start(cfg, runner, Recorder::new()).expect("portal start");
    let mut c = connect(portal.port());
    let body = figure2_cnx();

    let first = job_id(&post_job(&mut c, body.as_bytes()));
    let journal = get(&mut c, &format!("/jobs/{first}/journal"));
    let line = String::from_utf8_lossy(&journal.body).to_string();
    assert!(line.starts_with("{\"error\""), "{line}");
    assert!(line.contains("runner panicked: seed input: the JobManager's link is gone"), "{line}");
    let status = get(&mut c, &format!("/jobs/{first}"));
    assert!(String::from_utf8_lossy(&status.body).contains("\"failed\""));

    // The slot came back and the worker is still there.
    let second = job_id(&post_job(&mut c, body.as_bytes()));
    let journal = get(&mut c, &format!("/jobs/{second}/journal"));
    assert_eq!(String::from_utf8_lossy(&journal.body), STUB_JOURNAL);
    assert_eq!(portal.recorder().counter("portal.jobs.failed").get(), 1);
    assert_eq!(portal.recorder().counter("portal.jobs.completed").get(), 1);
}

#[test]
fn pipelined_requests_answer_in_order() {
    let portal = start_portal(PortalConfig::default(), Duration::ZERO);
    let mut c = connect(portal.port());
    // Two requests in one segment; responses must come back in order.
    c.write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\n");
    let first = c.read_response();
    let second = c.read_response();
    assert_eq!(first.status, 200);
    assert_eq!(second.status, 404);
}

#[test]
fn pipelined_journal_requests_are_both_answered() {
    let portal = start_portal(PortalConfig::default(), Duration::ZERO);
    let mut c = connect(portal.port());
    let id = job_id(&post_job(&mut c, figure2_cnx().as_bytes()));
    wait_done(&mut c, &id);
    // The first stream ends inside the pump that started it, and the second
    // request is served from there; nothing else will ever wake the
    // connection, so the second stream has to be pumped in the same pass.
    c.stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let journal = format!("GET /jobs/{id}/journal HTTP/1.1\r\n\r\n");
    c.write_all(format!("{journal}{journal}GET /healthz HTTP/1.1\r\n\r\n").as_bytes());
    for _ in 0..2 {
        let resp = c.read_response();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("transfer-encoding").unwrap(), "chunked");
        assert_eq!(String::from_utf8_lossy(&resp.body), STUB_JOURNAL);
    }
    assert_eq!(c.read_response().body, b"ok\n");
}

#[test]
fn routing_errors_and_metrics() {
    let portal = start_portal(PortalConfig::default(), Duration::ZERO);
    let mut c = connect(portal.port());
    assert_eq!(get(&mut c, "/jobs/j-999").status, 404);
    assert_eq!(get(&mut c, "/jobs/bogus").status, 404);

    c.write_all(b"DELETE /jobs/j-1 HTTP/1.1\r\n\r\n");
    let resp = c.read_response();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow").unwrap(), "GET");

    c.write_all(b"GET /jobs HTTP/1.1\r\n\r\n");
    assert_eq!(c.read_response().status, 405);

    let metrics = get(&mut c, "/metrics");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8_lossy(&metrics.body).to_string();
    assert!(text.contains("portal.http.requests "), "{text}");
    assert!(text.contains("portal.conns.open 1"), "{text}");
}

#[test]
fn admission_caps_reject_with_429_and_503() {
    // One slot total, one per address, and a slow runner: the second
    // submission from the same client must bounce.
    let cfg = PortalConfig {
        max_inflight: 1,
        per_addr_inflight: 1,
        workers: 1,
        ..PortalConfig::default()
    };
    let portal = start_portal(cfg, Duration::from_millis(500));
    let mut c = connect(portal.port());
    let first = post_job(&mut c, figure2_cnx().as_bytes());
    assert_eq!(first.status, 202);
    let second = post_job(&mut c, figure2_cnx().as_bytes());
    // Either cap may fire first; both are "come back later".
    assert!(
        second.status == 429 || second.status == 503,
        "expected rejection, got {}",
        second.status
    );
    assert_eq!(portal.recorder().counter("portal.jobs.rejected").get(), 1);
}

#[test]
fn submitting_garbage_fails_the_job_not_the_server() {
    let portal = start_portal(PortalConfig::default(), Duration::ZERO);
    let mut c = connect(portal.port());
    let resp = post_job(&mut c, b"this is not a descriptor");
    assert_eq!(resp.status, 202, "admission is shape-blind; compile fails async");
    let id = job_id(&resp);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = get(&mut c, &format!("/jobs/{id}"));
        let body = String::from_utf8_lossy(&status.body).to_string();
        if body.contains("\"failed\"") {
            assert!(body.contains("CNX parse"), "{body}");
            break;
        }
        assert!(Instant::now() < deadline, "job never failed: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The journal of a failed job is its error line.
    let journal = get(&mut c, &format!("/jobs/{id}/journal"));
    assert_eq!(journal.status, 200);
    assert!(String::from_utf8_lossy(&journal.body).contains("CNX parse"));
}

#[test]
fn malformed_request_gets_400_then_close() {
    let portal = start_portal(PortalConfig::default(), Duration::ZERO);
    let mut c = connect(portal.port());
    c.write_all(b"NOT A REQUEST AT ALL\r\n\r\n");
    let resp = c.read_response();
    assert_eq!(resp.status, 400);
    // Server closes after a framing error: the next read is EOF.
    let rest = c.read_to_end();
    assert!(rest.is_empty(), "connection should be closed: {:?}", String::from_utf8_lossy(&rest));
}

#[test]
fn request_deadline_answers_408() {
    let cfg = PortalConfig { request_deadline: Duration::from_millis(100), ..Default::default() };
    let portal = start_portal(cfg, Duration::ZERO);
    let mut c = connect(portal.port());
    // Half a request, then silence: the shard timer must fire a 408.
    c.write_all(b"POST /jobs HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc");
    let resp = c.read_response();
    assert_eq!(resp.status, 408);
    assert_eq!(portal.recorder().counter("portal.http.deadline_408").get(), 1);
}

#[test]
fn many_connections_spread_over_shards() {
    let cfg = PortalConfig { reactor_shards: 4, ..Default::default() };
    let portal = start_portal(cfg, Duration::ZERO);
    let mut conns: Vec<Client> = (0..16).map(|_| connect(portal.port())).collect();
    for c in conns.iter_mut() {
        assert_eq!(get(c, "/healthz").status, 200);
    }
    assert_eq!(portal.recorder().gauge("portal.conns.open").get(), 16);
    assert_eq!(portal.recorder().counter("portal.conns.accepted").get(), 16);
}
