//! The web portal (paper Figure 1): `POST` an XMI document to a running
//! portal, stream the job's journal back — "so that the user does not need
//! to log on to the subnet".
//!
//! The portal here is the real `cn-portal` HTTP server, started in-process
//! over a simulated neighborhood; the client speaks HTTP/1.1 over a plain
//! `TcpStream`.
//!
//! ```sh
//! cargo run --example portal_submit
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::core::{
    execute_descriptor_seeded, DynamicArgs, Neighborhood, NeighborhoodConfig,
};
use computational_neighborhood::observe::{journal_jsonl_filtered, Recorder};
use computational_neighborhood::portal::{
    compile_submission, seed_transitive_closure, ChunkedDecoder, PortalConfig, PortalServer,
    SimRunner,
};
use computational_neighborhood::tasks::{self, floyd_sequential, random_digraph, Matrix};
use computational_neighborhood::transform::figure2_model;

const NODES: usize = 3;
const DIGRAPH_SEED: u64 = 1;
const TIMEOUT: Duration = Duration::from_secs(60);

/// One request on its own connection (`connection: close`, so the response
/// ends at EOF): returns the status code and the de-chunked body.
fn http(port: u16, method: &str, target: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("portal connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: example\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("portal write");
    stream.write_all(body).expect("portal write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("portal read");

    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("response head") + 4;
    let head = String::from_utf8_lossy(&raw[..head_end]).to_ascii_lowercase();
    let status = head.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("status code");
    let body = if head.contains("transfer-encoding: chunked") {
        let mut out = Vec::new();
        let mut dec = ChunkedDecoder::new();
        dec.advance(&raw[head_end..], &mut out).expect("chunked body");
        assert!(dec.is_done(), "portal closed mid-stream");
        out
    } else {
        raw[head_end..].to_vec()
    };
    (status, String::from_utf8(body).expect("utf8 body"))
}

fn main() {
    let runner = Arc::new(SimRunner { nodes: NODES, timeout: TIMEOUT, digraph_seed: DIGRAPH_SEED });
    let mut portal = PortalServer::start(PortalConfig::default(), runner, Recorder::new())
        .expect("portal start");
    let port = portal.port();
    println!("portal listening on 127.0.0.1:{port}");

    // A "user" exports their activity diagram from a modeling tool...
    let xmi_text = computational_neighborhood::xml::write_document(
        &computational_neighborhood::model::export_xmi(&figure2_model(3)),
        &computational_neighborhood::xml::WriteOptions::xmi(),
    );

    // ...and submits it; the portal compiles it and answers with a job id.
    println!("POST /jobs ({} bytes of XMI)", xmi_text.len());
    let (status, accepted) = http(port, "POST", "/jobs", xmi_text.as_bytes());
    assert_eq!(status, 202, "{accepted}");
    let id = accepted.split('"').nth(3).expect("job id in the 202 body").to_string();

    // The journal request parks until the job has run, then streams.
    let (status, journal) = http(port, "GET", &format!("/jobs/{id}/journal"), b"");
    assert_eq!(status, 200, "{journal}");
    let (_, job_status) = http(port, "GET", &format!("/jobs/{id}"), b"");
    println!("GET /jobs/{id} -> {}", job_status.trim());
    println!("GET /jobs/{id}/journal -> {} spans", journal.lines().count());
    portal.shutdown();

    // The journal names what ran, not what it computed. Run the same
    // submission here, with the results in hand: the streamed journal must
    // be this run's journal, and this run's result sequential Floyd's.
    let compiled = compile_submission(xmi_text.as_bytes()).expect("compile");
    let rec = Recorder::new();
    let nb = Neighborhood::deploy_with(
        NodeSpec::fleet(NODES, 8192, 16),
        NeighborhoodConfig { recorder: rec.clone(), ..NeighborhoodConfig::default() },
    );
    tasks::publish_all_archives(nb.registry());
    let reports =
        execute_descriptor_seeded(&nb, &compiled.descriptor, &DynamicArgs::new(), TIMEOUT, |job| {
            seed_transitive_closure(job, DIGRAPH_SEED)
        })
        .expect("reference run");
    nb.shutdown();
    assert_eq!(journal, journal_jsonl_filtered(&rec, &["wire"]), "journals diverged");
    let result = Matrix::from_userdata(reports[0].result("tctask999").unwrap()).unwrap();
    assert_eq!(result, floyd_sequential(&random_digraph(16, 0.25, 1..9, DIGRAPH_SEED)));
    println!("verified: streamed journal matches a local run whose result equals sequential Floyd");
}
