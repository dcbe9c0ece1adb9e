//! Step 5 of Figure 6, held to what the stylesheets write and to what the
//! written client does.
//!
//! `examples/generated/fig2_client.rs` is the CNX2Rust output for the
//! Figure-2 descriptor (`tests/fixtures/figure2.cnx`, three workers) and
//! `tests/golden/fig2_client.java` the CNX2Java output. The Rust client is
//! compiled into this test and run against the interpreted path
//! (`cn_core::execute_descriptor_seeded`) on an identical cluster. After an
//! intended change to a stylesheet regenerate both files with:
//!
//! ```text
//! REGENERATE_GOLDEN=1 cargo test --test generated_client
//! ```

#[allow(dead_code)] // its `main` is the example's; the tests call the rest
#[path = "../examples/generated/fig2_client.rs"]
mod fig2_client;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::cnx::{ast::figure2_descriptor, write_cnx};
use computational_neighborhood::core::{
    execute_descriptor_seeded, CnApi, DynamicArgs, Neighborhood, NeighborhoodConfig, TaskSpec,
};
use computational_neighborhood::model::export_xmi;
use computational_neighborhood::observe::{journal_jsonl_filtered, Recorder};
use computational_neighborhood::tasks::{
    self, floyd_sequential, random_digraph, seed_transitive_closure, Matrix,
};
use computational_neighborhood::transform::{
    cnx2java, cnx2rust, figure2_model, figure2_settings, xmi_to_cnx_xslt,
};
use computational_neighborhood::xml::{write_document, WriteOptions};

const RUST_CLIENT: &str = "examples/generated/fig2_client.rs";
const JAVA_CLIENT: &str = "tests/golden/fig2_client.java";
const TIMEOUT: Duration = Duration::from_secs(60);

fn path(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

fn check_golden(relative: &str, actual: &str) {
    let path = path(relative);
    if std::env::var_os("REGENERATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); rerun with REGENERATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        actual,
        expected,
        "stylesheet output drifted from {}; rerun with REGENERATE_GOLDEN=1 if intended",
        path.display()
    );
}

#[test]
fn the_stylesheets_write_the_checked_in_clients() {
    let cnx = write_cnx(&figure2_descriptor(3));
    check_golden(RUST_CLIENT, &cnx2rust::cnx_to_rust_xslt(&cnx).expect("CNX2Rust"));
    check_golden(JAVA_CLIENT, &cnx2java::cnx_to_java_xslt(&cnx).expect("CNX2Java"));
}

/// XMI2CNX's text, byte for byte: the Figure-2 model with the Figure-2
/// client settings writes the checked-in descriptor (which `lint_cli.rs`
/// holds to `write_cnx(figure2_descriptor(3))`).
#[test]
fn the_stylesheet_writes_the_checked_in_descriptor() {
    let xmi = write_document(&export_xmi(&figure2_model(3)), &WriteOptions::xmi());
    let cnx = xmi_to_cnx_xslt(&xmi, &figure2_settings()).expect("XMI2CNX");
    let fixture = std::fs::read_to_string(path("tests/fixtures/figure2.cnx")).expect("fixture");
    assert_eq!(cnx, fixture);
}

#[test]
fn cnctl_codegen_prints_the_checked_in_clients() {
    let fixture = path("tests/fixtures/figure2.cnx");
    for (lang, golden) in [("rust", RUST_CLIENT), ("java", JAVA_CLIENT)] {
        let out = Command::new(env!("CARGO_BIN_EXE_cnctl"))
            .args(["codegen", fixture.to_str().expect("utf-8 path"), "--lang", lang])
            .output()
            .expect("run cnctl");
        assert!(out.status.success(), "cnctl codegen --lang {lang} failed");
        let expected = std::fs::read_to_string(path(golden)).expect("read checked-in client");
        assert_eq!(String::from_utf8(out.stdout).expect("utf-8 stdout"), expected, "{lang}");
    }
}

/// The `--sim 3` cluster with the built-in archives, recording.
fn deploy() -> (Neighborhood, Recorder) {
    let rec = Recorder::new();
    let nb = Neighborhood::deploy_with(
        NodeSpec::fleet(3, 8192, 16),
        NeighborhoodConfig { recorder: rec.clone(), ..NeighborhoodConfig::default() },
    );
    tasks::publish_all_archives(nb.registry());
    (nb, rec)
}

/// What a run leaves behind that does not depend on timing: the canonical
/// journal and the `api.*` / `server.*` counters.
fn observed(rec: &Recorder) -> (String, Vec<(String, u64)>) {
    let counters = rec.metrics().snapshot().counters;
    let counters = counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("api.") || name.starts_with("server."))
        .collect();
    (journal_jsonl_filtered(rec, &["wire"]), counters)
}

#[test]
fn the_generated_client_runs_as_the_interpreter_does() {
    const DIGRAPH_SEED: u64 = 1;
    let doc = figure2_descriptor(3);
    let declared: Vec<Vec<TaskSpec>> = doc
        .client
        .jobs
        .iter()
        .map(|job| job.tasks.iter().map(TaskSpec::from_cnx).collect())
        .collect();
    assert_eq!(fig2_client::jobs(), declared, "each generated TaskSpec is its CNX task's");

    let (nb, rec) = deploy();
    let reports =
        fig2_client::run(&CnApi::initialize(&nb), DIGRAPH_SEED, TIMEOUT).expect("generated client");
    nb.shutdown();
    let result = Matrix::from_userdata(reports[0].result("tctask999").expect("joiner result"))
        .expect("matrix");
    assert_eq!(result, floyd_sequential(&random_digraph(16, 0.25, 1..9, DIGRAPH_SEED)));

    let (nb, interpreted) = deploy();
    execute_descriptor_seeded(&nb, &doc, &DynamicArgs::new(), TIMEOUT, |job| {
        seed_transitive_closure(job, DIGRAPH_SEED)
    })
    .expect("interpreted run");
    nb.shutdown();
    let (generated, interpreted) = (observed(&rec), observed(&interpreted));
    assert!(generated.0.contains("seed-input"), "the seed span is in the journal");
    assert!(generated.1.iter().any(|(name, n)| name == "server.tasks_completed" && *n == 5));
    assert_eq!(generated.1, interpreted.1, "api.* / server.* counters");
    assert_eq!(generated.0, interpreted.0, "canonical journal");
}
