//! End-to-end tests for `cnctl lint` against checked-in golden files.
//!
//! The goldens under `tests/golden/` pin the exact `--format json` output for
//! the Figure-2 descriptor (clean) and a deliberately defective variant. When
//! an intentional change shifts the output, regenerate with:
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

/// CN019: every Figure-2 task wants 1000 MB, so a wire deployment whose
/// largest `cnctl serve --memory` is 512 MB can never host any of them —
/// one warning per task, pinned by a golden.
#[test]
fn lint_json_golden_server_memory() {
    let path = fixture("figure2.cnx");
    let (stdout, code) = run_cnctl(&[
        "lint",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--server-memory",
        "256,512",
    ]);
    assert_eq!(code, 2, "CN019 is a warning, so exit 2:\n{stdout}");
    assert!(stdout.contains("\"code\":\"CN019\""), "{stdout}");
    check_golden(&golden("server_memory_lint.json"), &stdout);

    // A deployment with one big-enough server keeps the descriptor clean.
    let (stdout, code) = run_cnctl(&[
        "lint",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--server-memory",
        "512,2048",
    ]);
    assert_eq!(code, 0, "a 2048 MB server fits every task:\n{stdout}");

    // Malformed values are a usage error, not a silent no-op.
    let out = Command::new(env!("CARGO_BIN_EXE_cnctl"))
        .args(["lint", path.to_str().unwrap(), "--server-memory", "512,potato"])
        .output()
        .expect("run cnctl");
    assert!(!out.status.success());
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

/// CN057: a 10k-peer deployment plan with 4 reactor shards against an
/// explicit 1024-fd / 2-core host — both axes warn, pinned by a golden.
/// The `--fd-soft-limit`/`--cores` overrides keep the output independent
/// of the machine running the test.
#[test]
fn lint_json_golden_reactor_capacity() {
    let path = fixture("figure2.cnx");
    let (stdout, code) = run_cnctl(&[
        "lint",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--peer-capacity",
        "10000",
        "--reactor-shards",
        "4",
        "--fd-soft-limit",
        "1024",
        "--cores",
        "2",
    ]);
    assert_eq!(code, 2, "CN057 is a warning, so exit 2:\n{stdout}");
    assert!(stdout.contains("\"code\":\"CN057\""), "{stdout}");
    check_golden(&golden("reactor_capacity_lint.json"), &stdout);

    // A shape the host can hold keeps the descriptor clean.
    let (stdout, code) = run_cnctl(&[
        "lint",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--peer-capacity",
        "100",
        "--reactor-shards",
        "2",
        "--fd-soft-limit",
        "1024",
        "--cores",
        "2",
    ]);
    assert_eq!(code, 0, "fitting deployment must stay quiet:\n{stdout}");

    // The code is documented: `--explain CN057` renders its rationale.
    let (stdout, code) = run_cnctl(&["lint", "--explain", "CN057"]);
    assert_eq!(code, 0);
    assert!(stdout.starts_with("CN057:"), "{stdout}");

    // Host overrides without a peer capacity are a usage error, and so
    // are malformed counts — not silent no-ops.
    for bad in [&["--fd-soft-limit", "64"][..], &["--peer-capacity", "many"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_cnctl"))
            .arg("lint")
            .arg(path.to_str().unwrap())
            .args(bad)
            .output()
            .expect("run cnctl");
        assert!(!out.status.success(), "expected failure for {bad:?}");
    }
}

/// CN058: a portal planned for 200 in-flight submissions with 4 reactor
/// shards and 4 MiB bodies against an explicit 200-fd / 2-core / 256 MB
/// host — all three axes warn, pinned by a golden. The explicit overrides
/// keep the output independent of the machine running the test.
#[test]
fn lint_json_golden_portal_capacity() {
    let path = fixture("figure2.cnx");
    let (stdout, code) = run_cnctl(&[
        "lint",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--portal-max-inflight",
        "200",
        "--reactor-shards",
        "4",
        "--portal-body-limit",
        "4194304",
        "--fd-soft-limit",
        "200",
        "--cores",
        "2",
        "--host-memory",
        "256",
    ]);
    assert_eq!(code, 2, "CN058 is a warning, so exit 2:\n{stdout}");
    assert!(stdout.contains("\"code\":\"CN058\""), "{stdout}");
    check_golden(&golden("portal_capacity_lint.json"), &stdout);

    // A shape the host can hold keeps the descriptor clean.
    let (stdout, code) = run_cnctl(&[
        "lint",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--portal-max-inflight",
        "16",
        "--reactor-shards",
        "2",
        "--portal-body-limit",
        "1048576",
        "--fd-soft-limit",
        "1024",
        "--cores",
        "2",
        "--host-memory",
        "256",
    ]);
    assert_eq!(code, 0, "fitting portal must stay quiet:\n{stdout}");

    // The code is documented: `--explain CN058` renders its rationale.
    let (stdout, code) = run_cnctl(&["lint", "--explain", "CN058"]);
    assert_eq!(code, 0);
    assert!(stdout.starts_with("CN058:"), "{stdout}");

    // Portal overrides without the gate flag are a usage error, and so
    // are malformed counts — not silent no-ops.
    for bad in [&["--portal-body-limit", "64"][..], &["--portal-max-inflight", "lots"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_cnctl"))
            .arg("lint")
            .arg(path.to_str().unwrap())
            .args(bad)
            .output()
            .expect("run cnctl");
        assert!(!out.status.success(), "expected failure for {bad:?}");
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
