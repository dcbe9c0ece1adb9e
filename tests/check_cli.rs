//! End-to-end tests for `cnctl check` and `cnctl lint --explain` against
//! checked-in golden files.
//!
//! The checker is deterministic by construction — fixed seeds, logical
//! clocks, canonical graphs — so even the exploration statistics
//! (schedule and step counts) are pinned bytes. When an intentional
//! change shifts the output, regenerate with:
//!
//! ```text
//! REGENERATE_GOLDEN=1 cargo test --test check_cli
//! ```
//!
//! This binary is built without the `mutations` feature, so every
//! registered scenario is clean here; the mutated runtime is covered by
//! `crates/check/tests/mutations.rs`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn regenerating() -> bool {
    std::env::var_os("REGENERATE_GOLDEN").is_some()
}

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

/// A small fixed budget so the golden run stays quick; the full default
/// matrix is CI's `concurrency-check` job.
const BUDGET: &[&str] = &["--seeds", "1,7", "--schedules", "8"];

#[test]
fn check_json_golden_clean() {
    let mut args = vec!["check", "--format", "json"];
    args.extend_from_slice(BUDGET);
    let (stdout, code) = run_cnctl(&args);
    assert_eq!(code, 0, "clean runtime must exit 0:\n{stdout}");
    assert!(stdout.contains("\"failed\":false"), "{stdout}");
    assert!(stdout.contains("\"report\":{\"diagnostics\":[]"), "{stdout}");
    check_golden(&golden("check_clean.json"), &stdout);
}

#[test]
fn check_text_golden_clean() {
    let mut args = vec!["check"];
    args.extend_from_slice(BUDGET);
    let (stdout, code) = run_cnctl(&args);
    assert_eq!(code, 0, "clean runtime must exit 0:\n{stdout}");
    check_golden(&golden("check_clean.txt"), &stdout);
}

#[test]
fn check_list_golden() {
    let (stdout, code) = run_cnctl(&["check", "--list"]);
    assert_eq!(code, 0);
    check_golden(&golden("check_list.txt"), &stdout);
}

#[test]
fn explain_golden_cn050() {
    let (stdout, code) = run_cnctl(&["lint", "--explain", "CN050"]);
    assert_eq!(code, 0);
    assert!(stdout.starts_with("CN050: "), "{stdout}");
    check_golden(&golden("explain_cn050.txt"), &stdout);
}

/// Every published code — old lint codes and the new CN05x family — must
/// explain successfully through the CLI, and unknown codes must fail.
#[test]
fn explain_covers_every_code() {
    for code in computational_neighborhood::analysis::explain::ALL_CODES {
        let (stdout, exit) = run_cnctl(&["lint", "--explain", code]);
        assert_eq!(exit, 0, "{code}:\n{stdout}");
        assert!(stdout.starts_with(&format!("{code}: ")), "{code}:\n{stdout}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_cnctl"))
        .args(["lint", "--explain", "CN999"])
        .output()
        .expect("run cnctl");
    assert!(!out.status.success());
}

/// One scenario filtered out of the registry still renders the same way,
/// and the single-scenario JSON is a strict subset of the full run's.
#[test]
fn check_scenario_filter() {
    let mut args = vec!["check", "--scenario", "core.tuplespace", "--format", "json"];
    args.extend_from_slice(BUDGET);
    let (stdout, code) = run_cnctl(&args);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"name\":\"core.tuplespace\""), "{stdout}");
    assert!(!stdout.contains("wire.peer_queue"), "{stdout}");
}

/// `--trace-dir` on a clean run creates the directory but writes no
/// artifacts — files appear only when a counterexample exists.
#[test]
fn trace_dir_is_empty_when_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-artifacts/check-clean");
    std::fs::remove_dir_all(&dir).ok();
    let mut args =
        vec!["check", "--scenario", "core.tuplespace", "--trace-dir", dir.to_str().unwrap()];
    args.extend_from_slice(BUDGET);
    let (stdout, code) = run_cnctl(&args);
    assert_eq!(code, 0, "{stdout}");
    let entries: Vec<_> = std::fs::read_dir(&dir).expect("dir created").collect();
    assert!(entries.is_empty(), "clean run wrote artifacts: {entries:?}");
    std::fs::remove_dir_all(&dir).ok();
}
