//! The mutation suite: with `--features mutations` each runtime crate
//! compiles one injected ordering bug, and the checker must catch every
//! one of them — these tests are what make the clean suite's green
//! meaningful. Each catch also pins the counterexample pipeline: the
//! recorded schedule replays to the identical trace and the diagnostics
//! bridge emits the right `CN05x` code.

#![cfg(feature = "mutations")]

use cn_analysis::codes;
use cn_check::{diagnose, export_counterexample, replay, run_scenario, CheckConfig, HazardKind};

fn test_config() -> CheckConfig {
    CheckConfig { seeds: vec![1, 7, 42], schedules: 64, max_steps: 20_000 }
}

/// PeerQueue's mutated `push_frame` inverts its `was_empty` report, so the
/// push onto an empty queue — the one whose sender must ring the parked
/// shard — is the one that does not: the shard only survives via its poll
/// timeout, which the checker reports as a lost notification. (The
/// doorbell `Mailbox` is mutated in this build too; the queue's mutation
/// is caught with the mailbox's disabled as well.)
#[test]
fn mutated_peer_queue_loses_a_wakeup() {
    let scenario = cn_check::find("wire.peer_queue").expect("registered");
    let report = run_scenario(&scenario, &test_config());
    assert!(report.failed(), "mutation not caught: {report:?}");
    assert!(
        report.hazards.iter().any(|h| h.kind == HazardKind::LostNotify),
        "{:?}",
        report.hazards
    );

    let diags = diagnose(&report);
    assert!(diags.iter().any(|d| d.code == codes::LOST_NOTIFY), "{diags:?}");

    let cx = report.counterexample.as_ref().expect("counterexample");
    let again = replay(&scenario, cx);
    assert!(again.failed(), "replay did not reproduce");
    let replayed = again.counterexample.expect("replay counterexample");
    assert_eq!(replayed.trace_jsonl(), cx.trace_jsonl(), "replay diverged from recording");
}

/// The mutated network nests the groups and endpoints locks in opposite
/// orders on the join and multicast paths: a lock-order cycle in the
/// merged graph, and a real deadlock under the right schedule.
#[test]
fn mutated_group_delivery_deadlocks() {
    let scenario = cn_check::find("net.group_delivery").expect("registered");
    let report = run_scenario(&scenario, &test_config());
    assert!(report.failed(), "mutation not caught: {report:?}");
    assert!(report.hazards.iter().any(|h| h.kind == HazardKind::Deadlock), "{:?}", report.hazards);
    let cycles = report.lock_graph.cycles();
    assert!(
        cycles
            .iter()
            .any(|c| c.iter().any(|n| n == "net.groups") && c.iter().any(|n| n == "net.endpoints")),
        "expected groups<->endpoints cycle, got {cycles:?}"
    );

    let diags = diagnose(&report);
    assert!(diags.iter().any(|d| d.code == codes::DEADLOCK), "{diags:?}");
    assert!(diags.iter().any(|d| d.code == codes::LOCK_ORDER_CYCLE), "{diags:?}");

    // The deadlock is replayable and exports as artifacts.
    let cx = report.counterexample.as_ref().expect("counterexample");
    let artifacts = export_counterexample(scenario.name, cx);
    assert!(!artifacts.trace_jsonl.is_empty());
    assert!(!artifacts.journal.is_empty());
    let again = replay(&scenario, cx);
    assert!(again.hazards.iter().any(|h| h.kind == HazardKind::Deadlock), "{:?}", again.hazards);
}

/// The mutated pump's `take_matching` forgets what it passed over: the
/// lifecycle event delivered behind the `CreateTask` a round sweeps up is
/// lost, and the scenario's assertion fails under exactly those schedules.
#[test]
fn mutated_server_drain_drops_a_protocol_message() {
    let scenario = cn_check::find("core.server_drain").expect("registered");
    let report = run_scenario(&scenario, &test_config());
    assert!(report.failed(), "mutation not caught: {report:?}");
    assert!(
        report.hazards.iter().any(|h| h.kind == HazardKind::AssertionFailed),
        "{:?}",
        report.hazards
    );
    assert!(
        report.hazards.iter().any(|h| h.message.contains("lifecycle event lost")),
        "{:?}",
        report.hazards
    );

    let diags = diagnose(&report);
    assert!(diags.iter().any(|d| d.code == codes::SCHEDULE_ASSERT), "{diags:?}");

    let cx = report.counterexample.as_ref().expect("counterexample");
    let again = replay(&scenario, cx);
    assert!(
        again.hazards.iter().any(|h| h.kind == HazardKind::AssertionFailed),
        "{:?}",
        again.hazards
    );
}

/// The mutated reactor mailbox elides the empty→non-empty wake — the only
/// wake a parked shard gets, since the NoopWaker scenario has no eventfd.
/// The shard survives only through its poll timeout, which the checker
/// reports as a lost notification.
#[test]
fn mutated_reactor_mailbox_loses_the_shard_wakeup() {
    let scenario = cn_check::find("reactor.shard_mailbox").expect("registered");
    let report = run_scenario(&scenario, &test_config());
    assert!(report.failed(), "mutation not caught: {report:?}");
    assert!(
        report.hazards.iter().any(|h| h.kind == HazardKind::LostNotify),
        "{:?}",
        report.hazards
    );

    let diags = diagnose(&report);
    assert!(diags.iter().any(|d| d.code == codes::LOST_NOTIFY), "{diags:?}");

    let cx = report.counterexample.as_ref().expect("counterexample");
    let again = replay(&scenario, cx);
    assert!(again.failed(), "replay did not reproduce");
    let replayed = again.counterexample.expect("replay counterexample");
    assert_eq!(replayed.trace_jsonl(), cx.trace_jsonl(), "replay diverged from recording");
}

/// The mutated admission queue elides the empty→non-empty notify — the
/// only wake a parked portal worker gets. The responder in the scenario
/// survives only through its poll timeout, which the checker reports as
/// a lost notification, proving the portal handoff scenario has teeth.
#[test]
fn mutated_portal_admission_loses_the_worker_wakeup() {
    let scenario = cn_check::find("portal.http_parser").expect("registered");
    let report = run_scenario(&scenario, &test_config());
    assert!(report.failed(), "mutation not caught: {report:?}");
    assert!(
        report.hazards.iter().any(|h| h.kind == HazardKind::LostNotify),
        "{:?}",
        report.hazards
    );

    let diags = diagnose(&report);
    assert!(diags.iter().any(|d| d.code == codes::LOST_NOTIFY), "{diags:?}");

    let cx = report.counterexample.as_ref().expect("counterexample");
    let again = replay(&scenario, cx);
    assert!(again.failed(), "replay did not reproduce");
    let replayed = again.counterexample.expect("replay counterexample");
    assert_eq!(replayed.trace_jsonl(), cx.trace_jsonl(), "replay diverged from recording");
}
