//! Exercises the controlled scheduler against small hand-built scenarios:
//! each detector (deadlock, double-lock, lost notification, schedule-
//! dependent assertion) must fire, counterexamples must replay, and clean
//! scenarios must come back clean.

use std::sync::Arc;

use cn_sync::check::{explore, ExploreOpts, Strategy};
use cn_sync::model::HazardKind;
use cn_sync::{channel, thread, Condvar, Mutex};

fn pct(scenario: &str, seed: u64, schedules: u32) -> ExploreOpts {
    ExploreOpts::new(scenario, Strategy::Pct { seed, schedules })
}

/// Two tasks acquiring two locks in opposite orders: the classic cycle.
fn opposite_order_scenario() {
    let a = Arc::new(Mutex::named("test.a", 0u32));
    let b = Arc::new(Mutex::named("test.b", 0u32));
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let t = thread::spawn(move || {
        let _ga = a2.lock();
        let _gb = b2.lock();
    });
    {
        let _gb = b.lock();
        let _ga = a.lock();
    }
    let _ = t.join();
}

#[test]
fn pct_finds_opposite_order_deadlock() {
    let report = explore(pct("opposite-order", 7, 64), opposite_order_scenario);
    assert!(
        report.hazards.iter().any(|h| h.kind == HazardKind::Deadlock),
        "expected deadlock, got {:?}",
        report.hazards
    );
    let cx = report.counterexample.as_ref().expect("counterexample recorded");
    assert!(!cx.trace.is_empty());
    // The lock-order graph must expose the a<->b cycle.
    let cycles = report.lock_graph.cycles();
    assert!(
        cycles
            .iter()
            .any(|c| c.contains(&"test.a".to_string()) && c.contains(&"test.b".to_string())),
        "expected lock cycle in {:?}",
        cycles
    );
}

#[test]
fn counterexample_replays_to_same_trace() {
    let report = explore(pct("opposite-order", 7, 64), opposite_order_scenario);
    let cx = report.counterexample.expect("counterexample");
    let replayed = explore(
        ExploreOpts::new("opposite-order", Strategy::Replay { schedule: cx.schedule.clone() }),
        opposite_order_scenario,
    );
    let rcx = replayed.counterexample.expect("replay reproduces the hazard");
    assert_eq!(cx.trace_jsonl(), rcx.trace_jsonl(), "replay must yield identical trace bytes");
}

#[test]
fn double_lock_detected() {
    let report = explore(pct("double-lock", 1, 8), || {
        let m = Mutex::named("test.dl", 0u32);
        let _g1 = m.lock();
        let _g2 = m.lock();
    });
    assert!(report.hazards.iter().any(|h| h.kind == HazardKind::DoubleLock));
}

/// Flag flip without a notify: the waiter can only make progress via the
/// timeout escape hatch, which `fail_on_timeout_escape` turns into a hazard.
#[test]
fn missing_notify_reported_as_lost_notify() {
    let mut opts = pct("missing-notify", 3, 16);
    opts.fail_on_timeout_escape = true;
    let report = explore(opts, || {
        let pair = Arc::new((Mutex::named("test.flag", false), Condvar::named("test.cv")));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                let _ = cv.wait_for(&mut ready, std::time::Duration::from_millis(50));
            }
        });
        *pair.0.lock() = true; // bug: no notify_one()
        let _ = t.join();
    });
    assert!(
        report.hazards.iter().any(|h| h.kind == HazardKind::LostNotify),
        "expected lost-notify, got {:?}",
        report.hazards
    );
}

/// Same shape with the notify present: must be clean on every schedule,
/// with no timeout escapes needed.
#[test]
fn correct_notify_is_clean() {
    let mut opts = pct("correct-notify", 3, 32);
    opts.fail_on_timeout_escape = true;
    let report = explore(opts, || {
        let pair = Arc::new((Mutex::named("test.flag", false), Condvar::named("test.cv")));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        {
            let mut g = pair.0.lock();
            *g = true;
            pair.1.notify_one();
        }
        let _ = t.join();
    });
    assert!(!report.failed(), "clean scenario flagged: {:?}", report.hazards);
    assert_eq!(report.timeout_escapes, 0);
}

/// A schedule-dependent assertion: consumer asserts it sees "first" before
/// "second", producer order is racy. PCT must find the bad interleaving.
#[test]
fn schedule_dependent_assertion_caught() {
    let report = explore(pct("racy-assert", 11, 64), || {
        let (tx, rx) = channel::unbounded_named("test.chan");
        let tx2 = tx.clone();
        let t1 = thread::spawn(move || {
            tx.send("first").unwrap();
        });
        let t2 = thread::spawn(move || {
            tx2.send("second").unwrap();
        });
        let a = rx.recv().unwrap();
        assert_eq!(a, "first", "consumer assumed producer order");
        let _ = t1.join();
        let _ = t2.join();
    });
    assert!(
        report.hazards.iter().any(|h| h.kind == HazardKind::AssertionFailed),
        "expected assertion hazard, got {:?}",
        report.hazards
    );
}

/// Channels with a single producer are deterministic: clean everywhere.
#[test]
fn channel_pipeline_is_clean() {
    let report = explore(pct("chan-pipeline", 5, 32), || {
        let (tx, rx) = channel::unbounded_named("test.pipe");
        let t = thread::spawn(move || {
            for i in 0..3 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv().unwrap());
        }
        assert_eq!(got, vec![0, 1, 2]);
        let _ = t.join();
    });
    assert!(!report.failed(), "clean pipeline flagged: {:?}", report.hazards);
    assert!(report.schedules >= 32);
}

/// Receiver sees Disconnected (not a hang) once all senders are dropped.
#[test]
fn sender_drop_disconnects() {
    let report = explore(pct("chan-disconnect", 9, 16), || {
        let (tx, rx) = channel::unbounded_named("test.disc");
        let t = thread::spawn(move || {
            tx.send(1).unwrap();
            // tx dropped here
        });
        assert_eq!(rx.recv(), Ok(1));
        assert!(rx.recv().is_err());
        let _ = t.join();
    });
    assert!(!report.failed(), "disconnect scenario flagged: {:?}", report.hazards);
}

/// Condvar-wait-while-holding-another-lock is surfaced as analysis data.
#[test]
fn cv_wait_while_holding_recorded() {
    let report = explore(pct("cv-holding", 2, 8), || {
        let outer = Arc::new(Mutex::named("test.outer", ()));
        let pair = Arc::new((Mutex::named("test.inner", true), Condvar::named("test.cv2")));
        let _o = outer.lock();
        let (m, cv) = &*pair;
        let mut g = m.lock();
        if !*g {
            cv.wait(&mut g);
        } else {
            // Take the timed path so the scenario terminates while still
            // recording the hazard pattern.
            let _ = cv.wait_for(&mut g, std::time::Duration::from_millis(1));
        }
    });
    assert!(
        report.cv_wait_holding.iter().any(|(cv, held)| cv == "test.cv2" && held == "test.outer"),
        "expected cv-wait-while-holding record, got {:?}",
        report.cv_wait_holding
    );
}

/// The same seed must produce the same report (schedules, steps, trace).
#[test]
fn exploration_is_deterministic_per_seed() {
    let r1 = explore(pct("opposite-order", 42, 64), opposite_order_scenario);
    let r2 = explore(pct("opposite-order", 42, 64), opposite_order_scenario);
    assert_eq!(r1.schedules, r2.schedules);
    assert_eq!(r1.failed(), r2.failed());
    match (&r1.counterexample, &r2.counterexample) {
        (Some(a), Some(b)) => {
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.trace_jsonl(), b.trace_jsonl());
        }
        (None, None) => {}
        _ => panic!("determinism violated: one run found a counterexample, the other did not"),
    }
}
