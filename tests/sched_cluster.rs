//! Load-aware scheduling and work stealing across a simulated fleet.
//!
//! The scheduler contract (DESIGN.md §14): the load-aware policy is a
//! strict refinement of round-robin — with uniform load it degrades to
//! the same rotation, so single-job runs place identically and the
//! canonical journal stays byte-identical; only under contention do the
//! live load signals (and, when enabled, steal raids) change placement.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::core::{
    CnApi, CnMessage, JobRequirements, Neighborhood, NeighborhoodConfig, Policy, RecvError,
    ServerConfig, TaskArchive, TaskContext, TaskError, TaskSpec, UserData,
};
use computational_neighborhood::observe::{journal_jsonl, Recorder};

/// A fleet with per-node `speed_pct` values, capped executor slots so run
/// queues actually form, and fast bid windows.
fn skewed_fleet(
    speeds: &[u32],
    exec_slots: usize,
    policy: Policy,
    steal: bool,
    recorder: Recorder,
) -> Neighborhood {
    let config = NeighborhoodConfig {
        server: ServerConfig {
            bid_window: Duration::from_micros(500),
            policy,
            exec_slots: Some(exec_slots),
            steal,
        },
        recorder,
        ..Default::default()
    };
    let nb = Neighborhood::deploy_with(NodeSpec::fleet_skewed(8192, 64, speeds), config);
    nb.registry().publish(work_archive(20));
    nb
}

fn work_archive(nominal_ms: u64) -> TaskArchive {
    TaskArchive::new("work.jar").class("Spin", move || {
        Box::new(move |ctx: &mut TaskContext| {
            ctx.simulate_work(Duration::from_millis(nominal_ms));
            Ok(UserData::Empty)
        })
    })
}

fn client_config() -> computational_neighborhood::core::ClientConfig {
    computational_neighborhood::core::ClientConfig {
        bid_window: Duration::from_micros(500),
        ..Default::default()
    }
}

/// Run one single-client job of `tasks` Spin tasks; returns (placements,
/// canonical journal).
fn single_job_run(policy: Policy, tasks: usize) -> (Vec<(String, String)>, String) {
    let rec = Recorder::new();
    let nb = skewed_fleet(&[100, 100, 100], 2, policy, false, rec.clone());
    let api = CnApi::with_config(&nb, client_config());
    let mut job = api.create_job(&JobRequirements::default()).expect("create job");
    for t in 0..tasks {
        let mut spec = TaskSpec::new(format!("t{t}"), "work.jar", "Spin");
        spec.memory_mb = 64;
        job.add_task(spec).expect("place task");
    }
    job.start().expect("start");
    let placements = job.placements().to_vec();
    job.wait(Duration::from_secs(60)).expect("job completes");
    nb.shutdown();
    (placements, journal_jsonl(&rec))
}

/// Differential: with uniform node speeds and a single client, the
/// load-aware policy sees all-equal load signals on every bid round, so it
/// must fall through to the round-robin rotation — identical placements
/// and a byte-identical journal.
#[test]
fn load_aware_matches_round_robin_on_uniform_fleet() {
    let (rr_placements, rr_journal) = single_job_run(Policy::RoundRobin, 6);
    let (la_placements, la_journal) = single_job_run(Policy::LoadAware, 6);
    assert_eq!(rr_placements, la_placements, "uniform-load placements must match");
    assert_eq!(rr_journal, la_journal, "canonical journal must be byte-identical");
    assert!(!rr_journal.is_empty(), "journal should have recorded spans");
}

/// Run 8 sequential-submission tasks against a [fast, 4x-slow] pair under
/// round-robin placement (which forces half the tasks onto the straggler),
/// with or without stealing; returns (makespan, steals).
fn straggler_run(steal: bool) -> (Duration, u64) {
    let rec = Recorder::new();
    let nb = skewed_fleet(&[100, 25], 1, Policy::RoundRobin, steal, rec.clone());
    let api = CnApi::with_config(&nb, client_config());
    let mut job = api.create_job(&JobRequirements::default()).expect("create job");
    for t in 0..8 {
        let mut spec = TaskSpec::new(format!("t{t}"), "work.jar", "Spin");
        spec.memory_mb = 64;
        job.add_task(spec).expect("place task");
    }
    let started = Instant::now();
    job.start().expect("start");
    job.wait(Duration::from_secs(60)).expect("job completes");
    let makespan = started.elapsed();
    let steals = rec.counter("server.steals").get();
    nb.shutdown();
    (makespan, steals)
}

/// With one 4x straggler and single-slot executors, the fast node drains
/// its queue and raids the straggler: at least one task migrates and the
/// makespan drops versus the no-steal run.
#[test]
fn slow_node_triggers_steal_and_cuts_makespan() {
    let (no_steal, zero) = straggler_run(false);
    assert_eq!(zero, 0, "stealing disabled must record no steals");
    let (with_steal, steals) = straggler_run(true);
    assert!(steals >= 1, "expected at least one steal, got {steals}");
    // No-steal: the straggler serializes 4 tasks at 80ms each (~320ms).
    // With stealing the fast node absorbs most of that backlog. Assert a
    // conservative improvement to stay robust on loaded CI boxes.
    assert!(with_steal < no_steal, "stealing should cut makespan: {with_steal:?} vs {no_steal:?}");
}

/// Threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// A stolen task keeps its old address: the client, whose directory still
/// names the victim, sends half its messages before the steal and half
/// after, and the task gets every one, once and in order — through the
/// victim's own loop, with no thread of its own.
#[test]
fn a_stolen_task_gets_what_was_sent_to_its_old_address_in_order() {
    let rec = Recorder::new();
    let nb = skewed_fleet(&[100, 25], 1, Policy::RoundRobin, true, rec.clone());
    let echo = |ctx: &mut TaskContext| {
        let fail = |e: RecvError| TaskError::new(e.to_string());
        let mut got = Vec::new();
        while got.len() < 100 {
            let (_, data) = ctx.recv_tagged("n", Duration::from_secs(10)).map_err(fail)?;
            got.extend_from_slice(data.as_i64s().unwrap_or_default());
        }
        ctx.send_to_client("got", UserData::Empty)?;
        ctx.recv_tagged("bye", Duration::from_secs(10)).map_err(fail)?;
        Ok(UserData::I64s(got))
    };
    nb.registry().publish(
        TaskArchive::new("steal.jar")
            .class("Hold", || {
                Box::new(|ctx: &mut TaskContext| {
                    ctx.simulate_work(Duration::from_millis(100));
                    Ok(UserData::Empty)
                })
            })
            .class("Echo", move || Box::new(echo)),
    );
    let api = CnApi::with_config(&nb, client_config());
    let mut job = api.create_job(&JobRequirements::default()).expect("create job");
    let spec = |name: &str, jar: &str, class: &str| {
        let mut spec = TaskSpec::new(name, jar, class);
        spec.memory_mb = 64;
        spec
    };
    // Round-robin: a0 holds the fast node's one slot for 100 ms and b0 waits
    // behind it; a1 holds the slow node's for 400 ms and b1 waits behind it,
    // until the fast node runs dry and steals it.
    let specs = vec![
        spec("a0", "steal.jar", "Hold"),
        spec("a1", "steal.jar", "Hold"),
        spec("b0", "work.jar", "Spin"),
        spec("b1", "steal.jar", "Echo"),
    ];
    job.add_tasks(specs).expect("place tasks");
    let on = |task: &str, node: &str| (task.to_string(), node.to_string());
    let placed = [on("a0", "node0"), on("a1", "node1"), on("b0", "node0"), on("b1", "node1")];
    assert_eq!(job.placements(), placed);
    job.start().expect("start");

    let steals = rec.counter("server.steals");
    for i in 0..50 {
        job.send_to_task("b1", "n", UserData::I64s(vec![i])).unwrap();
    }
    assert_eq!(steals.get(), 0, "the first half went out before the steal");
    let deadline = Instant::now() + Duration::from_secs(10);
    while steals.get() == 0 {
        assert!(Instant::now() < deadline, "b1 was never stolen");
        std::thread::sleep(Duration::from_millis(1));
    }
    for i in 50..100 {
        job.send_to_task("b1", "n", UserData::I64s(vec![i])).unwrap();
    }
    // Every message has been through the victim by now, and b1 still runs.
    loop {
        match job.recv_message(Duration::from_secs(10)).expect("b1 reports") {
            CnMessage::User { tag, .. } if tag == "got" => break,
            _ => {}
        }
    }
    assert_eq!(threads_named("steal-fwd"), 0, "a forwarder thread serves the old address");
    job.send_to_task("b1", "bye", UserData::Empty).unwrap();
    let report = job.wait(Duration::from_secs(60)).expect("job completes");
    assert_eq!(report.result("b1"), Some(&UserData::I64s((0..100).collect())));
    assert_eq!(steals.get(), 1);
    nb.shutdown();
}

/// Fair admission smoke: concurrent clients each burst a batch of tasks;
/// deficit-round-robin interleaves admission but every task must still be
/// placed and every job must complete.
#[test]
fn concurrent_client_bursts_all_complete_under_fair_admission() {
    let rec = Recorder::new();
    let nb = Arc::new(skewed_fleet(&[100, 100], 4, Policy::LoadAware, false, rec));
    let clients = 3;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let nb = Arc::clone(&nb);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let api = CnApi::with_config(&nb, client_config());
                let mut job = api.create_job(&JobRequirements::default()).expect("create job");
                barrier.wait();
                for t in 0..5 {
                    let mut spec = TaskSpec::new(format!("c{c}t{t}"), "work.jar", "Spin");
                    spec.memory_mb = 64;
                    job.add_task(spec).expect("place task");
                }
                job.start().expect("start");
                job.wait(Duration::from_secs(60)).expect("job completes")
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    Arc::try_unwrap(nb).ok().expect("sole owner").shutdown();
}
