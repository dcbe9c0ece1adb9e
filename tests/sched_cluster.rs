//! Load-aware scheduling and fair admission across a simulated fleet.
//!
//! The scheduler contract (DESIGN.md §14): the load-aware policy is a
//! strict refinement of round-robin — with uniform load it degrades to
//! the same rotation, so single-job runs place identically and the
//! canonical journal stays byte-identical; only under contention do the
//! live load signals change placement.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::core::{
    CnApi, JobRequirements, Neighborhood, NeighborhoodConfig, Policy, ServerConfig, TaskArchive,
    TaskContext, TaskSpec, UserData,
};
use computational_neighborhood::observe::{journal_jsonl, Recorder};

/// The bound on every bid window. A window closes as soon as each
/// addressed server has answered, so a healthy run never waits it out; a
/// bound of a few hundred microseconds instead lets a server that is merely
/// slow to be scheduled count as silent, and turns CPU contention into
/// missing bids: a `NoJobManagers` at `create_job`, or a placement that is
/// not the rotation.
const BID_WINDOW: Duration = Duration::from_secs(1);

/// A fleet with per-node `speed_pct` values and capped executor slots so
/// run queues actually form.
fn skewed_fleet(
    speeds: &[u32],
    exec_slots: usize,
    policy: Policy,
    recorder: Recorder,
) -> Neighborhood {
    let config = NeighborhoodConfig {
        server: ServerConfig { bid_window: BID_WINDOW, policy, exec_slots: Some(exec_slots) },
        recorder,
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
    computational_neighborhood::core::ClientConfig { bid_window: BID_WINDOW }
}

/// Run one single-client job of `tasks` Spin tasks; returns (placements,
/// canonical journal).
fn single_job_run(policy: Policy, tasks: usize) -> (Vec<(String, String)>, String) {
    let rec = Recorder::new();
    let nb = skewed_fleet(&[100, 100, 100], 2, policy, rec.clone());
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

/// Fair admission smoke: concurrent clients each burst a batch of tasks;
/// deficit-round-robin interleaves admission but every task must still be
/// placed and every job must complete.
#[test]
fn concurrent_client_bursts_all_complete_under_fair_admission() {
    let rec = Recorder::new();
    let nb = Arc::new(skewed_fleet(&[100, 100], 4, Policy::LoadAware, rec));
    let clients = 3;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let nb = Arc::clone(&nb);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let api = CnApi::with_config(&nb, client_config());
                let job = api.create_job(&JobRequirements::default());
                // Every client reaches the barrier, so one that fails to
                // create its job fails the test instead of hanging the rest.
                barrier.wait();
                let mut job = job.expect("create job");
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
