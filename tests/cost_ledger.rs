//! The cost ledger: what one job costs, counted rather than timed.
//!
//! ROADMAP direction 2: wall-clock rows drift with the machine; work that
//! is *counted* repeats to the unit anywhere. These goldens pin the
//! deterministic `api.*` / `server.*` counters of one Figure-3 job and one
//! wide job on the simulated three-node cluster, so a change to what a job
//! costs — solicitations, bids, assignments — is a diff `cargo test`
//! shows on any machine. After an intended change regenerate with:
//!
//! ```text
//! REGENERATE_GOLDEN=1 cargo test --test cost_ledger
//! ```

use std::path::Path;
use std::time::Duration;

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::cnx::ast::figure2_descriptor;
use computational_neighborhood::core::{
    execute_descriptor_seeded, DynamicArgs, Neighborhood, NeighborhoodConfig,
};
use computational_neighborhood::observe::Recorder;
use computational_neighborhood::portal::seed_transitive_closure;
use computational_neighborhood::tasks;

/// The ledger's rows: every counter here is a function of the job and the
/// fleet alone (three idle nodes answer every solicitation), not of timing.
const ROWS: &[&str] = &[
    "api.jm_solicitations",
    "api.jm_bids_received",
    "api.jobs_created",
    "api.tasks_created",
    "server.jm_bids_sent",
    "server.placement_rounds",
    "server.task_solicitations",
    "server.tm_bids_sent",
    "server.assigns_sent",
    "server.tasks_started",
    "server.tasks_completed",
    "server.tasks_failed",
    "server.task_threads_spawned",
];

/// A fresh simulated cluster (the portal's `--sim 3` shape) that counts.
fn deploy() -> (Neighborhood, Recorder) {
    let rec = Recorder::new();
    let nb = Neighborhood::deploy_with(
        NodeSpec::fleet(3, 8192, 16),
        NeighborhoodConfig { recorder: rec.clone(), ..NeighborhoodConfig::default() },
    );
    tasks::publish_all_archives(nb.registry());
    (nb, rec)
}

/// Run the transitive-closure job with `workers` rows on `nb`.
fn run(nb: &Neighborhood, workers: usize) {
    let reports = execute_descriptor_seeded(
        nb,
        &figure2_descriptor(workers),
        &DynamicArgs::new(),
        Duration::from_secs(60),
        |job| seed_transitive_closure(job, 3),
    )
    .expect("job runs");
    assert_eq!(reports[0].results.len(), workers + 2);
}

/// Run the job with `workers` rows on a fresh cluster and render its ledger.
fn ledger(workers: usize) -> String {
    let (nb, rec) = deploy();
    run(&nb, workers);
    nb.shutdown();
    ROWS.iter().map(|row| format!("{row} {}\n", rec.counter(row).get())).collect()
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
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
        "ledger drifted from golden {}; rerun with REGENERATE_GOLDEN=1 if intended",
        path.display()
    );
}

#[test]
fn figure3_job_costs_what_the_ledger_says() {
    check_golden("cost_fig3_sim.txt", &ledger(5));
}

#[test]
fn wide_job_costs_what_the_ledger_says() {
    check_golden("cost_wide_sim.txt", &ledger(7));
}

/// Task threads belong to the server, not to the task: a second Figure-3
/// job on the same cluster runs on the threads the first one left parked.
#[test]
fn a_second_job_spawns_no_task_thread() {
    let (nb, rec) = deploy();
    run(&nb, 5);
    let spawned = rec.counter("server.task_threads_spawned").get();
    let reused = rec.counter("server.task_threads_reused").get();
    run(&nb, 5);
    nb.shutdown();
    assert_eq!(rec.counter("server.task_threads_spawned").get(), spawned);
    assert_eq!(rec.counter("server.task_threads_reused").get(), reused + 7);
}

/// A job no node is big enough for costs one TaskManager solicitation:
/// every TaskManager, the JobManager's own included, declines Figure 2's
/// 1000 MB tasks on 512 MB nodes, and the refusal names CN019 and the task.
#[test]
fn a_job_no_node_can_host_is_refused_after_one_solicitation() {
    let rec = Recorder::new();
    let nb = Neighborhood::deploy_with(
        NodeSpec::fleet(3, 512, 16),
        NeighborhoodConfig { recorder: rec.clone(), ..NeighborhoodConfig::default() },
    );
    tasks::publish_all_archives(nb.registry());
    let outcome = execute_descriptor_seeded(
        &nb,
        &figure2_descriptor(5),
        &DynamicArgs::new(),
        Duration::from_secs(60),
        |job| seed_transitive_closure(job, 3),
    );
    nb.shutdown();
    let Err(err) = outcome else { panic!("a 1000 MB task was placed on a 512 MB node") };
    let err = err.to_string();
    assert!(err.contains("CN019") && err.contains("\"tctask0\""), "{err}");
    assert!(err.contains("needs 1000 MB") && err.contains("512 MB"), "{err}");
    assert_eq!(rec.counter("server.task_solicitations").get(), 1);
}
