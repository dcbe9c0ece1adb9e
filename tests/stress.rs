//! Stress and topology tests: wide fan-outs, deep chains, and random DAGs
//! executed on the runtime, with completion order checked against the
//! dependency relation.

use std::time::Duration;

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::cnx::{self, Param};
use computational_neighborhood::core::{
    CnApi, Field, JobHandle, JobReport, JobRequirements, Neighborhood, TaskArchive, TaskContext,
    TaskError, TaskSpec, UserData,
};

/// An archive whose task stamps its run order from a Linda counter tuple:
/// it takes `["clock", n]`, puts back `n + 1` and returns `n`.
fn sequencer_archive() -> TaskArchive {
    TaskArchive::new("seq.jar").class("Seq", || {
        Box::new(|ctx: &mut TaskContext| {
            let mut ts = ctx.tuplespace();
            let clock = ts
                .take(&vec![Some(Field::S("clock".into())), None], Duration::from_secs(30))
                .ok_or_else(|| TaskError::new("no clock tuple"))?;
            let Field::I(stamp) = clock[1] else { unreachable!("the clock is an integer") };
            ts.out(vec![Field::S("clock".into()), Field::I(stamp + 1)]);
            Ok(UserData::I64s(vec![stamp]))
        })
    })
}

/// Deposit the clock the sequencer tasks stamp from.
fn start_clock(job: &mut JobHandle) {
    job.tuplespace().out(vec![Field::S("clock".into()), Field::I(0)]);
}

fn stamp_of(report: &JobReport, name: &str) -> i64 {
    match report.result(name) {
        Some(UserData::I64s(stamp)) => stamp[0],
        other => panic!("{name} left no stamp: {other:?}"),
    }
}

#[test]
fn wide_fanout_completes() {
    // 1 root -> 48 workers -> 1 join on 4 nodes.
    let nb = Neighborhood::deploy(NodeSpec::fleet(4, 1 << 20, 64));
    nb.registry().publish(sequencer_archive());
    let api = CnApi::initialize(&nb);
    let mut job = api.create_job(&JobRequirements::default()).unwrap();
    let mut root = TaskSpec::new("root", "seq.jar", "Seq");
    root.memory_mb = 1;
    job.add_task(root).unwrap();
    let worker_names: Vec<String> = (0..48).map(|i| format!("w{i}")).collect();
    for name in &worker_names {
        let mut w = TaskSpec::new(name.clone(), "seq.jar", "Seq");
        w.depends = vec!["root".to_string()];
        w.memory_mb = 1;
        job.add_task(w).unwrap();
    }
    let mut join = TaskSpec::new("join", "seq.jar", "Seq");
    join.depends = worker_names.clone();
    join.memory_mb = 1;
    job.add_task(join).unwrap();
    start_clock(&mut job);
    job.start().unwrap();
    let report = job.wait(Duration::from_secs(60)).unwrap();
    assert_eq!(report.results.len(), 50);
    let root_stamp = stamp_of(&report, "root");
    let join_stamp = stamp_of(&report, "join");
    assert_eq!(root_stamp, 0, "root runs first");
    assert_eq!(join_stamp, 49, "join runs last");
    for name in &worker_names {
        let s = stamp_of(&report, name);
        assert!(s > root_stamp && s < join_stamp, "{name} stamp {s} out of range");
    }
    nb.shutdown();
}

#[test]
fn deep_chain_runs_strictly_in_order() {
    let depth = 24;
    let nb = Neighborhood::deploy(NodeSpec::fleet(2, 1 << 20, 32));
    nb.registry().publish(sequencer_archive());
    let api = CnApi::initialize(&nb);
    let mut job = api.create_job(&JobRequirements::default()).unwrap();
    for i in 0..depth {
        let mut t = TaskSpec::new(format!("c{i}"), "seq.jar", "Seq");
        if i > 0 {
            t.depends = vec![format!("c{}", i - 1)];
        }
        t.memory_mb = 1;
        job.add_task(t).unwrap();
    }
    start_clock(&mut job);
    job.start().unwrap();
    let report = job.wait(Duration::from_secs(60)).unwrap();
    for i in 0..depth {
        assert_eq!(stamp_of(&report, &format!("c{i}")), i as i64, "chain order violated at {i}");
    }
    nb.shutdown();
}

#[test]
fn random_dag_respects_every_dependency() {
    // A seeded random layered DAG executed on the runtime; every task's
    // completion stamp must exceed all of its dependencies' stamps.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(2026);
    let layers = 5;
    let width = 6;
    let nb = Neighborhood::deploy(NodeSpec::fleet(3, 1 << 20, 64));
    nb.registry().publish(sequencer_archive());
    let api = CnApi::initialize(&nb);
    let mut job = api.create_job(&JobRequirements::default()).unwrap();
    let mut deps_of: Vec<(String, Vec<String>)> = Vec::new();
    for l in 0..layers {
        for w in 0..width {
            let name = format!("t{l}_{w}");
            let mut deps = Vec::new();
            if l > 0 {
                for pw in 0..width {
                    if rng.gen_bool(0.4) {
                        deps.push(format!("t{}_{pw}", l - 1));
                    }
                }
            }
            let mut spec = TaskSpec::new(name.clone(), "seq.jar", "Seq");
            spec.depends = deps.clone();
            spec.memory_mb = 1;
            job.add_task(spec).unwrap();
            deps_of.push((name, deps));
        }
    }
    start_clock(&mut job);
    job.start().unwrap();
    let report = job.wait(Duration::from_secs(60)).unwrap();
    assert_eq!(report.results.len(), layers * width);
    for (name, deps) in &deps_of {
        let my_stamp = stamp_of(&report, name);
        for d in deps {
            assert!(
                stamp_of(&report, d) < my_stamp,
                "{name} (stamp {my_stamp}) ran before its dependency {d}"
            );
        }
    }
    nb.shutdown();
}

#[test]
fn many_sequential_jobs_do_not_leak_state() {
    // Re-running jobs through one neighborhood must not accumulate stale
    // tuple spaces or job state.
    let nb = Neighborhood::deploy(NodeSpec::fleet(2, 1 << 20, 32));
    nb.registry().publish(sequencer_archive());
    let api = CnApi::initialize(&nb);
    for round in 0..12 {
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        let mut t = TaskSpec::new("only", "seq.jar", "Seq");
        t.memory_mb = 1;
        job.add_task(t).unwrap();
        start_clock(&mut job);
        job.start().unwrap();
        let report = job.wait(Duration::from_secs(30)).unwrap();
        // Each round's space is fresh: the stamp is always 0.
        assert_eq!(
            report.result("only"),
            Some(&UserData::I64s(vec![0])),
            "round {round} saw a stale tuple space"
        );
    }
    // All slots and memory released.
    for node in nb.nodes() {
        assert_eq!(node.free_slots(), node.spec().task_slots, "leaked slot on {}", node.name());
        assert_eq!(
            node.free_memory_mb(),
            node.spec().memory_mb,
            "leaked memory on {}",
            node.name()
        );
    }
    nb.shutdown();
}

#[test]
fn descriptor_with_200_tasks_round_trips_and_validates() {
    // Tool-chain scalability: a 200-task CNX descriptor survives
    // write/parse/validate and its DAG analytics stay consistent.
    let mut job = cnx::Job::default();
    job.tasks.push(cnx::Task::new("seed", "x.jar", "X"));
    for i in 0..199 {
        let dep = if i == 0 { "seed".to_string() } else { format!("t{}", i - 1) };
        let mut t = cnx::Task::new(format!("t{i}"), "x.jar", "X").depends_on(&[&dep]);
        t.params.push(Param::integer(i));
        job.tasks.push(t);
    }
    let mut client = cnx::Client::new("Big");
    client.jobs.push(job);
    let doc = cnx::CnxDocument::new(client);
    cnx::validate(&doc).unwrap();
    let text = cnx::write_cnx(&doc);
    let back = cnx::parse_cnx(&text).unwrap();
    assert_eq!(doc, back);
    let graph = cnx::DependencyGraph::build(&back.client.jobs[0]).unwrap();
    assert_eq!(graph.critical_path_len(), 200);
    assert_eq!(graph.max_parallelism(), 1);
}
