//! CN client program for "TransClosure".
//! GENERATED by CNX2Rust from a CNX client descriptor -- do not edit.

use std::time::Duration;

use cn_cluster::NodeSpec;
use cn_core::{ClientError, CnApi, JobReport, JobRequirements, Neighborhood, TaskSpec};

/// Each job's tasks, in declaration order.
pub fn jobs() -> Vec<Vec<TaskSpec>> {
    let mut jobs = Vec::new();

    // --- job 0 ---
    let mut tasks = Vec::new();

    let mut t = TaskSpec::new("tctask0", "tasksplit.jar", "org.jhpc.cn2.transcloser.TaskSplit");
    t.memory_mb = 1000;
    t.params.push(cn_cnx::Param::new(cn_cnx::ParamType::parse("String"), "matrix.txt"));
    tasks.push(t);

    let mut t = TaskSpec::new("tctask1", "tctask.jar", "org.jhpc.cn2.trnsclsrtask.TCTask");
    t.depends.push("tctask0".into());
    t.memory_mb = 1000;
    t.params.push(cn_cnx::Param::new(cn_cnx::ParamType::parse("Integer"), "1"));
    tasks.push(t);

    let mut t = TaskSpec::new("tctask2", "tctask.jar", "org.jhpc.cn2.trnsclsrtask.TCTask");
    t.depends.push("tctask0".into());
    t.memory_mb = 1000;
    t.params.push(cn_cnx::Param::new(cn_cnx::ParamType::parse("Integer"), "2"));
    tasks.push(t);

    let mut t = TaskSpec::new("tctask3", "tctask.jar", "org.jhpc.cn2.trnsclsrtask.TCTask");
    t.depends.push("tctask0".into());
    t.memory_mb = 1000;
    t.params.push(cn_cnx::Param::new(cn_cnx::ParamType::parse("Integer"), "3"));
    tasks.push(t);

    let mut t = TaskSpec::new("tctask999", "taskjoin.jar", "org.jhpc.cn2.transcloser.TaskJoin");
    t.depends.push("tctask1".into());
    t.depends.push("tctask2".into());
    t.depends.push("tctask3".into());
    t.memory_mb = 1000;
    t.params.push(cn_cnx::Param::new(cn_cnx::ParamType::parse("String"), "matrix.txt"));
    tasks.push(t);
    jobs.push(tasks);
    jobs
}

/// Run the client on `api`. Per job: create it, create its tasks in one
/// burst, seed its input, start it and wait for its results. A job whose
/// tasks cannot all be placed, or whose input cannot be seeded, is
/// cancelled.
pub fn run(
    api: &CnApi,
    digraph_seed: u64,
    timeout: Duration,
) -> Result<Vec<JobReport>, ClientError> {
    let mut reports = Vec::new();
    for tasks in jobs() {
        let mut job = api.create_job(&JobRequirements::default())?;
        let placed = job
            .add_tasks(tasks)
            .and_then(|()| job.seed(|job| cn_tasks::seed_transitive_closure(job, digraph_seed)));
        if let Err(e) = placed {
            let _ = job.cancel(timeout);
            return Err(e);
        }
        job.start()?;
        reports.push(job.wait(timeout)?);
    }
    Ok(reports)
}

fn main() {
    // A simulated three-node neighborhood with the built-in task archives;
    // the transitive-closure input is the digraph of seed 1.
    let neighborhood = Neighborhood::deploy(NodeSpec::fleet(3, 8192, 16));
    cn_tasks::publish_all_archives(neighborhood.registry());
    let api = CnApi::initialize(&neighborhood);
    let reports = run(&api, 1, Duration::from_secs(60)).expect("client run");
    for report in &reports {
        for (task, result) in &report.results {
            println!("{task}: {result:?}");
        }
    }
    neighborhood.shutdown();
}
