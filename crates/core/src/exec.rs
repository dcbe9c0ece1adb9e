//! Direct execution of CNX descriptors, including dynamic invocation.
//!
//! The paper's pipeline generates a client *program* from CNX; this module
//! is the equivalent interpreted path: take a validated [`CnxDocument`],
//! drive the CN API through exactly the call sequence a generated client
//! would make, and return the job reports. The Rust client the CNX2Rust
//! stylesheet (`cn-transform`) generates makes the same calls, and
//! `tests/generated_client.rs` runs both against one another.
//!
//! Dynamic invocation (paper Figure 5): a task carrying a `multiplicity`
//! annotation stands for N run-time invocations; "the number of concurrent
//! invocations is determined by a run-time expression that evaluates to a
//! set of actual argument lists, one for each invocation". [`DynamicArgs`]
//! is that set; expansion rewrites the descriptor before execution.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use cn_cnx::{CnxDocument, Param, Task as CnxTask};

use crate::api::{ClientError, CnApi, JobHandle, JobReport};
use crate::message::{JobRequirements, TaskSpec};
use crate::Neighborhood;

/// Run-time argument lists for dynamic tasks: task name → one parameter
/// list per invocation.
#[derive(Debug, Clone, Default)]
pub struct DynamicArgs {
    args: HashMap<String, Vec<Vec<Param>>>,
}

impl DynamicArgs {
    pub fn new() -> Self {
        Self::default()
    }

    /// Provide the argument lists for dynamic task `name`.
    pub fn set(mut self, name: impl Into<String>, invocations: Vec<Vec<Param>>) -> Self {
        self.args.insert(name.into(), invocations);
        self
    }

    pub fn get(&self, name: &str) -> Option<&Vec<Vec<Param>>> {
        self.args.get(name)
    }
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    Validation(String),
    /// A dynamic task had no run-time argument lists.
    MissingDynamicArgs(String),
    /// A fixed multiplicity disagreed with the argument list count.
    MultiplicityMismatch {
        task: String,
        declared: String,
        provided: usize,
    },
    Client(ClientError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Validation(e) => write!(f, "invalid descriptor: {e}"),
            ExecError::MissingDynamicArgs(t) => {
                write!(f, "dynamic task {t:?} has no run-time argument lists")
            }
            ExecError::MultiplicityMismatch { task, declared, provided } => write!(
                f,
                "dynamic task {task:?} declares multiplicity {declared} but {provided} argument lists were provided"
            ),
            ExecError::Client(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ClientError> for ExecError {
    fn from(e: ClientError) -> Self {
        ExecError::Client(e)
    }
}

/// Expand dynamic tasks into concrete instances.
///
/// A task `w` with `multiplicity="*"` (or `"N"`) becomes `w_1 ... w_k`, one
/// per argument list; the instance's params are the base params followed by
/// the invocation's params. Tasks that depended on `w` now depend on every
/// instance; instances inherit `w`'s dependencies.
pub fn expand_dynamic(doc: &CnxDocument, dynamic: &DynamicArgs) -> Result<CnxDocument, ExecError> {
    let mut out = doc.clone();
    for job in &mut out.client.jobs {
        let mut new_tasks: Vec<CnxTask> = Vec::with_capacity(job.tasks.len());
        // old name → instance names (for rewriting depends).
        let mut renames: HashMap<String, Vec<String>> = HashMap::new();
        for task in &job.tasks {
            match &task.multiplicity {
                None => new_tasks.push(task.clone()),
                Some(m) => {
                    let lists = dynamic
                        .get(&task.name)
                        .ok_or_else(|| ExecError::MissingDynamicArgs(task.name.clone()))?;
                    if m != "*" {
                        let declared: usize = m.parse().map_err(|_| {
                            ExecError::Validation(format!(
                                "task {:?}: bad multiplicity {m:?}",
                                task.name
                            ))
                        })?;
                        if declared != lists.len() {
                            return Err(ExecError::MultiplicityMismatch {
                                task: task.name.clone(),
                                declared: m.clone(),
                                provided: lists.len(),
                            });
                        }
                    }
                    let mut instances = Vec::with_capacity(lists.len());
                    for (i, extra) in lists.iter().enumerate() {
                        let mut inst = task.clone();
                        inst.name = format!("{}_{}", task.name, i + 1);
                        inst.multiplicity = None;
                        inst.params.extend(extra.iter().cloned());
                        instances.push(inst.name.clone());
                        new_tasks.push(inst);
                    }
                    renames.insert(task.name.clone(), instances);
                }
            }
        }
        for task in &mut new_tasks {
            let mut deps = Vec::with_capacity(task.depends.len());
            for d in &task.depends {
                match renames.get(d) {
                    Some(instances) => deps.extend(instances.iter().cloned()),
                    None => deps.push(d.clone()),
                }
            }
            task.depends = deps;
        }
        job.tasks = new_tasks;
    }
    Ok(out)
}

/// Execute a descriptor against a deployed neighborhood: validate, expand
/// dynamic tasks, then drive the CN API exactly as a generated client
/// would. Returns one report per job, in declaration order.
pub fn execute_descriptor(
    neighborhood: &Neighborhood,
    doc: &CnxDocument,
    dynamic: &DynamicArgs,
    timeout: Duration,
) -> Result<Vec<JobReport>, ExecError> {
    execute_descriptor_seeded(neighborhood, doc, dynamic, timeout, |_| Ok(()))
}

/// Like [`execute_descriptor`], but calls `seed` on each job after its
/// tasks are created and before it starts — the hook where a generated
/// client performs its own setup (e.g. depositing input data into the
/// job's tuple space, the simulated `matrix.txt`). A hook that fails
/// cancels its job and fails the run with its error.
pub fn execute_descriptor_seeded(
    neighborhood: &Neighborhood,
    doc: &CnxDocument,
    dynamic: &DynamicArgs,
    timeout: Duration,
    seed: impl FnMut(&mut JobHandle) -> Result<(), ClientError>,
) -> Result<Vec<JobReport>, ExecError> {
    let api = CnApi::initialize(neighborhood);
    execute_with_api_seeded(&api, doc, dynamic, timeout, seed)
}

/// Like [`execute_descriptor_seeded`], but against an already-constructed
/// [`CnApi`] — the entry point when the fabric is a real socket transport
/// and there is no in-process [`Neighborhood`] to borrow (`cnctl submit`).
pub fn execute_with_api_seeded(
    api: &CnApi,
    doc: &CnxDocument,
    dynamic: &DynamicArgs,
    timeout: Duration,
    mut seed: impl FnMut(&mut JobHandle) -> Result<(), ClientError>,
) -> Result<Vec<JobReport>, ExecError> {
    let expanded = expand_dynamic(doc, dynamic)?;
    cn_cnx::validate(&expanded).map_err(|e| ExecError::Validation(e.to_string()))?;
    let mut reports = Vec::with_capacity(expanded.client.jobs.len());
    for job_decl in &expanded.client.jobs {
        let mut job = api.create_job(&JobRequirements::default())?;
        let placed = job
            .add_tasks(job_decl.tasks.iter().map(TaskSpec::from_cnx).collect())
            .and_then(|()| job.seed(&mut seed));
        if let Err(e) = placed {
            // The tasks that were placed hold their slots and memory until
            // the JobManager hears the job is off. A dropped handle posts
            // that too, but only `cancel` returns once it was heard — a
            // `cnctl submit` about to exit may close its fabric first.
            let _ = job.cancel(timeout);
            return Err(e.into());
        }
        job.start()?;
        reports.push(job.wait(timeout)?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::TaskArchive;
    use crate::message::UserData;
    use crate::task::TaskContext;
    use cn_cluster::NodeSpec;
    use cn_cnx::{Client, Job};

    fn descriptor(tasks: Vec<CnxTask>) -> CnxDocument {
        let mut client = Client::new("Test");
        client.jobs.push(Job { tasks });
        CnxDocument::new(client)
    }

    #[test]
    fn expansion_star_multiplicity() {
        let mut worker = CnxTask::new("w", "w.jar", "W").depends_on(&["split"]);
        worker.multiplicity = Some("*".to_string());
        worker.params.push(Param::string("base"));
        let join = CnxTask::new("join", "j.jar", "J").depends_on(&["w"]);
        let split = CnxTask::new("split", "s.jar", "S");
        let doc = descriptor(vec![split, worker, join]);
        let dynamic = DynamicArgs::new().set(
            "w",
            vec![vec![Param::integer(1)], vec![Param::integer(2)], vec![Param::integer(3)]],
        );
        let out = expand_dynamic(&doc, &dynamic).unwrap();
        let job = &out.client.jobs[0];
        assert_eq!(job.tasks.len(), 5);
        let w2 = job.task("w_2").unwrap();
        assert_eq!(w2.depends, vec!["split"]);
        assert_eq!(w2.params, vec![Param::string("base"), Param::integer(2)]);
        let join = job.task("join").unwrap();
        assert_eq!(join.depends, vec!["w_1", "w_2", "w_3"]);
    }

    #[test]
    fn expansion_fixed_multiplicity_checks_count() {
        let mut worker = CnxTask::new("w", "w.jar", "W");
        worker.multiplicity = Some("2".to_string());
        let doc = descriptor(vec![worker]);
        let dynamic = DynamicArgs::new().set("w", vec![vec![], vec![], vec![]]);
        match expand_dynamic(&doc, &dynamic) {
            Err(ExecError::MultiplicityMismatch { declared, provided, .. }) => {
                assert_eq!(declared, "2");
                assert_eq!(provided, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expansion_requires_args() {
        let mut worker = CnxTask::new("w", "w.jar", "W");
        worker.multiplicity = Some("*".to_string());
        let doc = descriptor(vec![worker]);
        assert_eq!(
            expand_dynamic(&doc, &DynamicArgs::new()).unwrap_err(),
            ExecError::MissingDynamicArgs("w".to_string())
        );
    }

    #[test]
    fn expansion_no_dynamic_tasks_is_identity() {
        let doc = cn_cnx::ast::figure2_descriptor(3);
        let out = expand_dynamic(&doc, &DynamicArgs::new()).unwrap();
        assert_eq!(doc, out);
    }

    #[test]
    fn descriptor_executes_end_to_end() {
        let nb = Neighborhood::deploy(NodeSpec::fleet(2, 8000, 8));
        nb.registry().publish(TaskArchive::new("sum.jar").class("Sum", || {
            Box::new(|ctx: &mut TaskContext| {
                let total: i64 = (0..ctx.params.len()).filter_map(|i| ctx.param_i64(i)).sum();
                Ok(UserData::I64s(vec![total]))
            })
        }));
        let mut a = CnxTask::new("a", "sum.jar", "Sum").with_param(Param::integer(2));
        a.req.memory_mb = 100;
        let mut b =
            CnxTask::new("b", "sum.jar", "Sum").with_param(Param::integer(40)).depends_on(&["a"]);
        b.req.memory_mb = 100;
        let doc = descriptor(vec![a, b]);
        let reports =
            execute_descriptor(&nb, &doc, &DynamicArgs::new(), Duration::from_secs(10)).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].result("a"), Some(&UserData::I64s(vec![2])));
        assert_eq!(reports[0].result("b"), Some(&UserData::I64s(vec![40])));
        nb.shutdown();
    }

    #[test]
    fn dynamic_descriptor_executes_with_runtime_multiplicity() {
        let nb = Neighborhood::deploy(NodeSpec::fleet(2, 8000, 8));
        nb.registry().publish(TaskArchive::new("id.jar").class("Id", || {
            Box::new(|ctx: &mut TaskContext| {
                Ok(UserData::I64s(vec![ctx.param_i64(0).unwrap_or(-1)]))
            })
        }));
        let mut w = CnxTask::new("w", "id.jar", "Id");
        w.multiplicity = Some("*".to_string());
        w.req.memory_mb = 100;
        let doc = descriptor(vec![w]);
        let dynamic =
            DynamicArgs::new().set("w", (1..=4).map(|i| vec![Param::integer(i)]).collect());
        let reports = execute_descriptor(&nb, &doc, &dynamic, Duration::from_secs(10)).unwrap();
        assert_eq!(reports[0].results.len(), 4);
        for i in 1..=4i64 {
            assert_eq!(reports[0].result(&format!("w_{i}")), Some(&UserData::I64s(vec![i])));
        }
        nb.shutdown();
    }

    #[test]
    fn failed_placement_gives_back_what_the_burst_had_placed() {
        let nb = Neighborhood::deploy(NodeSpec::fleet(2, 1000, 4));
        nb.registry().publish(
            TaskArchive::new("x.jar")
                .class("X", || Box::new(|_ctx: &mut TaskContext| Ok(UserData::Empty))),
        );
        let mut fits = CnxTask::new("fits", "x.jar", "X");
        fits.req.memory_mb = 600;
        let mut too_big = CnxTask::new("too_big", "x.jar", "X");
        too_big.req.memory_mb = 2000;
        let doc = descriptor(vec![fits, too_big]);
        match execute_descriptor(&nb, &doc, &DynamicArgs::new(), Duration::from_secs(5)) {
            Err(ExecError::Client(ClientError::PlacementFailed { task, .. })) => {
                assert_eq!(task, "too_big")
            }
            other => panic!("{other:?}"),
        }
        // `cancel` returned on the JobManager's word, which it gives after
        // releasing its own TaskManager's share and telling the others.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while nb.nodes().iter().any(|n| (n.free_slots(), n.free_memory_mb()) != (4, 1000)) {
            assert!(std::time::Instant::now() < deadline, "the placed task was never released");
            std::thread::yield_now();
        }
        nb.shutdown();
    }

    #[test]
    fn a_failed_seed_cancels_the_job_before_any_task_starts() {
        let rec = cn_observe::Recorder::new();
        let nb = Neighborhood::deploy_with(
            NodeSpec::fleet(2, 1000, 4),
            crate::NeighborhoodConfig { recorder: rec.clone(), ..Default::default() },
        );
        nb.registry().publish(
            TaskArchive::new("x.jar")
                .class("X", || Box::new(|_ctx: &mut TaskContext| Ok(UserData::Empty))),
        );
        let mut a = CnxTask::new("a", "x.jar", "X");
        a.req.memory_mb = 600;
        let refused = ClientError::Usage("no input to seed");
        let outcome = execute_descriptor_seeded(
            &nb,
            &descriptor(vec![a]),
            &DynamicArgs::new(),
            Duration::from_secs(5),
            |_| Err(refused.clone()),
        );
        assert_eq!(outcome, Err(ExecError::Client(refused)));
        assert_eq!(rec.counter("server.tasks_started").get(), 0);
        // The cancelled job gave back what its task had been placed on.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while nb.nodes().iter().any(|n| (n.free_slots(), n.free_memory_mb()) != (4, 1000)) {
            assert!(std::time::Instant::now() < deadline, "the placed task was never released");
            std::thread::yield_now();
        }
        nb.shutdown();
    }

    #[test]
    fn invalid_descriptor_rejected_before_execution() {
        let nb = Neighborhood::deploy(NodeSpec::fleet(1, 1000, 2));
        let doc = descriptor(vec![CnxTask::new("a", "x.jar", "X").depends_on(&["ghost"])]);
        match execute_descriptor(&nb, &doc, &DynamicArgs::new(), Duration::from_secs(5)) {
            Err(ExecError::Validation(_)) => {}
            other => panic!("{other:?}"),
        }
        nb.shutdown();
    }
}
