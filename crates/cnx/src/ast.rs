//! The CNX descriptor AST, mirroring Figure 2 of the paper.
//!
//! Parsed nodes carry a [`Span`] pointing back at the source text; spans are
//! deliberately excluded from equality so descriptors compare structurally
//! (parse → write → parse round-trips stay `==`).

use std::fmt;
use std::str::FromStr;

use crate::span::Span;

/// How a task is executed by its TaskManager.
///
/// The paper's descriptors use `RUN_AS_THREAD_IN_TM` ("TaskManager ... then
/// executes each Task in a separate thread"); `RUN_AS_PROCESS` is the
/// process-isolated variant the CN code base also names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RunModel {
    #[default]
    RunAsThreadInTm,
    RunAsProcess,
}

impl RunModel {
    pub fn as_str(self) -> &'static str {
        match self {
            RunModel::RunAsThreadInTm => "RUN_AS_THREAD_IN_TM",
            RunModel::RunAsProcess => "RUN_AS_PROCESS",
        }
    }
}

impl fmt::Display for RunModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for RunModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "RUN_AS_THREAD_IN_TM" => Ok(RunModel::RunAsThreadInTm),
            "RUN_AS_PROCESS" => Ok(RunModel::RunAsProcess),
            other => Err(format!("unknown run model {other:?}")),
        }
    }
}

/// Parameter types as they appear in CNX (`<param type="Integer">`).
///
/// Tagged values in the UML model use the Java class names
/// (`java.lang.Integer`); [`ParamType::parse`] normalizes both spellings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ParamType {
    Str,
    Integer,
    Long,
    Double,
    Boolean,
    Other(String),
}

impl ParamType {
    /// Accepts both the CNX short names and the `java.lang.*` spellings the
    /// tagged values use.
    pub fn parse(s: &str) -> ParamType {
        match s.strip_prefix("java.lang.").unwrap_or(s) {
            "String" => ParamType::Str,
            "Integer" => ParamType::Integer,
            "Long" => ParamType::Long,
            "Double" => ParamType::Double,
            "Boolean" => ParamType::Boolean,
            other => ParamType::Other(other.to_string()),
        }
    }

    /// The CNX short name.
    pub fn as_str(&self) -> &str {
        match self {
            ParamType::Str => "String",
            ParamType::Integer => "Integer",
            ParamType::Long => "Long",
            ParamType::Double => "Double",
            ParamType::Boolean => "Boolean",
            ParamType::Other(s) => s,
        }
    }
}

impl fmt::Display for ParamType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed task parameter.
#[derive(Debug, Clone, Eq)]
pub struct Param {
    pub ty: ParamType,
    pub value: String,
    /// Where the `<param>` element starts in the source (excluded from `==`).
    pub span: Span,
}

impl PartialEq for Param {
    fn eq(&self, other: &Self) -> bool {
        self.ty == other.ty && self.value == other.value
    }
}

impl Param {
    pub fn new(ty: ParamType, value: impl Into<String>) -> Self {
        Param { ty, value: value.into(), span: Span::synthetic() }
    }

    pub fn string(value: impl Into<String>) -> Self {
        Param::new(ParamType::Str, value)
    }

    pub fn integer(value: i64) -> Self {
        Param::new(ParamType::Integer, value.to_string())
    }
}

/// The `task-req` block: resource requirements the JobManager matches
/// against willing TaskManagers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskReq {
    /// Memory requirement in MB (`<memory>1000</memory>`).
    pub memory_mb: u64,
    pub runmodel: RunModel,
    /// Any additional requirement elements, preserved verbatim.
    pub extras: Vec<(String, String)>,
}

impl Default for TaskReq {
    fn default() -> Self {
        TaskReq { memory_mb: 1000, runmodel: RunModel::RunAsThreadInTm, extras: Vec::new() }
    }
}

/// One `<task>` element.
#[derive(Debug, Clone, Eq)]
pub struct Task {
    pub name: String,
    pub jar: String,
    pub class: String,
    /// Names of tasks this one depends on (`depends="tctask1,tctask2"`).
    pub depends: Vec<String>,
    pub req: TaskReq,
    pub params: Vec<Param>,
    /// Dynamic-invocation multiplicity (Figure 5 extension): when set, the
    /// runtime expands this task into N instances at execution time.
    pub multiplicity: Option<String>,
    /// Where the `<task>` element starts in the source (excluded from `==`).
    pub span: Span,
}

impl PartialEq for Task {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.jar == other.jar
            && self.class == other.class
            && self.depends == other.depends
            && self.req == other.req
            && self.params == other.params
            && self.multiplicity == other.multiplicity
    }
}

impl Task {
    pub fn new(name: impl Into<String>, jar: impl Into<String>, class: impl Into<String>) -> Self {
        Task {
            name: name.into(),
            jar: jar.into(),
            class: class.into(),
            depends: Vec::new(),
            req: TaskReq::default(),
            params: Vec::new(),
            multiplicity: None,
            span: Span::synthetic(),
        }
    }

    pub fn depends_on(mut self, deps: &[&str]) -> Self {
        self.depends = deps.iter().map(|s| s.to_string()).collect();
        self
    }

    pub fn with_param(mut self, p: Param) -> Self {
        self.params.push(p);
        self
    }
}

/// One `<job>` element — an ordered set of tasks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Job {
    pub tasks: Vec<Task>,
}

impl Job {
    pub fn task(&self, name: &str) -> Option<&Task> {
        self.tasks.iter().find(|t| t.name == name)
    }
}

/// The `<client>` element.
#[derive(Debug, Clone, Eq)]
pub struct Client {
    /// Generated client class name (`class="TransClosure"`).
    pub class: String,
    /// Log file name (`log="CN_Client....log"`).
    pub log: Option<String>,
    /// Client port.
    pub port: Option<u16>,
    pub jobs: Vec<Job>,
    /// Where the `<client>` element starts in the source (excluded from `==`).
    pub span: Span,
}

impl PartialEq for Client {
    fn eq(&self, other: &Self) -> bool {
        self.class == other.class
            && self.log == other.log
            && self.port == other.port
            && self.jobs == other.jobs
    }
}

impl Client {
    pub fn new(class: impl Into<String>) -> Self {
        Client {
            class: class.into(),
            log: None,
            port: None,
            jobs: Vec::new(),
            span: Span::synthetic(),
        }
    }
}

/// A complete `<cn2>` descriptor document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnxDocument {
    pub client: Client,
}

impl CnxDocument {
    pub fn new(client: Client) -> Self {
        CnxDocument { client }
    }

    /// Total number of tasks across all jobs.
    pub fn task_count(&self) -> usize {
        self.client.jobs.iter().map(|j| j.tasks.len()).sum()
    }
}

/// Build the descriptor of the paper's Figure 2: the transitive-closure
/// client with `workers` TCTask workers (the paper shows 5), a splitter and
/// a joiner.
///
/// Note: the paper's listing contains an apparent typo — `tctask1` is shown
/// with `depends="tctask1"` (itself). Every other worker depends on
/// `tctask0` (the splitter), so we generate the evidently intended
/// dependency. EXPERIMENTS.md records the deviation.
pub fn figure2_descriptor(workers: usize) -> CnxDocument {
    let mut job = Job::default();
    job.tasks.push(
        Task::new("tctask0", "tasksplit.jar", "org.jhpc.cn2.transcloser.TaskSplit")
            .with_param(Param::string("matrix.txt")),
    );
    for i in 1..=workers {
        job.tasks.push(
            Task::new(format!("tctask{i}"), "tctask.jar", "org.jhpc.cn2.trnsclsrtask.TCTask")
                .depends_on(&["tctask0"])
                .with_param(Param::integer(i as i64)),
        );
    }
    let worker_names: Vec<String> = (1..=workers).map(|i| format!("tctask{i}")).collect();
    let mut join = Task::new("tctask999", "taskjoin.jar", "org.jhpc.cn2.transcloser.TaskJoin")
        .with_param(Param::string("matrix.txt"));
    join.depends = worker_names;
    job.tasks.push(join);

    let mut client = Client::new("TransClosure");
    client.log = Some("CN_Client1047909210005.log".to_string());
    client.port = Some(5666);
    client.jobs.push(job);
    CnxDocument::new(client)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runmodel_roundtrip() {
        assert_eq!("RUN_AS_THREAD_IN_TM".parse::<RunModel>().unwrap(), RunModel::RunAsThreadInTm);
        assert_eq!("RUN_AS_PROCESS".parse::<RunModel>().unwrap(), RunModel::RunAsProcess);
        assert!("THREADS".parse::<RunModel>().is_err());
        assert_eq!(RunModel::RunAsThreadInTm.to_string(), "RUN_AS_THREAD_IN_TM");
    }

    #[test]
    fn param_type_normalizes_java_names() {
        assert_eq!(ParamType::parse("java.lang.Integer"), ParamType::Integer);
        assert_eq!(ParamType::parse("Integer"), ParamType::Integer);
        assert_eq!(ParamType::parse("java.lang.String"), ParamType::Str);
        assert_eq!(
            ParamType::parse("com.example.Custom"),
            ParamType::Other("com.example.Custom".into())
        );
    }

    #[test]
    fn figure2_shape() {
        let doc = figure2_descriptor(5);
        assert_eq!(doc.client.class, "TransClosure");
        assert_eq!(doc.client.port, Some(5666));
        assert_eq!(doc.task_count(), 7);
        let job = &doc.client.jobs[0];
        assert_eq!(job.task("tctask0").unwrap().depends.len(), 0);
        assert_eq!(job.task("tctask3").unwrap().depends, vec!["tctask0"]);
        let join = job.task("tctask999").unwrap();
        assert_eq!(join.depends.len(), 5);
        assert_eq!(join.class, "org.jhpc.cn2.transcloser.TaskJoin");
        assert_eq!(job.task("tctask2").unwrap().params[0], Param::integer(2));
    }

    #[test]
    fn default_req_matches_paper() {
        let req = TaskReq::default();
        assert_eq!(req.memory_mb, 1000);
        assert_eq!(req.runmodel, RunModel::RunAsThreadInTm);
    }
}
