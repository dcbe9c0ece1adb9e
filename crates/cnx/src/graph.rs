//! Dependency-graph analytics over a CNX job.
//!
//! "a computational job typically consists of one or more concurrent tasks
//! whose dependencies form a directed acyclic graph" (paper Section 4). The
//! CN runtime schedules by this DAG: a task may start once everything in its
//! `depends` list has terminated. [`DependencyGraph`] exposes the orderings
//! the scheduler and the analytics need.

use std::collections::HashMap;
use std::fmt;

use crate::ast::Job;

/// Graph construction/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    UnknownDependency { task: String, depends_on: String },
    Cycle(Vec<String>),
    DuplicateTask(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownDependency { task, depends_on } => {
                write!(f, "task {task:?} depends on unknown task {depends_on:?}")
            }
            GraphError::Cycle(names) => write!(f, "dependency cycle: {}", names.join(" -> ")),
            GraphError::DuplicateTask(name) => write!(f, "duplicate task name {name:?}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable dependency DAG over task indices.
#[derive(Debug, Clone)]
pub struct DependencyGraph {
    names: Vec<String>,
    /// `deps[i]` = indices task `i` depends on.
    deps: Vec<Vec<usize>>,
    /// `rdeps[i]` = indices that depend on task `i`.
    rdeps: Vec<Vec<usize>>,
}

impl DependencyGraph {
    /// Build from a job, validating name resolution and acyclicity.
    pub fn build(job: &Job) -> Result<DependencyGraph, GraphError> {
        let mut index: HashMap<&str, usize> = HashMap::with_capacity(job.tasks.len());
        for (i, t) in job.tasks.iter().enumerate() {
            if index.insert(t.name.as_str(), i).is_some() {
                return Err(GraphError::DuplicateTask(t.name.clone()));
            }
        }
        let mut deps = vec![Vec::new(); job.tasks.len()];
        let mut rdeps = vec![Vec::new(); job.tasks.len()];
        for (i, t) in job.tasks.iter().enumerate() {
            for d in &t.depends {
                let &j = index.get(d.as_str()).ok_or_else(|| GraphError::UnknownDependency {
                    task: t.name.clone(),
                    depends_on: d.clone(),
                })?;
                deps[i].push(j);
                rdeps[j].push(i);
            }
        }
        let g = DependencyGraph {
            names: job.tasks.iter().map(|t| t.name.clone()).collect(),
            deps,
            rdeps,
        };
        if let Some(cycle) = g.find_cycle() {
            return Err(GraphError::Cycle(cycle));
        }
        Ok(g)
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    pub fn dependencies(&self, i: usize) -> &[usize] {
        &self.deps[i]
    }

    /// Tasks with no dependencies (runnable immediately).
    fn roots(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.deps[i].is_empty()).collect()
    }

    /// Kahn topological order (stable: ties broken by task index).
    pub fn topological_order(&self) -> Vec<usize> {
        let mut indegree: Vec<usize> = self.deps.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = self.roots();
        ready.sort_unstable();
        let mut order = Vec::with_capacity(self.len());
        // `ready` kept sorted by draining from the front.
        let mut at = 0;
        while at < ready.len() {
            let n = ready[at];
            at += 1;
            order.push(n);
            let mut newly: Vec<usize> = Vec::new();
            for &m in &self.rdeps[n] {
                indegree[m] -= 1;
                if indegree[m] == 0 {
                    newly.push(m);
                }
            }
            newly.sort_unstable();
            ready.extend(newly);
        }
        order
    }

    /// Execution waves: wave k contains tasks whose longest dependency chain
    /// has length k. All tasks in a wave can run concurrently — this is the
    /// fork/join structure the activity diagram draws.
    pub fn waves(&self) -> Vec<Vec<usize>> {
        let order = self.topological_order();
        let mut level = vec![0usize; self.len()];
        for &i in &order {
            level[i] = self.deps[i].iter().map(|&d| level[d] + 1).max().unwrap_or(0);
        }
        let max_level = level.iter().copied().max().unwrap_or(0);
        let mut waves = vec![Vec::new(); max_level + 1];
        for (i, &l) in level.iter().enumerate() {
            waves[l].push(i);
        }
        if self.is_empty() {
            waves.clear();
        }
        waves
    }

    /// Length (in tasks) of the longest dependency chain — the critical
    /// path, i.e. the minimum number of sequential steps.
    pub fn critical_path_len(&self) -> usize {
        self.waves().len()
    }

    /// The widest wave — the maximum achievable parallelism.
    pub fn max_parallelism(&self) -> usize {
        self.waves().iter().map(Vec::len).max().unwrap_or(0)
    }

    fn find_cycle(&self) -> Option<Vec<String>> {
        // Shared deterministic cycle search: the smallest cycle (in the
        // `depends` direction) is reported first, so cnx and model
        // diagnostics agree on the same culprit.
        let cycle = cn_graph::shortest_cycle(&self.deps)?;
        Some(cycle.into_iter().map(|i| self.names[i].clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{figure2_descriptor, Job, Task};

    fn job(specs: &[(&str, &[&str])]) -> Job {
        let mut job = Job::default();
        for (name, deps) in specs {
            job.tasks.push(Task::new(*name, "j.jar", "K").depends_on(deps));
        }
        job
    }

    #[test]
    fn figure2_graph_analytics() {
        let doc = figure2_descriptor(5);
        let g = DependencyGraph::build(&doc.client.jobs[0]).unwrap();
        assert_eq!(g.len(), 7);
        assert_eq!(g.roots(), vec![0]); // the splitter
        let waves = g.waves();
        assert_eq!(waves.len(), 3); // split | workers | join
        assert_eq!(waves[0].len(), 1);
        assert_eq!(waves[1].len(), 5);
        assert_eq!(waves[2].len(), 1);
        assert_eq!(g.critical_path_len(), 3);
        assert_eq!(g.max_parallelism(), 5);
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let g = DependencyGraph::build(&job(&[
            ("d", &["b", "c"]),
            ("b", &["a"]),
            ("c", &["a"]),
            ("a", &[]),
        ]))
        .unwrap();
        let order = g.topological_order();
        let pos = |name: &str| order.iter().position(|&i| g.name(i) == name).unwrap();
        assert!(pos("a") < pos("b"));
        assert!(pos("a") < pos("c"));
        assert!(pos("b") < pos("d"));
        assert!(pos("c") < pos("d"));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn unknown_dependency_rejected() {
        let err = DependencyGraph::build(&job(&[("a", &["ghost"])])).unwrap_err();
        assert!(matches!(err, GraphError::UnknownDependency { .. }));
    }

    #[test]
    fn self_dependency_is_a_cycle() {
        // The paper's Figure 2 literally prints `tctask1 depends="tctask1"`;
        // our validator classifies that as a cycle (see EXPERIMENTS.md).
        let err = DependencyGraph::build(&job(&[("tctask1", &["tctask1"])])).unwrap_err();
        assert!(matches!(err, GraphError::Cycle(_)));
    }

    #[test]
    fn longer_cycle_detected_with_path() {
        let err = DependencyGraph::build(&job(&[("a", &["c"]), ("b", &["a"]), ("c", &["b"])]))
            .unwrap_err();
        match err {
            GraphError::Cycle(names) => {
                assert!(names.len() >= 3);
                assert_eq!(names.first(), names.last());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn smallest_cycle_reported_first() {
        // A 3-cycle (a,b,c) plus a 2-cycle (x,y): diagnostics must name the
        // 2-cycle, and deterministically so.
        let spec: &[(&str, &[&str])] =
            &[("a", &["c"]), ("b", &["a"]), ("c", &["b"]), ("x", &["y"]), ("y", &["x"])];
        let err = DependencyGraph::build(&job(spec)).unwrap_err();
        match err {
            GraphError::Cycle(names) => {
                assert_eq!(names, vec!["x", "y", "x"]);
            }
            other => panic!("{other:?}"),
        }
        let first = DependencyGraph::build(&job(spec)).unwrap_err();
        for _ in 0..5 {
            assert_eq!(DependencyGraph::build(&job(spec)).unwrap_err(), first);
        }
    }

    #[test]
    fn duplicate_task_rejected() {
        let err = DependencyGraph::build(&job(&[("a", &[]), ("a", &[])])).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateTask(_)));
    }

    #[test]
    fn diamond_waves() {
        let g = DependencyGraph::build(&job(&[
            ("a", &[]),
            ("b", &["a"]),
            ("c", &["a"]),
            ("d", &["b", "c"]),
        ]))
        .unwrap();
        let waves = g.waves();
        assert_eq!(waves.len(), 3);
        assert_eq!(waves[1].len(), 2);
        assert_eq!(g.max_parallelism(), 2);
    }

    #[test]
    fn chain_has_no_parallelism() {
        let g = DependencyGraph::build(&job(&[("a", &[]), ("b", &["a"]), ("c", &["b"])])).unwrap();
        assert_eq!(g.critical_path_len(), 3);
        assert_eq!(g.max_parallelism(), 1);
    }

    #[test]
    fn empty_job() {
        let g = DependencyGraph::build(&Job::default()).unwrap();
        assert!(g.is_empty());
        assert!(g.waves().is_empty());
        assert_eq!(g.critical_path_len(), 0);
    }

    #[test]
    fn independent_tasks_form_one_wave() {
        let g = DependencyGraph::build(&job(&[("a", &[]), ("b", &[]), ("c", &[])])).unwrap();
        assert_eq!(g.waves(), vec![vec![0, 1, 2]]);
        assert_eq!(g.max_parallelism(), 3);
    }
}
