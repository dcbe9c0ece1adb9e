//! Model-run vocabulary: the types a model-check run produces.
//!
//! Downstream crates (`cn-check`, `cn-analysis`, `cnctl`) name schedule
//! traces, hazards, and lock-order graphs with these. Everything here renders
//! deterministically: no addresses, no wall-clock timestamps, canonical
//! orderings throughout, so the same seed always yields the same bytes.

use std::collections::BTreeSet;
use std::fmt;

/// One scheduler-visible operation in a schedule trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    TaskStart,
    TaskEnd,
    Spawn,
    Join,
    LockAcquire,
    LockRelease,
    CvWait,
    CvNotifyOne,
    CvNotifyAll,
    ChanSend,
    ChanRecv,
    ChanDisconnect,
    TimeoutEscape,
}

impl Op {
    pub fn as_str(self) -> &'static str {
        match self {
            Op::TaskStart => "task-start",
            Op::TaskEnd => "task-end",
            Op::Spawn => "spawn",
            Op::Join => "join",
            Op::LockAcquire => "lock-acquire",
            Op::LockRelease => "lock-release",
            Op::CvWait => "cv-wait",
            Op::CvNotifyOne => "cv-notify-one",
            Op::CvNotifyAll => "cv-notify-all",
            Op::ChanSend => "chan-send",
            Op::ChanRecv => "chan-recv",
            Op::ChanDisconnect => "chan-disconnect",
            Op::TimeoutEscape => "timeout-escape",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One entry in a schedule trace: task `task` performed `op` on `subject`
/// (a lock/condvar/channel name) at scheduler step `step`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    pub step: u64,
    pub task: u32,
    pub op: Op,
    pub subject: String,
}

impl Event {
    /// One deterministic JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"step\":{},\"task\":{},\"op\":\"{}\",\"subject\":\"{}\"}}",
            self.step,
            self.task,
            self.op,
            json_escape(&self.subject)
        )
    }
}

/// What kind of concurrency defect a model run surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HazardKind {
    /// Every live task is blocked and no timed wait can fire.
    Deadlock,
    /// A task acquired a non-reentrant lock it already holds.
    DoubleLock,
    /// The merged lock-order graph contains a cycle.
    LockOrderCycle,
    /// A condvar wait was entered while holding an unrelated lock.
    CondvarWhileHolding,
    /// A blocked timed wait had to be force-fired to make progress — a
    /// wakeup the code should have delivered never arrived.
    LostNotify,
    /// Scenario code panicked (an assertion observed a broken invariant)
    /// under some interleaving.
    AssertionFailed,
    /// The schedule exceeded the step budget — a livelock or an unbounded
    /// retry loop.
    StepLimit,
}

impl HazardKind {
    pub fn as_str(self) -> &'static str {
        match self {
            HazardKind::Deadlock => "deadlock",
            HazardKind::DoubleLock => "double-lock",
            HazardKind::LockOrderCycle => "lock-order-cycle",
            HazardKind::CondvarWhileHolding => "condvar-while-holding",
            HazardKind::LostNotify => "lost-notify",
            HazardKind::AssertionFailed => "assertion-failed",
            HazardKind::StepLimit => "step-limit",
        }
    }
}

impl fmt::Display for HazardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A concurrency defect, with the subjects (lock/task names) involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hazard {
    pub kind: HazardKind,
    pub message: String,
    pub subjects: Vec<String>,
}

impl Hazard {
    pub fn new(kind: HazardKind, message: impl Into<String>) -> Hazard {
        Hazard { kind, message: message.into(), subjects: Vec::new() }
    }

    pub fn with_subjects(mut self, subjects: impl IntoIterator<Item = String>) -> Hazard {
        self.subjects.extend(subjects);
        self
    }
}

/// A replayable witness for a hazard: the seed and explicit schedule that
/// produced it, plus the full event trace of the failing schedule.
///
/// `schedule` lists, for every scheduling decision that had more than one
/// runnable task, the index chosen within the ascending-id runnable set.
/// Replaying those choices (strategy `Replay`) reproduces the trace
/// byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counterexample {
    pub seed: u64,
    pub schedule: Vec<u32>,
    pub trace: Vec<Event>,
}

impl Counterexample {
    /// The trace as deterministic JSONL (one event object per line).
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.trace {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// The schedule as a compact comma-separated string (`"0,1,1,0"`).
    pub fn schedule_string(&self) -> String {
        let items: Vec<String> = self.schedule.iter().map(|c| c.to_string()).collect();
        items.join(",")
    }
}

/// The runtime's lock-order graph: a node per lock *name class*, an edge
/// `a -> b` whenever some task acquired `b` while holding `a`.
///
/// Canonical by construction — nodes are sorted and deduplicated, edges are
/// sorted index pairs — so two graphs built from the same edge set in any
/// order compare equal and render identically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LockOrderGraph {
    nodes: Vec<String>,
    edges: Vec<(usize, usize)>,
}

impl LockOrderGraph {
    /// Build the canonical graph from `(held, acquired)` name pairs.
    pub fn from_edges<I>(edges: I) -> LockOrderGraph
    where
        I: IntoIterator<Item = (String, String)>,
    {
        let edge_set: BTreeSet<(String, String)> = edges.into_iter().collect();
        let mut nodes: BTreeSet<String> = BTreeSet::new();
        for (a, b) in &edge_set {
            nodes.insert(a.clone());
            nodes.insert(b.clone());
        }
        let nodes: Vec<String> = nodes.into_iter().collect();
        let index = |name: &str| nodes.binary_search_by(|n| n.as_str().cmp(name)).unwrap();
        let edges: Vec<(usize, usize)> =
            edge_set.iter().map(|(a, b)| (index(a), index(b))).collect();
        LockOrderGraph { nodes, edges }
    }

    /// Union of two canonical graphs, itself canonical.
    pub fn merge(&self, other: &LockOrderGraph) -> LockOrderGraph {
        LockOrderGraph::from_edges(
            self.edges_named()
                .into_iter()
                .chain(other.edges_named())
                .map(|(a, b)| (a.to_string(), b.to_string())),
        )
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    pub fn edges_named(&self) -> Vec<(&str, &str)> {
        self.edges.iter().map(|&(a, b)| (self.nodes[a].as_str(), self.nodes[b].as_str())).collect()
    }

    /// Strongly connected components with more than one node, plus
    /// self-loops — i.e. the lock-order cycles. Each cycle's nodes are
    /// sorted and the cycle list itself is sorted, so output is stable.
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let n = self.nodes.len();
        let mut fwd = vec![Vec::new(); n];
        let mut rev = vec![Vec::new(); n];
        let mut self_loop = vec![false; n];
        for &(a, b) in &self.edges {
            if a == b {
                self_loop[a] = true;
            } else {
                fwd[a].push(b);
                rev[b].push(a);
            }
        }
        // Kosaraju: order by forward-DFS finish time, then reverse-DFS.
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for start in 0..n {
            if seen[start] {
                continue;
            }
            // Iterative DFS recording finish order.
            let mut stack = vec![(start, 0usize)];
            seen[start] = true;
            while let Some(&mut (v, ref mut i)) = stack.last_mut() {
                if *i < fwd[v].len() {
                    let w = fwd[v][*i];
                    *i += 1;
                    if !seen[w] {
                        seen[w] = true;
                        stack.push((w, 0));
                    }
                } else {
                    order.push(v);
                    stack.pop();
                }
            }
        }
        let mut comp = vec![usize::MAX; n];
        let mut ncomp = 0;
        for &start in order.iter().rev() {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            comp[start] = ncomp;
            while let Some(v) = stack.pop() {
                for &w in &rev[v] {
                    if comp[w] == usize::MAX {
                        comp[w] = ncomp;
                        stack.push(w);
                    }
                }
            }
            ncomp += 1;
        }
        let mut groups: Vec<Vec<String>> = vec![Vec::new(); ncomp];
        for v in 0..n {
            groups[comp[v]].push(self.nodes[v].clone());
        }
        let mut cycles: Vec<Vec<String>> = groups
            .into_iter()
            .enumerate()
            .filter_map(|(c, mut g)| {
                let cyclic = g.len() > 1
                    || (g.len() == 1 && {
                        let v = (0..n).find(|&v| comp[v] == c).unwrap();
                        self_loop[v]
                    });
                if cyclic {
                    g.sort();
                    Some(g)
                } else {
                    None
                }
            })
            .collect();
        cycles.sort();
        cycles
    }
}

/// Everything a model run (one scenario, one strategy) produced.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Scenario name (as registered with the explorer).
    pub scenario: String,
    /// Number of schedules executed.
    pub schedules: u64,
    /// Total scheduler steps across all schedules.
    pub steps: u64,
    /// Defects found. Empty means the scenario survived exploration.
    pub hazards: Vec<Hazard>,
    /// Lock-order graph merged over every schedule run.
    pub lock_graph: LockOrderGraph,
    /// Timed waits that had to be force-fired to escape global quiescence.
    /// Non-zero in a scenario that expects none indicates a lost wakeup.
    pub timeout_escapes: u64,
    /// `(condvar, other held lock)` pairs observed at wait time: the task
    /// entered a condvar wait while still holding an unrelated lock.
    pub cv_wait_holding: Vec<(String, String)>,
    /// Replayable witness for the first hazard that aborted exploration.
    pub counterexample: Option<Counterexample>,
}

impl RunReport {
    pub fn failed(&self) -> bool {
        !self.hazards.is_empty()
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_is_deterministic() {
        let e = Event { step: 3, task: 1, op: Op::LockAcquire, subject: "wire.conns".into() };
        assert_eq!(
            e.to_json(),
            "{\"step\":3,\"task\":1,\"op\":\"lock-acquire\",\"subject\":\"wire.conns\"}"
        );
    }

    #[test]
    fn lock_graph_is_order_insensitive() {
        let a = LockOrderGraph::from_edges(vec![
            ("a".to_string(), "b".to_string()),
            ("b".to_string(), "c".to_string()),
        ]);
        let b = LockOrderGraph::from_edges(vec![
            ("b".to_string(), "c".to_string()),
            ("a".to_string(), "b".to_string()),
            ("a".to_string(), "b".to_string()),
        ]);
        assert_eq!(a, b);
        assert!(a.cycles().is_empty());
    }

    #[test]
    fn lock_graph_finds_cycles() {
        let g = LockOrderGraph::from_edges(vec![
            ("a".to_string(), "b".to_string()),
            ("b".to_string(), "a".to_string()),
            ("c".to_string(), "c".to_string()),
            ("d".to_string(), "e".to_string()),
        ]);
        assert_eq!(g.cycles(), vec![vec!["a".to_string(), "b".to_string()], vec!["c".to_string()]]);
    }

    #[test]
    fn merge_unions_edges() {
        let a = LockOrderGraph::from_edges(vec![("a".to_string(), "b".to_string())]);
        let b = LockOrderGraph::from_edges(vec![("b".to_string(), "a".to_string())]);
        let m = a.merge(&b);
        assert_eq!(m.cycles(), vec![vec!["a".to_string(), "b".to_string()]]);
    }

    #[test]
    fn counterexample_renders_jsonl() {
        let cex = Counterexample {
            seed: 7,
            schedule: vec![0, 1, 1],
            trace: vec![Event { step: 1, task: 0, op: Op::Spawn, subject: "task-1".into() }],
        };
        assert_eq!(cex.schedule_string(), "0,1,1");
        assert!(cex.trace_jsonl().ends_with("}\n"));
        assert_eq!(cex.trace_jsonl(), cex.trace_jsonl());
    }
}
