//! Virtual cluster nodes with resource accounting.
//!
//! A node stands in for one machine running a CNServer. Its resources are
//! what the paper's JobManager matches `task-req` blocks against: memory
//! (MB) and task slots (threads the TaskManager is willing to run).

use std::fmt;
use std::sync::Arc;

use cn_sync::Mutex;

/// Static description of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    pub name: String,
    pub memory_mb: u64,
    pub task_slots: usize,
    /// Relative CPU speed in percent of nominal (100 = a normal node).
    /// Simulated workloads scale their compute cost by [`NodeHandle::
    /// work_scale`], so a `speed_pct: 25` node takes 4x as long per task —
    /// the straggler the load-aware scheduler exists for.
    /// Stored as an integer permille-style percentage so `NodeSpec` stays
    /// `Eq`/hashable.
    pub speed_pct: u32,
}

impl NodeSpec {
    pub fn new(name: impl Into<String>, memory_mb: u64, task_slots: usize) -> Self {
        NodeSpec { name: name.into(), memory_mb, task_slots, speed_pct: 100 }
    }

    /// Set the relative speed (percent of nominal; clamped to ≥ 1).
    pub fn with_speed_pct(mut self, speed_pct: u32) -> Self {
        self.speed_pct = speed_pct.max(1);
        self
    }

    /// A uniform fleet of `n` nodes (`node0`, `node1`, ...).
    pub fn fleet(n: usize, memory_mb: u64, task_slots: usize) -> Vec<NodeSpec> {
        (0..n).map(|i| NodeSpec::new(format!("node{i}"), memory_mb, task_slots)).collect()
    }

    /// A fleet with per-node speeds (`speeds[i]` in percent of nominal) —
    /// the skewed-node scenario of the contention benchmark.
    pub fn fleet_skewed(memory_mb: u64, task_slots: usize, speeds: &[u32]) -> Vec<NodeSpec> {
        speeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                NodeSpec::new(format!("node{i}"), memory_mb, task_slots).with_speed_pct(s)
            })
            .collect()
    }
}

/// Aggregate capacity of a cluster, used by static analysis (the
/// `cn-analysis` lint passes) to check a descriptor's declared requirements
/// against what the fleet can actually provide — before anything deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterCapacity {
    /// Number of nodes in the fleet.
    pub nodes: usize,
    /// Largest single-node memory — no task can ever need more than this.
    pub max_node_memory_mb: u64,
    /// Sum of node memories — an upper bound on concurrently resident tasks.
    pub total_memory_mb: u64,
    /// Sum of task slots — an upper bound on concurrently running tasks.
    pub total_slots: usize,
}

impl ClusterCapacity {
    /// Capacity of a uniform fleet (every node identical).
    pub fn uniform(nodes: usize, memory_mb: u64, task_slots: usize) -> Self {
        ClusterCapacity {
            nodes,
            max_node_memory_mb: if nodes == 0 { 0 } else { memory_mb },
            total_memory_mb: memory_mb * nodes as u64,
            total_slots: task_slots * nodes,
        }
    }

    /// Capacity of an arbitrary fleet.
    pub fn of(specs: &[NodeSpec]) -> Self {
        ClusterCapacity {
            nodes: specs.len(),
            max_node_memory_mb: specs.iter().map(|s| s.memory_mb).max().unwrap_or(0),
            total_memory_mb: specs.iter().map(|s| s.memory_mb).sum(),
            total_slots: specs.iter().map(|s| s.task_slots).sum(),
        }
    }
}

/// Why a reservation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReserveError {
    InsufficientMemory { requested_mb: u64, free_mb: u64 },
    NoFreeSlots,
    NodeDown,
}

impl fmt::Display for ReserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReserveError::InsufficientMemory { requested_mb, free_mb } => {
                write!(f, "insufficient memory: requested {requested_mb} MB, {free_mb} MB free")
            }
            ReserveError::NoFreeSlots => write!(f, "no free task slots"),
            ReserveError::NodeDown => write!(f, "node is down"),
        }
    }
}

impl std::error::Error for ReserveError {}

#[derive(Debug)]
struct NodeState {
    used_memory_mb: u64,
    used_slots: usize,
    alive: bool,
}

/// A shareable handle to a node's live resource state.
#[derive(Debug, Clone)]
pub struct NodeHandle {
    spec: Arc<NodeSpec>,
    state: Arc<Mutex<NodeState>>,
}

/// RAII resource reservation: releasing happens on drop.
#[derive(Debug)]
pub struct Reservation {
    node: NodeHandle,
    memory_mb: u64,
    released: bool,
}

impl NodeHandle {
    pub fn new(spec: NodeSpec) -> Self {
        NodeHandle {
            spec: Arc::new(spec),
            state: Arc::new(Mutex::named(
                "node.state",
                NodeState { used_memory_mb: 0, used_slots: 0, alive: true },
            )),
        }
    }

    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    pub fn name(&self) -> &str {
        &self.spec.name
    }

    pub fn is_alive(&self) -> bool {
        self.state.lock().alive
    }

    /// Take the node down (failure injection). Existing reservations stay
    /// accounted; new reservations fail.
    pub fn crash(&self) {
        self.state.lock().alive = false;
    }

    /// Bring the node back.
    pub fn restart(&self) {
        let mut st = self.state.lock();
        st.alive = true;
        st.used_memory_mb = 0;
        st.used_slots = 0;
    }

    pub fn free_memory_mb(&self) -> u64 {
        let st = self.state.lock();
        self.spec.memory_mb.saturating_sub(st.used_memory_mb)
    }

    pub fn free_slots(&self) -> usize {
        let st = self.state.lock();
        self.spec.task_slots.saturating_sub(st.used_slots)
    }

    /// Can this node host a task with the given memory requirement right
    /// now? (The "willing TaskManager" check of the paper.)
    pub fn can_host(&self, memory_mb: u64) -> bool {
        let st = self.state.lock();
        st.alive
            && st.used_slots < self.spec.task_slots
            && st.used_memory_mb + memory_mb <= self.spec.memory_mb
    }

    /// Atomically reserve one slot plus `memory_mb` of memory.
    pub fn reserve(&self, memory_mb: u64) -> Result<Reservation, ReserveError> {
        let mut st = self.state.lock();
        if !st.alive {
            return Err(ReserveError::NodeDown);
        }
        if st.used_slots >= self.spec.task_slots {
            return Err(ReserveError::NoFreeSlots);
        }
        if st.used_memory_mb + memory_mb > self.spec.memory_mb {
            return Err(ReserveError::InsufficientMemory {
                requested_mb: memory_mb,
                free_mb: self.spec.memory_mb - st.used_memory_mb,
            });
        }
        st.used_memory_mb += memory_mb;
        st.used_slots += 1;
        Ok(Reservation { node: self.clone(), memory_mb, released: false })
    }

    /// Multiplier a simulated workload applies to its compute cost on this
    /// node: 1.0 at nominal speed, 4.0 on a `speed_pct: 25` straggler.
    pub fn work_scale(&self) -> f64 {
        100.0 / f64::from(self.spec.speed_pct.max(1))
    }

    /// Load factor in [0, 1]: the fraction of slots in use. JobManager
    /// selection prefers lower load.
    pub fn load(&self) -> f64 {
        if self.spec.task_slots == 0 {
            return 1.0;
        }
        self.state.lock().used_slots as f64 / self.spec.task_slots as f64
    }
}

impl Reservation {
    /// Release early (otherwise drop does it).
    pub fn release(mut self) {
        self.do_release();
    }

    fn do_release(&mut self) {
        if self.released {
            return;
        }
        self.released = true;
        let mut st = self.node.state.lock();
        st.used_memory_mb = st.used_memory_mb.saturating_sub(self.memory_mb);
        st.used_slots = st.used_slots.saturating_sub(1);
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.do_release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let node = NodeHandle::new(NodeSpec::new("n0", 2000, 2));
        assert_eq!(node.free_memory_mb(), 2000);
        let r1 = node.reserve(1000).unwrap();
        assert_eq!(node.free_memory_mb(), 1000);
        assert_eq!(node.free_slots(), 1);
        let r2 = node.reserve(500).unwrap();
        assert_eq!(node.free_slots(), 0);
        assert!(matches!(node.reserve(100), Err(ReserveError::NoFreeSlots)));
        drop(r1);
        assert_eq!(node.free_slots(), 1);
        assert_eq!(node.free_memory_mb(), 1500);
        r2.release();
        assert_eq!(node.free_memory_mb(), 2000);
    }

    #[test]
    fn memory_exhaustion() {
        let node = NodeHandle::new(NodeSpec::new("n0", 1000, 8));
        let _r = node.reserve(800).unwrap();
        match node.reserve(500) {
            Err(ReserveError::InsufficientMemory { requested_mb: 500, free_mb: 200 }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crash_and_restart() {
        let node = NodeHandle::new(NodeSpec::new("n0", 1000, 1));
        let _r = node.reserve(100).unwrap();
        node.crash();
        assert!(!node.is_alive());
        assert!(matches!(node.reserve(1), Err(ReserveError::NodeDown)));
        node.restart();
        assert!(node.is_alive());
        assert_eq!(node.free_slots(), 1);
        assert_eq!(node.free_memory_mb(), 1000);
    }

    #[test]
    fn can_host_matches_reserve() {
        let node = NodeHandle::new(NodeSpec::new("n0", 1000, 1));
        assert!(node.can_host(1000));
        assert!(!node.can_host(1001));
        let _r = node.reserve(1000).unwrap();
        assert!(!node.can_host(1));
    }

    #[test]
    fn load_factor() {
        let node = NodeHandle::new(NodeSpec::new("n0", 4000, 4));
        assert_eq!(node.load(), 0.0);
        let _r1 = node.reserve(100).unwrap();
        let _r2 = node.reserve(100).unwrap();
        assert_eq!(node.load(), 0.5);
    }

    #[test]
    fn fleet_builder() {
        let fleet = NodeSpec::fleet(3, 1024, 2);
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet[2].name, "node2");
        assert_eq!(fleet[0].memory_mb, 1024);
        assert_eq!(fleet[0].speed_pct, 100);
    }

    #[test]
    fn skewed_fleet_scales_work() {
        let fleet = NodeSpec::fleet_skewed(1024, 2, &[100, 100, 25]);
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet[2].speed_pct, 25);
        let fast = NodeHandle::new(fleet[0].clone());
        let slow = NodeHandle::new(fleet[2].clone());
        assert_eq!(fast.work_scale(), 1.0);
        assert_eq!(slow.work_scale(), 4.0);
        // Zero speed clamps instead of dividing by zero.
        let n = NodeHandle::new(NodeSpec::new("z", 1, 1).with_speed_pct(0));
        assert_eq!(n.spec().speed_pct, 1);
        assert_eq!(n.work_scale(), 100.0);
    }

    #[test]
    fn capacity_of_uniform_fleet() {
        let cap = ClusterCapacity::uniform(4, 2048, 2);
        assert_eq!(cap.nodes, 4);
        assert_eq!(cap.max_node_memory_mb, 2048);
        assert_eq!(cap.total_memory_mb, 8192);
        assert_eq!(cap.total_slots, 8);
        assert_eq!(ClusterCapacity::uniform(0, 2048, 2).max_node_memory_mb, 0);
    }

    #[test]
    fn capacity_of_mixed_fleet() {
        let specs = vec![NodeSpec::new("big", 8000, 4), NodeSpec::new("small", 1000, 1)];
        let cap = ClusterCapacity::of(&specs);
        assert_eq!(cap.nodes, 2);
        assert_eq!(cap.max_node_memory_mb, 8000);
        assert_eq!(cap.total_memory_mb, 9000);
        assert_eq!(cap.total_slots, 5);
        assert_eq!(
            ClusterCapacity::of(&NodeSpec::fleet(3, 1024, 2)),
            ClusterCapacity::uniform(3, 1024, 2)
        );
        assert_eq!(ClusterCapacity::of(&[]).nodes, 0);
    }

    #[test]
    fn handles_share_state() {
        let node = NodeHandle::new(NodeSpec::new("n0", 1000, 1));
        let clone = node.clone();
        let _r = node.reserve(500).unwrap();
        assert_eq!(clone.free_memory_mb(), 500);
    }
}
