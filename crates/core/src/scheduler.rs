//! Bid-selection rules, load signals, and fair queuing.
//!
//! Two selections happen in CN: the client picks a **JobManager** "based on
//! User specified Job requirements from the list of willing JobManagers",
//! and a JobManager picks a **TaskManager** for each task from the willing
//! bidders. The client always takes the [`least_loaded`] bid; a JobManager
//! takes its server's [`Policy`], whose one dispatch is [`Policy::choose`].
//! [`LoadSignal`] is the live per-TaskManager load vector piggybacked on
//! every bid, which [`Policy::LoadAware`] ranks on (DESIGN.md §14), and
//! [`FairQueue`] is the deficit-round-robin admission queue that keeps N
//! concurrent clients from starving each other.

use std::collections::{HashMap, VecDeque};

use crate::message::Bid;

/// How a JobManager chooses among willing TaskManager bidders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Lowest load factor; ties broken by more free memory, then by name
    /// (deterministic). The product rule.
    #[default]
    LeastLoaded,
    /// Rotate through bidders (stateful; see [`RoundRobin`]).
    RoundRobin,
    /// Weight bids by the live [`LoadSignal`] each bidder reports (queue
    /// depth, in-flight count, EWMA dispatch latency). When every bidder's
    /// quantized score ties, selection degrades to the round-robin rotation
    /// — which is what makes uniform-load runs byte-identical to
    /// [`Policy::RoundRobin`] in the journal.
    LoadAware,
}

impl Policy {
    /// The bid this rule picks from `bids`, `None` when there is none. `rr`
    /// is the server's rotation: `RoundRobin` advances it, and `LoadAware`
    /// shares it so a uniformly loaded neighborhood places identically to
    /// `RoundRobin` (the journal-differential property).
    pub fn choose<'a>(self, rr: &mut RoundRobin, bids: &'a [Bid]) -> Option<&'a Bid> {
        match self {
            Policy::LeastLoaded => least_loaded(bids),
            Policy::RoundRobin => rr.select(bids),
            Policy::LoadAware => select_load_aware(rr, bids),
        }
    }
}

/// Live load vector a TaskManager reports: sampled into every bid it makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadSignal {
    /// Assigned-and-started tasks waiting in the TM run queue for an
    /// execution slot.
    pub queue_depth: u32,
    /// Task threads currently executing.
    pub in_flight: u32,
    /// EWMA of enqueue→launch latency in microseconds (see [`Ewma`]).
    pub ewma_dispatch_us: u64,
}

impl LoadSignal {
    /// Quantized scalar used to rank bidders: queued work dominates,
    /// running work next, dispatch latency (whole milliseconds) last.
    /// Quantizing the latency term keeps sub-millisecond jitter from
    /// breaking score ties on otherwise-idle uniform clusters.
    pub fn score(&self) -> u64 {
        u64::from(self.queue_depth) * 1_000_000
            + u64::from(self.in_flight) * 10_000
            + self.ewma_dispatch_us / 1_000
    }
}

/// Integer exponential weighted moving average (α = 1/8), the classic
/// TCP-RTT smoother. Tracks dispatch latency without floats so scores stay
/// exactly reproducible across runs and architectures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ewma {
    value: u64,
    seeded: bool,
}

impl Ewma {
    pub fn observe(&mut self, sample: u64) {
        if self.seeded {
            self.value = self.value - self.value / 8 + sample / 8;
        } else {
            self.value = sample;
            self.seeded = true;
        }
    }

    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A placement round keeps the bids of its one solicitation as a table and
/// places every task of the round against it: after each choice the
/// JobManager books the task on the chosen entry itself, so the next choice
/// sees what a fresh auction on a quiescent cluster would have seen.
impl Bid {
    /// Whether this bidder, as last heard from and less what the round has
    /// booked on it since, still has a slot and `memory_mb` to spare — the
    /// TaskManager's own willingness check on its node.
    pub fn can_host(&self, memory_mb: u64) -> bool {
        self.free_slots > 0 && self.free_memory_mb >= memory_mb
    }

    /// Book one task of `memory_mb` on this entry: one slot, the memory, and
    /// `load` as the node would report it next. A bid carries the free slot
    /// count and `load = used / total` but not the total; `free / (1 − load)`
    /// gives it back — exactly, once rounded, for any slot count a node has
    /// (unit-tested to 64) — so `Bid` keeps its wire form.
    pub fn debit(&mut self, memory_mb: u64) {
        let total = (self.free_slots as f64 / (1.0 - self.load)).round();
        self.free_slots = self.free_slots.saturating_sub(1);
        self.free_memory_mb = self.free_memory_mb.saturating_sub(memory_mb);
        // A bid that claims free slots at load ≥ 1 has no total to recover;
        // its load stays what it said.
        if total.is_finite() && total >= 1.0 {
            self.load = (total - self.free_slots as f64) / total;
        }
    }
}

/// The bid with the lowest load factor; ties go to more free memory, then
/// to the lower server name.
pub fn least_loaded(bids: &[Bid]) -> Option<&Bid> {
    bids.iter().min_by(|a, b| {
        a.load
            .partial_cmp(&b.load)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.free_memory_mb.cmp(&a.free_memory_mb))
            .then(a.server.cmp(&b.server))
    })
}

fn min_by_signal(bids: &[Bid]) -> Option<&Bid> {
    bids.iter().min_by(|a, b| {
        a.signal
            .score()
            .cmp(&b.signal.score())
            .then(b.free_memory_mb.cmp(&a.free_memory_mb))
            .then(a.server.cmp(&b.server))
    })
}

/// The stateful load-aware selection servers run: rank by quantized
/// [`LoadSignal::score`], but when every bidder ties (an idle or uniformly
/// loaded neighborhood) hand the pick to the round-robin rotation so the
/// placement sequence — and therefore the journal — is identical to
/// [`Policy::RoundRobin`].
pub fn select_load_aware<'a>(rr: &mut RoundRobin, bids: &'a [Bid]) -> Option<&'a Bid> {
    let first = bids.first()?.signal.score();
    if bids.iter().all(|b| b.signal.score() == first) {
        rr.select(bids)
    } else {
        min_by_signal(bids)
    }
}

/// Stateful round-robin selector.
///
/// The rotation order (server names, sorted) is computed once per *round* —
/// i.e. once per distinct bidder set — and reused across calls while the
/// set is unchanged, instead of re-sorting a fresh allocation on every
/// selection. Bidding rounds in a stable neighborhood produce the same
/// willing set task after task, so steady-state selection does no sorting
/// and no allocation.
#[derive(Debug, Default)]
pub struct RoundRobin {
    counter: usize,
    /// Sorted server names from the last round; the cached rotation order.
    order: Vec<String>,
}

impl RoundRobin {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn select<'a>(&mut self, bids: &'a [Bid]) -> Option<&'a Bid> {
        if bids.is_empty() {
            return None;
        }
        // The cache is valid iff it holds exactly this bidder set. Names in
        // `order` are sorted, so membership is a binary search — no
        // allocation on the steady-state path.
        let unchanged = self.order.len() == bids.len()
            && bids.iter().all(|b| self.order.binary_search(&b.server).is_ok());
        if !unchanged {
            self.order = bids.iter().map(|b| b.server.clone()).collect();
            self.order.sort();
        }
        let name = &self.order[self.counter % self.order.len()];
        let chosen = bids.iter().find(|b| &b.server == name)?;
        self.counter = self.counter.wrapping_add(1);
        Some(chosen)
    }
}

/// Deficit-round-robin fair queue over per-client sub-queues (Shreedhar &
/// Varghese). Each visit to a client's queue grants it `quantum` cost
/// units of deficit; an item is served only when the accumulated deficit
/// covers its cost, so a client submitting heavyweight tasks cannot crowd
/// out one submitting light tasks — over any window each active client
/// drains ~the same total cost. A single-client queue degenerates to FIFO
/// (the property the uniform-load differential tests pin).
#[derive(Debug)]
pub struct FairQueue<T> {
    quantum: u64,
    queues: HashMap<u64, ClientQueue<T>>,
    /// Visit order: clients in first-arrival order, rotated as visits end.
    active: VecDeque<u64>,
    len: usize,
}

#[derive(Debug)]
struct ClientQueue<T> {
    deficit: u64,
    items: VecDeque<(u64, T)>,
}

impl<T> FairQueue<T> {
    /// `quantum` is the cost credit per visit. Costs are caller-defined
    /// (the server uses task `memory_mb`); a quantum below the largest
    /// single cost still makes progress (deficit accumulates across
    /// rounds) but serves that client in bursts.
    pub fn new(quantum: u64) -> Self {
        FairQueue {
            quantum: quantum.max(1),
            queues: HashMap::new(),
            active: VecDeque::new(),
            len: 0,
        }
    }

    pub fn push(&mut self, client: u64, cost: u64, item: T) {
        let q = self.queues.entry(client).or_insert_with(|| {
            self.active.push_back(client);
            ClientQueue { deficit: 0, items: VecDeque::new() }
        });
        q.items.push_back((cost.max(1), item));
        self.len += 1;
    }

    /// Next item in DRR order. A client whose queue drains is forgotten
    /// (its deficit resets to zero — idle clients earn no credit).
    pub fn pop(&mut self) -> Option<T> {
        loop {
            let client = *self.active.front()?;
            let Some(q) = self.queues.get_mut(&client) else {
                self.active.pop_front();
                continue;
            };
            match q.items.pop_front() {
                None => {
                    self.queues.remove(&client);
                    self.active.pop_front();
                }
                Some((cost, item)) if q.deficit >= cost => {
                    q.deficit -= cost;
                    self.len -= 1;
                    if q.items.is_empty() {
                        self.queues.remove(&client);
                        self.active.pop_front();
                    }
                    return Some(item);
                }
                Some(unaffordable) => {
                    // Visit ends unserved: the item goes back to the front,
                    // the client gets a quantum and moves to the back, and
                    // the deficit accumulates across rounds.
                    q.items.push_front(unaffordable);
                    q.deficit += self.quantum;
                    self.active.rotate_left(1);
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_cluster::Addr;

    fn bid(server: &str, load: f64, mem: u64) -> Bid {
        Bid {
            server: server.to_string(),
            addr: Addr(0),
            load,
            free_memory_mb: mem,
            free_slots: 4,
            signal: LoadSignal::default(),
        }
    }

    fn bid_sig(server: &str, queue: u32, inflight: u32, ewma: u64) -> Bid {
        Bid {
            signal: LoadSignal { queue_depth: queue, in_flight: inflight, ewma_dispatch_us: ewma },
            ..bid(server, 0.0, 100)
        }
    }

    #[test]
    fn empty_bids_select_nothing() {
        for policy in [Policy::LeastLoaded, Policy::RoundRobin, Policy::LoadAware] {
            assert!(policy.choose(&mut RoundRobin::new(), &[]).is_none(), "{policy:?}");
        }
    }

    #[test]
    fn each_policy_chooses_by_its_own_rule() {
        // `a` sorts first, `b` has the lowest load factor, `c` the lowest
        // load signal: each rule picks a different bidder.
        let bids = vec![
            Bid { load: 0.5, ..bid_sig("a", 1, 0, 0) },
            Bid { load: 0.0, ..bid_sig("b", 2, 0, 0) },
            Bid { load: 0.75, ..bid_sig("c", 0, 0, 0) },
        ];
        for (policy, server) in
            [(Policy::LeastLoaded, "b"), (Policy::RoundRobin, "a"), (Policy::LoadAware, "c")]
        {
            let chosen = policy.choose(&mut RoundRobin::new(), &bids).unwrap();
            assert_eq!(chosen.server, server, "{policy:?}");
        }
    }

    #[test]
    fn least_loaded_prefers_low_load_then_memory() {
        let bids = vec![bid("a", 0.5, 100), bid("b", 0.25, 100), bid("c", 0.25, 500)];
        assert_eq!(least_loaded(&bids).unwrap().server, "c");
    }

    #[test]
    fn least_loaded_ties_break_by_name() {
        let bids = vec![bid("zeta", 0.5, 100), bid("alpha", 0.5, 100)];
        assert_eq!(least_loaded(&bids).unwrap().server, "alpha");
    }

    #[test]
    fn round_robin_rotates_deterministically() {
        let bids = vec![bid("b", 0.0, 0), bid("a", 0.0, 0), bid("c", 0.0, 0)];
        let mut rr = RoundRobin::new();
        let picks: Vec<String> = (0..6).map(|_| rr.select(&bids).unwrap().server.clone()).collect();
        assert_eq!(picks, ["a", "b", "c", "a", "b", "c"]);
    }

    /// The stateless rotation `RoundRobin` caches: the bidders sorted by
    /// name, the `i`-th taken.
    fn round_robin_reference(bids: &[Bid], i: usize) -> &Bid {
        let mut ordered: Vec<&Bid> = bids.iter().collect();
        ordered.sort_by(|a, b| a.server.cmp(&b.server));
        ordered[i % ordered.len()]
    }

    #[test]
    fn round_robin_matches_stateless_reference() {
        let bids = vec![bid("d", 0.1, 8), bid("b", 0.9, 2), bid("a", 0.4, 4), bid("c", 0.2, 1)];
        let mut rr = RoundRobin::new();
        for i in 0..10 {
            assert_eq!(rr.select(&bids).unwrap().server, round_robin_reference(&bids, i).server);
        }
    }

    #[test]
    fn round_robin_resorts_when_bidders_change() {
        let mut rr = RoundRobin::new();
        let bids = vec![bid("a", 0.0, 0), bid("b", 0.0, 0)];
        assert_eq!(rr.select(&bids).unwrap().server, "a");
        // A bidder joins: the cached order is invalid and must rebuild.
        let bids = vec![bid("a", 0.0, 0), bid("b", 0.0, 0), bid("0-new", 0.0, 0)];
        assert_eq!(rr.select(&bids).unwrap().server, "a", "counter=1 → second of sorted");
        // One leaves: rebuild again, arrival order irrelevant.
        let bids = vec![bid("b", 0.0, 0), bid("a", 0.0, 0)];
        assert_eq!(rr.select(&bids).unwrap().server, "a", "counter=2 → wraps to first");
    }

    #[test]
    fn load_signal_score_orders_queue_over_inflight_over_latency() {
        let queued = LoadSignal { queue_depth: 1, in_flight: 0, ewma_dispatch_us: 0 };
        let busy = LoadSignal { queue_depth: 0, in_flight: 3, ewma_dispatch_us: 0 };
        let slow = LoadSignal { queue_depth: 0, in_flight: 0, ewma_dispatch_us: 900_000 };
        assert!(queued.score() > busy.score());
        assert!(busy.score() > slow.score());
        // Sub-millisecond latency jitter does not perturb the score.
        let a = LoadSignal { ewma_dispatch_us: 400, ..LoadSignal::default() };
        let b = LoadSignal { ewma_dispatch_us: 900, ..LoadSignal::default() };
        assert_eq!(a.score(), b.score());
    }

    #[test]
    fn load_aware_prefers_least_loaded_signal() {
        let bids =
            vec![bid_sig("a", 3, 2, 5_000), bid_sig("b", 0, 1, 2_000), bid_sig("c", 1, 0, 1_000)];
        let mut rr = RoundRobin::new();
        assert_eq!(select_load_aware(&mut rr, &bids).unwrap().server, "b");
    }

    #[test]
    fn load_aware_ties_fall_back_to_round_robin_rotation() {
        let bids = vec![bid_sig("b", 0, 0, 0), bid_sig("a", 0, 0, 0), bid_sig("c", 0, 0, 0)];
        let mut la = RoundRobin::new();
        let mut rr = RoundRobin::new();
        for _ in 0..6 {
            assert_eq!(
                select_load_aware(&mut la, &bids).unwrap().server,
                rr.select(&bids).unwrap().server,
                "uniform signals must reproduce the round-robin sequence"
            );
        }
    }

    #[test]
    fn debit_books_a_task_as_the_node_would_report_it() {
        // Every used < total ≤ 64: the recovered total is exact, so the new
        // load is bit for bit what `NodeHandle::load` computes.
        for total in 1..=64usize {
            for used in 0..total {
                let mut b = Bid {
                    load: used as f64 / total as f64,
                    free_slots: total - used,
                    ..bid("n", 0.0, 1000)
                };
                assert!(b.can_host(1000) && !b.can_host(1001));
                b.debit(300);
                assert_eq!(b.free_slots, total - used - 1);
                assert_eq!(b.free_memory_mb, 700);
                assert_eq!(b.load, (used + 1) as f64 / total as f64, "{used}/{total}");
                assert_eq!(b.can_host(1), used + 1 < total);
            }
        }
    }

    #[test]
    fn debit_keeps_the_load_of_a_bid_with_no_recoverable_total() {
        // Free slots at load 1.0 (a scripted bidder): nothing to divide by.
        let mut b = Bid { free_slots: 4, ..bid("odd", 1.0, 100) };
        b.debit(10);
        assert_eq!((b.free_slots, b.free_memory_mb, b.load), (3, 90, 1.0));
        // An idle bidder of 2^20 slots is no longer quite idle afterwards.
        let mut b = Bid { free_slots: 1 << 20, ..bid("big", 0.0, 100) };
        b.debit(10);
        assert!(b.load > 0.0 && b.load < 1e-5, "{}", b.load);
    }

    #[test]
    fn ewma_smooths_toward_samples() {
        let mut e = Ewma::default();
        assert_eq!(e.get(), 0);
        e.observe(800);
        assert_eq!(e.get(), 800, "first sample seeds the average");
        for _ in 0..64 {
            e.observe(0);
        }
        assert!(e.get() < 800 / 8, "decays toward zero: {}", e.get());
        for _ in 0..64 {
            e.observe(1_000);
        }
        assert!(e.get() > 800, "climbs toward the new plateau: {}", e.get());
    }

    #[test]
    fn fair_queue_single_client_is_fifo() {
        let mut q = FairQueue::new(10);
        for i in 0..5 {
            q.push(7, 25, i); // cost > quantum: deficit must span rounds
        }
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, [0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn fair_queue_interleaves_equal_cost_clients() {
        let mut q = FairQueue::new(1);
        for i in 0..3 {
            q.push(1, 1, format!("a{i}"));
        }
        for i in 0..3 {
            q.push(2, 1, format!("b{i}"));
        }
        let drained: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, ["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn fair_queue_balances_cost_not_item_count() {
        // Client 1 submits heavy items (cost 4), client 2 light ones
        // (cost 1). DRR serves ~equal total cost per round: each heavy
        // item lets four light items through.
        let mut q = FairQueue::new(4);
        for i in 0..2 {
            q.push(1, 4, format!("heavy{i}"));
        }
        for i in 0..8 {
            q.push(2, 1, format!("light{i}"));
        }
        let drained: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        let first_heavy = drained.iter().position(|s| s == "heavy0").unwrap();
        let second_heavy = drained.iter().position(|s| s == "heavy1").unwrap();
        let lights_between =
            drained[first_heavy..second_heavy].iter().filter(|s| s.starts_with("light")).count();
        assert_eq!(drained.len(), 10);
        assert_eq!(lights_between, 4, "equal cost share per round: {drained:?}");
    }

    #[test]
    fn fair_queue_zero_cost_items_still_progress() {
        let mut q = FairQueue::new(0); // quantum clamps to 1
        q.push(1, 0, "x"); // cost clamps to 1
        assert_eq!(q.pop(), Some("x"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fair_queue_forgets_drained_clients() {
        let mut q = FairQueue::new(100);
        q.push(1, 1, "a");
        assert_eq!(q.pop(), Some("a"));
        // Client 1 drained; its banked deficit must not survive.
        q.push(1, 1, "b");
        q.push(2, 1, "c");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), Some("c"));
    }
}
