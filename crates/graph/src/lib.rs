//! Shared directed-graph algorithms for the CN tool chain.
//!
//! Both the CNX dependency DAG (`cn-cnx`) and the UML activity graph
//! (`cn-model`) must reject cycles, and both report the offending cycle in
//! their diagnostics. This crate holds the single implementation so the two
//! layers (and the `cn-analysis` lint engine on top of them) agree on which
//! cycle gets reported: the *shortest* one, with deterministic tie-breaking.

/// Find a shortest cycle in a directed graph given as adjacency lists
/// (`adj[u]` = successors of `u`).
///
/// Returns the cycle as a closed walk `[s, n1, ..., s]` (first == last), or
/// `None` for an acyclic graph. The result is deterministic:
///
/// * among all cycles, a minimum-length one is returned;
/// * among minimum-length cycles, the one whose smallest node index is
///   lowest wins, and the walk starts (and ends) at that node;
/// * the path between those endpoints follows BFS order over the adjacency
///   lists as given.
///
/// Runs one BFS per node — O(V·(V+E)), plenty for job-sized graphs.
pub fn shortest_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = adj.len();
    let mut best: Option<Vec<usize>> = None;
    let mut dist = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];

    for s in 0..n {
        // BFS from s; the shortest cycle through s closes with an edge u -> s.
        for d in dist.iter_mut() {
            *d = usize::MAX;
        }
        dist[s] = 0;
        parent[s] = usize::MAX;
        let mut queue = std::collections::VecDeque::from([s]);
        let mut close_from: Option<usize> = None;
        'bfs: while let Some(u) = queue.pop_front() {
            if let Some(cap) = best.as_ref().map(|b| b.len() - 1) {
                // A cycle through s via u has length >= dist[u] + 1; prune
                // once it cannot beat the incumbent.
                if dist[u] + 1 >= cap {
                    break 'bfs;
                }
            }
            for &v in &adj[u] {
                if v == s {
                    close_from = Some(u);
                    break 'bfs;
                }
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        if let Some(u) = close_from {
            let mut cycle = Vec::with_capacity(dist[u] + 2);
            let mut cur = u;
            while cur != usize::MAX {
                cycle.push(cur);
                cur = parent[cur];
            }
            cycle.reverse(); // now [s, ..., u]
            cycle.push(s);
            let better = match &best {
                Some(b) => cycle.len() < b.len(),
                None => true,
            };
            if better {
                best = Some(cycle);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_graphs_return_none() {
        assert_eq!(shortest_cycle(&[]), None);
        assert_eq!(shortest_cycle(&[vec![]]), None);
        // diamond: 0 -> {1,2} -> 3
        assert_eq!(shortest_cycle(&[vec![1, 2], vec![3], vec![3], vec![]]), None);
    }

    #[test]
    fn self_loop_is_a_length_one_cycle() {
        assert_eq!(shortest_cycle(&[vec![0]]), Some(vec![0, 0]));
        assert_eq!(shortest_cycle(&[vec![], vec![1]]), Some(vec![1, 1]));
    }

    #[test]
    fn simple_two_cycle() {
        assert_eq!(shortest_cycle(&[vec![1], vec![0]]), Some(vec![0, 1, 0]));
    }

    #[test]
    fn smallest_cycle_wins_over_larger() {
        // 0 -> 1 -> 2 -> 0 (len 3) and 3 <-> 4 (len 2): report the 2-cycle.
        let adj = vec![vec![1], vec![2], vec![0], vec![4], vec![3]];
        assert_eq!(shortest_cycle(&adj), Some(vec![3, 4, 3]));
    }

    #[test]
    fn tie_broken_by_smallest_node_index() {
        // Two 2-cycles: 2 <-> 3 and 0 <-> 1. The one containing node 0 wins.
        let adj = vec![vec![1], vec![0], vec![3], vec![2]];
        assert_eq!(shortest_cycle(&adj), Some(vec![0, 1, 0]));
    }

    #[test]
    fn walk_starts_at_smallest_index_on_cycle() {
        // Single cycle 2 -> 1 -> 3 -> 2; walk must start at node 1.
        let adj = vec![vec![], vec![3], vec![1], vec![2]];
        let c = shortest_cycle(&adj).unwrap();
        assert_eq!(c.first(), c.last());
        assert_eq!(c[0], 1);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn deterministic_across_runs() {
        let adj = vec![vec![1, 2], vec![2, 3], vec![0, 3], vec![0]];
        let first = shortest_cycle(&adj).unwrap();
        for _ in 0..10 {
            assert_eq!(shortest_cycle(&adj).unwrap(), first);
        }
    }
}
