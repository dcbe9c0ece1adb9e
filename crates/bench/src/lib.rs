//! Shared helpers for the benchmark suite and the `experiments` binary.

use std::time::Duration;

use cn_cluster::NodeSpec;
use cn_core::{Neighborhood, NeighborhoodConfig, ServerConfig};

/// A neighborhood tuned for benchmarking: instant fabric, short discovery
/// windows so placement overhead doesn't swamp compute measurements.
pub fn bench_neighborhood(nodes: usize, slots: usize) -> Neighborhood {
    let config = NeighborhoodConfig {
        server: ServerConfig { bid_window: Duration::from_micros(500), ..Default::default() },
        recorder: cn_observe::Recorder::disabled(),
    };
    Neighborhood::deploy_with(NodeSpec::fleet(nodes, 64 * 1024, slots), config)
}

/// Fast client config matching [`bench_neighborhood`].
pub fn bench_client_config() -> cn_core::ClientConfig {
    cn_core::ClientConfig { bid_window: Duration::from_micros(500) }
}

/// A neighborhood for the E7 contention experiment: one node per entry of
/// `speeds` (`speed_pct` values; 100 = nominal, 25 = a 4x straggler),
/// every TaskManager capped at `exec_slots` concurrent task threads so
/// run queues actually form, with the given placement `policy`.
pub fn contention_neighborhood(
    speeds: &[u32],
    exec_slots: usize,
    policy: cn_core::Policy,
    recorder: cn_observe::Recorder,
) -> Neighborhood {
    let config = NeighborhoodConfig {
        server: ServerConfig {
            bid_window: Duration::from_micros(500),
            policy,
            exec_slots: Some(exec_slots),
        },
        recorder,
    };
    Neighborhood::deploy_with(NodeSpec::fleet_skewed(64 * 1024, 64, speeds), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_core::{CnApi, JobRequirements};

    #[test]
    fn bench_neighborhood_is_usable() {
        let nb = bench_neighborhood(2, 8);
        let api = CnApi::with_config(&nb, bench_client_config());
        let job = api.create_job(&JobRequirements::default()).unwrap();
        drop(job);
        nb.shutdown();
    }
}
