//! Deterministic simulated cluster substrate.
//!
//! The paper evaluates CN on "a cluster of commodity off-the-shelf personal
//! computers, interconnected with a local area network technology like
//! Ethernet". That hardware is not available here, so this crate provides
//! the closest synthetic equivalent that exercises the same code paths
//! (DESIGN.md §2 documents the substitution):
//!
//! * [`node`] — virtual nodes with memory/slot resources, matching the
//!   `task-req` admission the JobManager performs,
//! * [`network`] — an instant message fabric with unicast and **multicast
//!   groups** (the paper's JobManager discovery is multicast-based), seeded
//!   loss, partitions and one-shot drops, and `net.*` counters in its
//!   recorder,
//! * [`endpoints`] — the endpoint and group table every fabric, this one
//!   and `cn-wire`'s socket fabric, delivers through.
//!
//! Every message is handed over on the sender's thread, and loss, the one
//! stochastic element, is driven by a caller-provided seed, so simulations
//! are reproducible. Real network timing is left to `cn-wire`'s socket
//! fabric.

pub mod endpoints;
pub mod network;
pub mod node;

pub use cn_observe::{Recorder, Severity};
pub use endpoints::Endpoints;
pub use network::{Addr, Envelope, GroupId, LatencyModel, Network, SendError, DISCOVERY_GROUP};
pub use node::{ClusterCapacity, NodeHandle, NodeSpec, ReserveError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_unicast() {
        let net: Network<String> = Network::new(LatencyModel::zero(), 1);
        let (a, _rx_a) = net.register();
        let (_b, rx_b) = net.register();
        net.send(a, _b, "hello".to_string()).unwrap();
        let env = rx_b.recv().unwrap();
        assert_eq!(env.msg, "hello");
        assert_eq!(env.from, a);
    }
}
