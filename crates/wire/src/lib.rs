//! cn-wire: the CN transport layer.
//!
//! The runtime in `cn-core` was written against the simulated in-process
//! fabric ([`cn_cluster::Network`]). This crate extracts the transport
//! surface it actually uses into the [`Fabric`] trait, keeps the simulated
//! network as one implementation, and adds [`SocketFabric`] — a real
//! `std::net` transport (TCP unicast with length-prefixed frames, UDP
//! multicast/loopback discovery) so a neighborhood can span OS processes.
//!
//! Addressing: a simulated fabric hands out small dense addresses; the
//! socket fabric encodes the owning process's TCP port in the high bits of
//! the `u64` (see [`addr_port`]), which is what makes an [`Addr`] routable
//! across processes. Group addresses carry [`GROUP_ADDR_BIT`].

pub mod codec;
pub mod peer;
pub mod socket;

use std::sync::Arc;

use cn_cluster::{Addr, Envelope, GroupId, Network, SendError};
use cn_observe::Recorder;
use cn_sync::channel::Receiver;

pub use codec::{
    Frame, FrameDecoder, Reader, WireEncode, WireError, WireErrorKind, Writer, WIRE_VERSION,
};
pub use socket::{Discovery, SocketFabric, WireConfig};

/// How many low bits of an `Addr` hold the per-process endpoint id; bits
/// 40..56 hold the owning process's TCP port (socket fabric only). The
/// port field deliberately stops short of bit 63 so it can never collide
/// with [`GROUP_ADDR_BIT`].
pub const ADDR_PORT_SHIFT: u32 = 40;

/// Set on addresses that name a multicast group rather than an endpoint.
pub const GROUP_ADDR_BIT: u64 = 1 << 63;

/// The TCP port encoded in a socket-fabric address.
pub fn addr_port(addr: Addr) -> u16 {
    ((addr.0 >> ADDR_PORT_SHIFT) & 0xFFFF) as u16
}

/// The address naming a multicast group on the wire.
pub fn group_addr(group: GroupId) -> Addr {
    Addr(GROUP_ADDR_BIT | group.0 as u64)
}

/// Whether an address names a group.
pub fn is_group_addr(addr: Addr) -> bool {
    addr.0 & GROUP_ADDR_BIT != 0
}

/// The group a group-address names.
pub fn addr_group(addr: Addr) -> GroupId {
    GroupId((addr.0 & !GROUP_ADDR_BIT) as u32)
}

/// The transport surface the CN runtime needs: endpoint registration,
/// unicast, and multicast groups. Implemented by the simulated
/// [`cn_cluster::Network`] and by [`SocketFabric`].
pub trait Fabric<M: Send + Clone + 'static>: Send + Sync {
    /// Create an endpoint; returns its address and receive channel.
    fn register(&self) -> (Addr, Receiver<Envelope<M>>);
    /// Remove an endpoint.
    fn unregister(&self, addr: Addr);
    /// Join a multicast group.
    fn join_group(&self, addr: Addr, group: GroupId);
    /// Unicast send.
    fn send(&self, from: Addr, to: Addr, msg: M) -> Result<(), SendError>;
    /// Unicast the same message to many destinations (task broadcast).
    /// Stops at the first failure; on success returns `tos.len()`. The
    /// default clones per destination, moving the message into the last
    /// send; transports can override to serialize once and share the
    /// encoded bytes across every destination.
    fn send_many(&self, from: Addr, tos: &[Addr], msg: M) -> Result<usize, SendError> {
        let Some((&last, rest)) = tos.split_last() else { return Ok(0) };
        for &to in rest {
            self.send(from, to, msg.clone())?;
        }
        self.send(from, last, msg)?;
        Ok(tos.len())
    }
    /// Unicast send that never waits: the message is handed to the
    /// transport and delivered, or dropped and counted, behind the caller's
    /// back. For replies to a peer that may be gone by now (bids), where a
    /// send error would be ignored anyway and waiting for one stalls the
    /// replier. The default is `send`, which is right for any fabric whose
    /// `send` does not block.
    fn post(&self, from: Addr, to: Addr, msg: M) {
        let _ = self.send(from, to, msg);
    }
    /// Multicast to every group member except the sender; returns how many
    /// destinations the message was addressed to (local members plus, for
    /// the socket fabric, remote datagrams sent).
    fn multicast(&self, from: Addr, group: GroupId, msg: M) -> usize;
    /// Whether [`Fabric::multicast`]'s count enumerates endpoints, so that
    /// many answers from distinct senders mean everyone addressed has
    /// answered. False when one datagram reaches an unknown number of
    /// processes (real UDP multicast) and for any fabric that does not say.
    fn multicast_is_exact(&self) -> bool {
        false
    }
    /// The observability handle this fabric records into.
    fn recorder(&self) -> &Recorder;
}

impl<M: Send + Clone + 'static> Fabric<M> for Network<M> {
    fn register(&self) -> (Addr, Receiver<Envelope<M>>) {
        Network::register(self)
    }

    fn unregister(&self, addr: Addr) {
        Network::unregister(self, addr)
    }

    fn join_group(&self, addr: Addr, group: GroupId) {
        Network::join_group(self, addr, group)
    }

    fn send(&self, from: Addr, to: Addr, msg: M) -> Result<(), SendError> {
        Network::send(self, from, to, msg)
    }

    fn multicast(&self, from: Addr, group: GroupId, msg: M) -> usize {
        Network::multicast(self, from, group, msg)
    }

    fn multicast_is_exact(&self) -> bool {
        true
    }

    fn recorder(&self) -> &Recorder {
        Network::recorder(self)
    }
}

/// The shared handle to any [`Fabric`] implementation — the type the CN
/// runtime (`CnApi`, `CnServer`, `TaskContext`) holds; build one with
/// `Arc::new(fabric)`.
pub type FabricHandle<M> = Arc<dyn Fabric<M>>;

#[cfg(test)]
mod tests {
    use super::*;
    use cn_cluster::{LatencyModel, DISCOVERY_GROUP};

    #[test]
    fn network_behind_handle_round_trips() {
        let net: Network<u32> = Network::new(LatencyModel::zero(), 7);
        let fabric: FabricHandle<u32> = Arc::new(net);
        let (a, _rx_a) = fabric.register();
        let (b, rx_b) = fabric.register();
        fabric.send(a, b, 9).unwrap();
        assert_eq!(rx_b.recv().unwrap().msg, 9);
        fabric.join_group(b, DISCOVERY_GROUP);
        fabric.join_group(a, DISCOVERY_GROUP);
        assert_eq!(fabric.multicast(a, DISCOVERY_GROUP, 1), 1);
        fabric.unregister(b);
        assert_eq!(fabric.send(a, b, 2), Err(SendError::UnknownAddr(b)));
    }

    #[test]
    fn addr_helpers() {
        let a = Addr(((4000u64) << ADDR_PORT_SHIFT) | 17);
        assert_eq!(addr_port(a), 4000);
        assert!(!is_group_addr(a));
        let g = group_addr(GroupId(3));
        assert!(is_group_addr(g));
        assert_eq!(addr_group(g), GroupId(3));
    }
}
