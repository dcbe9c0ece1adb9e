//! The endpoint table: the endpoints of one fabric in one process, the
//! groups they joined, and the one way a message reaches an endpoint's
//! channel. The simulated [`crate::Network`] and `cn-wire`'s socket fabric
//! both keep their endpoints here and deliver through it; what differs
//! between them is only how a message gets to the table.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use cn_sync::channel::{unbounded_named, Receiver, Sender};
use cn_sync::Mutex;

use crate::network::{Addr, Envelope, GroupId, SendError};

/// Endpoints by address, and group membership in address order.
pub struct Endpoints<M> {
    /// Or-ed into every address handed out: 0 on the simulated network, the
    /// listener port in the high bits in a socket process (whose ids start
    /// at its incarnation, not at 1).
    base: u64,
    next: AtomicU64,
    endpoints: Mutex<HashMap<Addr, Sender<Envelope<M>>>>,
    groups: Mutex<HashMap<GroupId, BTreeSet<Addr>>>,
}

impl<M> Endpoints<M> {
    pub fn new(base: u64) -> Endpoints<M> {
        Endpoints::starting_at(base, 1)
    }

    /// A table whose first address is `base | first`, each next one up.
    pub fn starting_at(base: u64, first: u64) -> Endpoints<M> {
        Endpoints {
            base,
            next: AtomicU64::new(first),
            endpoints: Mutex::named("net.endpoints", HashMap::new()),
            groups: Mutex::named("net.groups", HashMap::new()),
        }
    }

    /// A new endpoint: its address and the channel it receives on.
    pub fn register(&self) -> (Addr, Receiver<Envelope<M>>) {
        let addr = Addr(self.base | self.next.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = unbounded_named("net.endpoint");
        self.endpoints.lock().insert(addr, tx);
        (addr, rx)
    }

    /// Forget an endpoint and take it out of every group it joined.
    pub fn unregister(&self, addr: Addr) {
        self.endpoints.lock().remove(&addr);
        for members in self.groups.lock().values_mut() {
            members.remove(&addr);
        }
    }

    /// Add an endpoint to a group.
    #[cfg(not(feature = "mutations"))]
    pub fn join(&self, addr: Addr, group: GroupId) {
        self.groups.lock().entry(group).or_default().insert(addr);
    }

    /// Injected ordering bug for cn-check: "validate" the address while
    /// holding the groups lock, taking groups → endpoints — the opposite of
    /// the mutated [`Endpoints::members`].
    #[cfg(feature = "mutations")]
    pub fn join(&self, addr: Addr, group: GroupId) {
        let mut groups = self.groups.lock();
        if self.endpoints.lock().contains_key(&addr) {
            groups.entry(group).or_default().insert(addr);
        }
    }

    /// The members of `group` but `except` (the sender), in address order.
    #[cfg(not(feature = "mutations"))]
    pub fn members(&self, group: GroupId, except: Addr) -> Vec<Addr> {
        let groups = self.groups.lock();
        let members = groups.get(&group).into_iter().flatten();
        members.copied().filter(|&a| a != except).collect()
    }

    /// Injected ordering bug for cn-check: keep only members that are still
    /// registered, reading membership under the endpoints lock — endpoints
    /// → groups, the opposite nesting of the mutated [`Endpoints::join`].
    #[cfg(feature = "mutations")]
    pub fn members(&self, group: GroupId, except: Addr) -> Vec<Addr> {
        let endpoints = self.endpoints.lock();
        let groups = self.groups.lock();
        let members = groups.get(&group).into_iter().flatten();
        members.copied().filter(|a| *a != except && endpoints.contains_key(a)).collect()
    }

    /// Hand `env` to its endpoint's channel. An endpoint whose receiver was
    /// dropped is `Closed` once and forgotten, so `UnknownAddr` after that.
    pub fn deliver(&self, env: Envelope<M>) -> Result<(), SendError> {
        let to = env.to;
        let mut endpoints = self.endpoints.lock();
        let tx = endpoints.get(&to).ok_or(SendError::UnknownAddr(to))?;
        if tx.send(env).is_err() {
            endpoints.remove(&to);
            return Err(SendError::Closed(to));
        }
        Ok(())
    }

    /// [`Endpoints::deliver`] `msg` to each of `tos`, the last taking it by
    /// move: k recipients cost k−1 clones, one costs none. Every recipient
    /// is tried; the failures come back in recipient order.
    pub fn deliver_each(&self, from: Addr, tos: &[Addr], msg: M) -> Vec<SendError>
    where
        M: Clone,
    {
        let Some((&last, rest)) = tos.split_last() else { return Vec::new() };
        let mut failed = Vec::new();
        for &to in rest {
            failed.extend(self.deliver(Envelope { from, to, msg: msg.clone() }).err());
        }
        failed.extend(self.deliver(Envelope { from, to: last, msg }).err());
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: GroupId = GroupId(3);

    #[test]
    fn unregister_leaves_every_group() {
        let table: Endpoints<u8> = Endpoints::new(0);
        let (a, _rx_a) = table.register();
        let (b, _rx_b) = table.register();
        table.join(a, G);
        table.join(a, GroupId(4));
        table.join(b, G);
        table.unregister(a);
        assert_eq!(table.members(G, Addr(0)), [b]);
        assert!(table.members(GroupId(4), Addr(0)).is_empty());
        assert_eq!(
            table.deliver(Envelope { from: b, to: a, msg: 1 }),
            Err(SendError::UnknownAddr(a))
        );
    }

    #[test]
    fn a_dropped_receiver_is_closed_once_then_unknown() {
        let table: Endpoints<u8> = Endpoints::new(0);
        let (a, rx_a) = table.register();
        drop(rx_a);
        let env = || Envelope { from: Addr(9), to: a, msg: 1 };
        assert_eq!(table.deliver(env()), Err(SendError::Closed(a)));
        assert_eq!(table.deliver(env()), Err(SendError::UnknownAddr(a)));
    }

    #[test]
    fn members_exclude_the_sender_and_come_in_address_order() {
        let table: Endpoints<u8> = Endpoints::new(7 << 40);
        let ends: Vec<_> = (0..4).map(|_| table.register()).collect();
        assert!(ends.iter().all(|(addr, _)| addr.0 >> 40 == 7), "the base is in every address");
        for (addr, _) in ends.iter().rev() {
            table.join(*addr, G);
        }
        let addrs: Vec<Addr> = ends.iter().map(|(addr, _)| *addr).collect();
        assert_eq!(table.members(G, addrs[1]), [addrs[0], addrs[2], addrs[3]]);
    }

    #[test]
    fn deliver_each_reaches_the_live_and_reports_the_rest_in_order() {
        let table: Endpoints<String> = Endpoints::new(0);
        let (a, rx_a) = table.register();
        let (b, rx_b) = table.register();
        let gone = Addr(99);
        let failed = table.deliver_each(Addr(0), &[a, gone, b], "hi".to_string());
        assert_eq!(failed, [SendError::UnknownAddr(gone)]);
        assert_eq!(rx_a.try_recv().unwrap().msg, "hi");
        assert_eq!(rx_b.try_recv().unwrap().msg, "hi");
    }
}
