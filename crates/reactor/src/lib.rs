//! # cn-reactor — sharded readiness-driven event loop
//!
//! The transport layer's answer to thread-per-peer: N event-loop threads
//! (one per core by default), each owning an epoll instance, a hashed
//! timer wheel, and a command mailbox whose waker is an eventfd. Peers
//! hash to a shard and stay there, so per-connection state machines run
//! single-threaded while senders on any thread hand work over with one
//! queue push (and an eventfd ring only on the empty→non-empty edge).
//!
//! Everything beneath is hand-rolled: the build environment has no
//! crates.io access, so [`sys`] declares the `epoll`/`eventfd` subset of
//! libc by hand, the same way `cn-wire` binds `SO_REUSEADDR`. All
//! blocking-adjacent pieces (mailbox, threads) go through the `cn-sync`
//! facade, so `cn-check` can model-check the wakeup/shutdown protocol
//! with a no-op waker and a virtual clock.

pub mod mailbox;
mod reactor;
pub mod sys;
pub mod wheel;

pub use mailbox::{Mailbox, NoopWaker, Waker};
pub use reactor::{Action, EventHandler, Reactor, ShardCtx, Token, TICK_MS};
pub use wheel::{Expired, TimerId, TimerWheel};

/// Default shard count: one per available core, capped so a large host
/// does not burn threads the transport cannot use.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}
