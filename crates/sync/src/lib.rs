//! # cn-sync — the runtime's synchronization facade
//!
//! Every lock, condvar, channel, and thread the CN runtime creates goes
//! through this crate instead of `parking_lot`/`crossbeam`/`std` directly.
//!
//! There is one facade and every build runs it — `cnctl`, `experiments`,
//! `cnbench`'s in-process rows and each crate's own tests alike:
//!
//! - **Inside an explorer** ([`check::explore`]) every acquire, wait,
//!   notify, send, receive, spawn, and join is a *schedule point* routed
//!   through a controlled scheduler that serializes the program onto one
//!   running task at a time and explores interleavings (seeded PCT-style
//!   randomized schedules; explicit replay). The scheduler detects
//!   deadlocks, double-locks, lost notifications, and channel starvation,
//!   records the lock-order graph, and emits any counterexample as a
//!   replayable seed + schedule trace ([`model::Counterexample`]).
//! - **Outside one** — every thread of a serving process — each operation
//!   first takes a fast path (one relaxed atomic load of the count of
//!   active model runs) and then is the underlying
//!   `parking_lot`/`crossbeam`/`std` primitive, so the program `cnctl
//!   check` explores is the program that serves jobs.
//!
//! Name your primitives ([`Mutex::named`], [`Condvar::named`],
//! [`channel::unbounded_named`]): names are the node identity in the
//! lock-order graph and the subject strings in schedule traces.

pub mod check;
mod instrumented;
pub mod model;

pub use instrumented::{channel, thread, Condvar, Mutex, MutexGuard, WaitTimeoutResult};
