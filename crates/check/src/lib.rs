//! # cn-check — deterministic concurrency checking for the CN runtime
//!
//! The runtime's real concurrency surfaces — the socket fabric's per-peer
//! queue/writer handoff, the simulated network's group delivery, the
//! CnServer pending-queue drain, the JobManager's parked tuple-space asks — are
//! registered here as [`Scenario`]s and driven under `cn-sync`'s
//! controlled scheduler ([`cn_sync::check::explore`]), which serializes
//! them onto one task at a time and explores interleavings from a seeded
//! strategy. A hazard (deadlock, double-lock, lost notification,
//! schedule-dependent assertion failure) aborts exploration with a
//! replayable [`Counterexample`]: the seed, the explicit schedule, and the
//! full event trace — replaying the schedule reproduces the trace
//! byte-for-byte.
//!
//! The pieces:
//!
//! * [`scenarios`] — the registry of runtime surfaces under check. The
//!   scenarios drive the *real* runtime code (no hand-built models); each
//!   runtime crate's `mutations` cargo feature swaps in one injected
//!   ordering bug so the mutation tests can prove the checker catches it.
//! * [`runner`] — the seed-matrix driver `cnctl check` uses: explore each
//!   scenario once per seed, merge lock-order graphs across the matrix,
//!   stop at the first counterexample.
//! * [`diagnose`] — the bridge into `cn-analysis`: hazards, lock-order
//!   cycles, and condvar-while-holding observations become `CN05x`
//!   [`cn_analysis::Diagnostic`]s in a deterministic
//!   [`cn_analysis::LintReport`].
//! * [`export`] — counterexample artifacts: schedule-trace JSONL plus
//!   cn-observe journal / Chrome-trace / summary renderings of the failing
//!   schedule.

pub mod diagnose;
pub mod export;
pub mod runner;
pub mod scenarios;

pub use cn_sync::check::{explore, ExploreOpts, Strategy};
pub use cn_sync::model::{Counterexample, Hazard, HazardKind, LockOrderGraph, RunReport};
pub use diagnose::{diagnose, lint_report};
pub use export::{export_counterexample, TraceArtifacts};
pub use runner::{replay, run_all, run_scenario, CheckConfig, DEFAULT_SEEDS};
pub use scenarios::{all, find, Scenario};
