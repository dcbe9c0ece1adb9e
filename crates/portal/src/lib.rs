//! # cn-portal — the web portal in front of the neighborhood
//!
//! The source paper frames the CN runtime as infrastructure behind a
//! **web portal**: users upload a UML activity model (XMI) and the portal
//! compiles it to a CNX job descriptor and runs it on the cluster. This
//! crate is that portal, built with no external dependencies directly on
//! [`cn_reactor`]'s sharded epoll event loops:
//!
//! * [`http`] — an incremental HTTP/1.1 parser (any TCP segmentation,
//!   keep-alive, pipelining, chunked transfer encoding) and response
//!   encoders;
//! * [`admission`] — the bounded, per-address-fair admission queue that
//!   backpressures `POST /jobs` without ever blocking an event loop;
//! * [`jobs`] — the job board (id → status → journal), the XMI/CNX
//!   compile step, and pluggable runners (live wire cluster, in-process
//!   simulation, stub);
//! * [`server`] — the reactor-driven connection handlers tying it all
//!   together.
//!
//! ## API
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /jobs` | body = XMI or CNX → compile + submit; `202 {"id":"j-N"}` |
//! | `GET /jobs/j-N` | status JSON (`queued`/`running`/`done`/`failed`) |
//! | `GET /jobs/j-N/journal` | canonical trace journal, chunked stream |
//! | `GET /metrics` | portal counters/gauges/histograms as text |
//! | `GET /healthz` | liveness probe |

pub mod admission;
pub mod http;
pub mod jobs;
pub mod server;

pub use admission::{Admission, SubmitError};
/// The seeding every runner applies, where `cnbench` imports it from.
pub use cn_tasks::seed_transitive_closure;
pub use http::{ChunkedDecoder, HttpError, Request, RequestParser, Response};
pub use jobs::{
    compile_submission, json_string, looks_like_xmi, CompiledJob, JobBoard, JobId, JobRunner,
    JobState, JobWork, RunOutcome, SimRunner, StubRunner, WireRunner,
};
pub use server::{render_metrics, PortalConfig, PortalServer};
