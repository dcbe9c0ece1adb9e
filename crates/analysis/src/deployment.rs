//! The deployment judges: a serving process's own shape against the host it
//! runs on.
//!
//! `cnctl serve` runs [`judge_serve`] (CN057) and `cnctl portal` runs
//! [`judge_portal`] (CN058) as they start, on their own configuration and
//! [`HostFacts::probe`], and print what they find on stderr. Both judges are
//! pure functions of the shape and the facts, so a test, or a plan for
//! another machine, passes facts of its own.

use crate::diag::{Diagnostic, Severity};
use crate::explain::codes;
use crate::report::LintReport;

/// What a host grants a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFacts {
    /// The process's fd soft limit (`RLIMIT_NOFILE`), if it could be read.
    pub fd_soft_limit: Option<u64>,
    /// Cores available to the process.
    pub cores: u64,
    /// The host's memory (`MemTotal` of `/proc/meminfo`), if it could be read.
    pub memory_mb: Option<u64>,
}

impl HostFacts {
    /// The live facts of the calling process's host.
    pub fn probe() -> HostFacts {
        let memory_kb = std::fs::read_to_string("/proc/meminfo").ok().and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("MemTotal:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        });
        HostFacts {
            fd_soft_limit: cn_reactor::sys::fd_limits().ok().map(|(soft, _hard)| soft),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            memory_mb: memory_kb.map(|kb| kb / 1024),
        }
    }
}

/// A `cnctl serve` process's shape.
#[derive(Debug, Clone)]
pub struct ServeShape {
    /// Peer connections it is expected to hold: one each way per `--peers`
    /// entry.
    pub peer_connections: u64,
    /// Reactor shards it runs.
    pub reactor_shards: u64,
}

/// A `cnctl portal` process's shape.
#[derive(Debug, Clone)]
pub struct PortalShape {
    /// Its `--max-inflight` admission cap.
    pub max_inflight: u64,
    /// Reactor shards it runs.
    pub reactor_shards: u64,
    /// Its `--body-limit` request body cap, in bytes.
    pub max_body_bytes: u64,
    /// Whether it runs jobs on `cnctl serve` workers over a client fabric of
    /// its own; a `--sim` portal runs them in process and holds none.
    pub client_fabric: bool,
}

/// Non-peer fds a serving process holds: stdio, the TCP listener, the UDP
/// receive and send sockets, and per shard an epoll fd plus its eventfd.
fn serve_overhead_fds(shards: u64) -> u64 {
    3 + 3 + 2 * shards
}

/// Non-submission fds a portal process holds: stdio, the HTTP listener,
/// per shard an epoll fd plus its wakeup eventfd, and, if it has one, the
/// client fabric every job runs on — its TCP listener, UDP recv/send pair, a
/// reactor of as many shards, and a connection each way to each of at least
/// three workers.
fn portal_overhead_fds(shape: &PortalShape) -> u64 {
    let shards = shape.reactor_shards;
    let client_fabric = if shape.client_fabric { 1 + 2 + 2 * shards + 2 * 3 } else { 0 };
    3 + 1 + 2 * shards + client_fabric
}

/// Fds one in-flight submission can pin: the HTTP connection that posted
/// it.
const FDS_PER_INFLIGHT_JOB: u64 = 1;

/// Shards beyond the cores add wakeups without parallelism (CN057 and
/// CN058 alike).
fn over_sharded(code: &'static str, shards: u64, host: &HostFacts) -> Option<Diagnostic> {
    (shards > host.cores).then(|| {
        Diagnostic::new(
            code,
            Severity::Warning,
            format!(
                "--reactor-shards {shards} exceeds the {} available core(s): extra shards add cross-thread wakeups and cache migration without adding parallelism",
                host.cores
            ),
        )
    })
}

/// CN057: a serving process's shape exceeds what its host can provide.
///
/// Every peer connection on the socket fabric holds one file descriptor,
/// and each reactor shard holds an epoll instance plus its wakeup eventfd,
/// so a peer count near the process fd soft limit fails in accept/connect
/// exactly when the cluster is busiest — and shards beyond the core count
/// add cross-thread wakeups and cache migration without adding parallelism.
pub fn judge_serve(shape: &ServeShape, host: &HostFacts) -> LintReport {
    let mut out: Vec<Diagnostic> = Vec::new();
    if let Some(limit) = host.fd_soft_limit {
        let overhead = serve_overhead_fds(shape.reactor_shards);
        let need = shape.peer_connections + overhead;
        if need > limit {
            out.push(Diagnostic::new(
                codes::REACTOR_CAPACITY,
                Severity::Warning,
                format!(
                    "deployment expects {} peer connection(s), which with {overhead} runtime fd(s) of overhead needs {need} fds against a process soft limit of {limit}: accepts and connects will fail mid-run (raise the limit or shrink the deployment)",
                    shape.peer_connections
                ),
            ));
        }
    }
    out.extend(over_sharded(codes::REACTOR_CAPACITY, shape.reactor_shards, host));
    LintReport::new(out)
}

/// CN058: a portal's shape exceeds what its host can hold.
///
/// Every in-flight submission the portal admits holds an HTTP connection
/// fd on top of what the process holds once (its listener and reactor, and
/// the client fabric all jobs share, if it runs them on the wire), so
/// `--max-inflight` near the fd soft limit makes accepts fail exactly when
/// the portal is busiest. Shards
/// beyond the core count add wakeups without parallelism (as for CN057),
/// and `max_inflight × body-limit` bounds the memory queued request bodies
/// can pin — worth checking against the host's memory before a flood finds
/// it.
pub fn judge_portal(shape: &PortalShape, host: &HostFacts) -> LintReport {
    let mut out: Vec<Diagnostic> = Vec::new();
    if let Some(limit) = host.fd_soft_limit {
        let overhead = portal_overhead_fds(shape);
        let need = shape.max_inflight * FDS_PER_INFLIGHT_JOB + overhead;
        if need > limit {
            out.push(Diagnostic::new(
                codes::PORTAL_CAPACITY,
                Severity::Warning,
                format!(
                    "portal admits {} in-flight submission(s), each pinning {FDS_PER_INFLIGHT_JOB} fd (its HTTP connection), which with {overhead} runtime fd(s) of overhead needs {need} fds against a process soft limit of {limit}: accepts and submits will fail under load (lower --max-inflight or raise the limit)",
                    shape.max_inflight
                ),
            ));
        }
    }
    out.extend(over_sharded(codes::PORTAL_CAPACITY, shape.reactor_shards, host));
    if let Some(memory_mb) = host.memory_mb {
        let worst_mb = shape.max_inflight * shape.max_body_bytes / (1024 * 1024);
        if worst_mb > memory_mb {
            out.push(Diagnostic::new(
                codes::PORTAL_CAPACITY,
                Severity::Warning,
                format!(
                    "portal can buffer {} in-flight bodies of up to {} byte(s) each — {worst_mb} MB in the worst case against a {memory_mb} MB host budget: a submission flood can exhaust memory before admission rejects (lower --max-inflight or --body-limit)",
                    shape.max_inflight, shape.max_body_bytes
                ),
            ));
        }
    }
    LintReport::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(fd_soft_limit: u64, cores: u64) -> HostFacts {
        HostFacts { fd_soft_limit: Some(fd_soft_limit), cores, memory_mb: None }
    }

    fn codes_of(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn reactor_capacity_judges_deployment_against_host_limits() {
        let judge = |peer_connections, reactor_shards, host: HostFacts| {
            judge_serve(&ServeShape { peer_connections, reactor_shards }, &host)
        };
        // 10k peers against a 1024-fd soft limit, 4 shards on 2 cores:
        // both findings fire, as warnings.
        let report = judge(10_000, 4, host(1024, 2));
        let warned = report.diagnostics();
        assert_eq!(codes_of(&report), [codes::REACTOR_CAPACITY; 2], "{}", report.to_text());
        assert!(warned.iter().all(|d| d.severity == Severity::Warning));
        assert!(warned.iter().any(|d| d.message.contains("1024")), "{}", report.to_text());
        assert!(
            warned.iter().any(|d| d.message.contains("available core")),
            "{}",
            report.to_text()
        );
        // A shape that fits stays quiet, fd overhead included: 1010 peers
        // plus 3+3+2*2 = 10 overhead fds exactly meets a 1020 limit...
        assert!(judge(1010, 2, host(1020, 2)).is_empty());
        // ...and one more peer tips it over.
        assert_eq!(codes_of(&judge(1011, 2, host(1020, 2))), [codes::REACTOR_CAPACITY]);
        // Over-sharding warns on its own; an unreadable limit judges cores only.
        assert_eq!(codes_of(&judge(1, 3, host(1024, 2))), [codes::REACTOR_CAPACITY]);
        let unknown = HostFacts { fd_soft_limit: None, ..host(0, 2) };
        assert!(judge(1_000_000, 2, unknown).is_empty());
    }

    fn wire_portal(max_inflight: u64, reactor_shards: u64) -> PortalShape {
        PortalShape { max_inflight, reactor_shards, max_body_bytes: 1 << 20, client_fabric: true }
    }

    #[test]
    fn portal_capacity_judges_fds_cores_and_memory() {
        let shape = wire_portal(16, 2);
        let roomy = HostFacts { memory_mb: Some(256), ..host(1024, 2) };
        assert!(judge_portal(&shape, &roomy).is_empty());
        // 16 MiB of bodies against 15 MB of memory, and one fd short.
        let overhead = portal_overhead_fds(&shape);
        let tight =
            HostFacts { fd_soft_limit: Some(16 + overhead - 1), memory_mb: Some(15), cores: 2 };
        let report = judge_portal(&shape, &tight);
        assert_eq!(codes_of(&report), [codes::PORTAL_CAPACITY; 2], "{}", report.to_text());
        // Unknown memory is no opinion on that axis.
        assert!(judge_portal(&shape, &HostFacts { memory_mb: None, ..roomy }).is_empty());
    }

    /// A `--sim` portal holds no client fabric, so it fits under a limit at
    /// which the same shape on the wire warns: a default portal, 64 in
    /// flight on one shard, against `ulimit -n 80`.
    #[test]
    fn a_sim_portal_is_not_charged_for_a_client_fabric() {
        let (wire, limit) = (wire_portal(64, 1), host(80, 2));
        let sim = PortalShape { client_fabric: false, ..wire.clone() };
        assert_eq!(codes_of(&judge_portal(&wire, &limit)), [codes::PORTAL_CAPACITY]);
        assert!(judge_portal(&sim, &limit).is_empty(), "{}", judge_portal(&sim, &limit).to_text());
        // 64 connections and stdio, the listener and one shard's two fds.
        assert_eq!(portal_overhead_fds(&sim), 6);
        assert!(!judge_portal(&sim, &host(69, 2)).is_empty());
    }

    #[test]
    fn the_live_probe_reads_this_host() {
        let facts = HostFacts::probe();
        assert!(facts.cores >= 1);
        assert!(facts.fd_soft_limit.is_some_and(|limit| limit > 3), "{facts:?}");
        assert!(facts.memory_mb.is_some_and(|mb| mb > 0), "{facts:?}");
    }
}
