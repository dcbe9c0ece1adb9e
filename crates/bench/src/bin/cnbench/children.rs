//! The system under test, spawned as child processes so that CPU and
//! memory are the system's own and not the load generator's.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use crate::procfs::{self, ProcSample};

/// Dead-man switch: every child exits on its own after this long, even if
/// the benchmark is killed before it can reap them. `--seconds` may not
/// exceed it, and a deployment lives for at most a third of `--seconds`
/// plus its set-up, or for one staged replay.
pub const RUN_FOR_S: u64 = 170;
const READY_TIMEOUT: Duration = Duration::from_secs(15);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Portal,
    Serve,
}

struct Proc {
    role: Role,
    child: Child,
}

/// A running deployment. Dropping it (normally or while unwinding from a
/// panic) kills every child and waits for it.
pub struct Cluster {
    procs: Vec<Proc>,
    pub http_port: u16,
    pub serve_ports: Vec<u16>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
        }
        for p in &mut self.procs {
            let _ = p.child.wait();
        }
    }
}

/// CPU, memory and switches summed per role at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterSample {
    pub portal: ProcSample,
    pub serve: ProcSample,
}

impl ClusterSample {
    pub fn rss_peak_mb(&self) -> f64 {
        self.portal.rss_peak_mb + self.serve.rss_peak_mb
    }

    pub fn ctx_switches(&self) -> u64 {
        self.portal.ctx_switches + self.serve.ctx_switches
    }
}

impl Cluster {
    /// Read `/proc` for every child; a child that died is an error (its
    /// numbers would silently vanish from the sums).
    pub fn sample(&self) -> Result<ClusterSample, String> {
        let mut out = ClusterSample::default();
        for p in &self.procs {
            let s = procfs::sample(p.child.id())
                .ok_or_else(|| format!("{:?} child {} is gone", p.role, p.child.id()))?;
            let sum = match p.role {
                Role::Portal => &mut out.portal,
                Role::Serve => &mut out.serve,
            };
            sum.cpu_ms += s.cpu_ms;
            sum.rss_peak_mb += s.rss_peak_mb;
            sum.ctx_switches += s.ctx_switches;
        }
        Ok(out)
    }
}

/// Reserve `n` distinct ports by binding ephemeral listeners, then release
/// them for the children to bind. Another process could take one in
/// between; the child then fails its readiness check and the run errors.
fn reserve_ports(n: usize) -> Result<Vec<u16>, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve port: {e}")))
        .collect::<Result<_, _>>()?;
    listeners.iter().map(|l| l.local_addr().map(|a| a.port()).map_err(|e| e.to_string())).collect()
}

/// Spawn `cmd` and wait for its readiness line (`<word> <name> on
/// 127.0.0.1:<port>`), returning the child and the port it reports.
fn spawn_ready(mut cmd: Command, first_word: &str) -> Result<(Child, u16), String> {
    let what = format!("{:?}", cmd);
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {what}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    // The reader ends with the child's stdout, so it never outlives the kill.
    let reader = std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let _ = tx.send(line);
    });
    let line = rx.recv_timeout(READY_TIMEOUT).unwrap_or_default();
    let port = line
        .strip_prefix(first_word)
        .and_then(|rest| rest.trim().rsplit(':').next())
        .and_then(|p| p.parse::<u16>().ok());
    match port {
        Some(port) => {
            let _ = reader.join();
            Ok((child, port))
        }
        None => {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            Err(format!("{what}: no readiness line (got {line:?})"))
        }
    }
}

fn csv(ports: impl Iterator<Item = u16>) -> String {
    ports.map(|p| p.to_string()).collect::<Vec<_>>().join(",")
}

/// Three `cnctl serve` processes peered with each other and a `cnctl
/// portal --peers` in front, all on their defaults.
pub fn wire_cluster(cnctl: &Path, digraph_seed: u64) -> Result<Cluster, String> {
    let serve_ports = reserve_ports(3)?;
    let mut cluster = Cluster { procs: Vec::new(), http_port: 0, serve_ports: serve_ports.clone() };
    for &port in &serve_ports {
        let mut cmd = Command::new(cnctl);
        cmd.args(["serve", "--port", &port.to_string()])
            .args(["--peers", &csv(serve_ports.iter().copied().filter(|p| *p != port))])
            .args(["--run-for", &RUN_FOR_S.to_string()]);
        let (child, _) = spawn_ready(cmd, "serving ")?;
        cluster.procs.push(Proc { role: Role::Serve, child });
    }
    let mut cmd = Command::new(cnctl);
    cmd.args(["portal", "--http-port", "0", "--peers", &csv(serve_ports.iter().copied())])
        .args(["--seed", &digraph_seed.to_string()])
        .args(["--run-for", &RUN_FOR_S.to_string()]);
    let (child, http_port) = spawn_ready(cmd, "portal ")?;
    cluster.procs.push(Proc { role: Role::Portal, child });
    cluster.http_port = http_port;
    Ok(cluster)
}

/// `cnctl portal --sim 3`: jobs run on the in-process simulated network.
pub fn sim_portal(cnctl: &Path, digraph_seed: u64) -> Result<Cluster, String> {
    let mut cmd = Command::new(cnctl);
    cmd.args(["portal", "--http-port", "0", "--sim", "3"])
        .args(["--seed", &digraph_seed.to_string()])
        .args(["--run-for", &RUN_FOR_S.to_string()]);
    portal_only(cmd)
}

/// This executable re-run as `--stub-portal`: the real portal front end
/// with execution stubbed out (see `stub_portal_main`).
pub fn stub_portal(workers: usize) -> Result<Cluster, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--stub-portal", "--workers", &workers.to_string()])
        .args(["--run-for", &RUN_FOR_S.to_string()]);
    portal_only(cmd)
}

fn portal_only(cmd: Command) -> Result<Cluster, String> {
    let (child, http_port) = spawn_ready(cmd, "portal ")?;
    Ok(Cluster { procs: vec![Proc { role: Role::Portal, child }], http_port, serve_ports: vec![] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_ports_are_distinct() {
        let mut ports = reserve_ports(4).unwrap();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 4);
    }

    #[test]
    fn readiness_line_yields_the_port_and_a_silent_child_is_reaped() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo 'portal p on 127.0.0.1:4711'; exec sleep 30"]);
        let (child, port) = spawn_ready(cmd, "portal ").unwrap();
        assert_eq!(port, 4711);
        let cluster = Cluster {
            procs: vec![Proc { role: Role::Portal, child }],
            http_port: port,
            serve_ports: vec![],
        };
        let pid = cluster.procs[0].child.id();
        assert!(cluster.sample().is_ok());
        drop(cluster);
        assert_eq!(procfs::sample(pid), None, "dropped cluster left its child running");

        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo 'something else'"]);
        assert!(spawn_ready(cmd, "portal ").unwrap_err().contains("no readiness line"));
    }
}
