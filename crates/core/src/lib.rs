//! The Computational Neighborhood (CN) runtime.
//!
//! "CN provides a modular framework comprising four main components: Job,
//! Task, JobManager and TaskManager. ... The Job and Task creation, control
//! and coordination is all done using CN API (a factory)." (paper Section 3)
//!
//! This crate is the runtime half of the reproduction:
//!
//! * [`api`] — the client-facing CN API factory ([`CnApi`], [`JobHandle`]),
//! * [`server`] — the CNServer servant (JobManager + TaskManager),
//! * [`task`] — the [`Task`] interface and [`TaskContext`] message surface,
//! * [`message`] — well-defined protocol messages + opaque user messages,
//! * [`archive`] — JAR-analogue task packaging,
//! * [`scheduler`] — bid-selection policies (JobManager & TaskManager),
//! * [`tuplespace`] — the alternative coordination medium, one space per
//!   job, held by its JobManager,
//! * [`exec`] — direct execution of CNX descriptors, including dynamic
//!   invocation expansion (paper Figure 5).
//!
//! [`Neighborhood`] bootstraps a deployment: a set of simulated nodes (from
//! [`cn_cluster`]), one CNServer per node, a shared archive registry, and
//! the multicast fabric that clients discover JobManagers through. The
//! servers share nothing else: a job's tuple space, like all of its state,
//! lives with its JobManager and is reached by messages.

pub mod api;
pub mod archive;
mod endpoint;
pub mod exec;
mod job;
pub mod message;
mod placement;
pub mod pump;
pub mod scheduler;
pub mod server;
pub mod task;
mod tm;
pub mod tuplespace;
pub mod wire;

pub use api::{ClientConfig, ClientError, CnApi, JobHandle, JobReport};
pub use archive::{ArchiveRegistry, TaskArchive};
pub use exec::{
    execute_descriptor, execute_descriptor_seeded, execute_with_api_seeded, DynamicArgs, ExecError,
};
pub use message::{CnMessage, JobId, JobRequirements, NetMsg, TaskSpec, UserData};
pub use scheduler::{LoadSignal, Policy};
pub use server::{CnServer, ServerConfig};
pub use task::{RecvError, Task, TaskContext, TaskError};
pub use tuplespace::{Field, Pattern, Space, Tuple, TupleSpace};

use std::sync::Arc;

use cn_cluster::{LatencyModel, Network, NodeHandle, NodeSpec};
use cn_observe::Recorder;

/// Configuration for a neighborhood deployment.
#[derive(Debug, Clone, Default)]
pub struct NeighborhoodConfig {
    pub server: ServerConfig,
    /// Observability handle shared by the fabric, every server, every task
    /// context, and the client API. Disabled by default: span/event call
    /// sites then cost one atomic load (DESIGN.md §8).
    pub recorder: Recorder,
}

/// A deployed CN: CNServers on every node of a (simulated) cluster.
///
/// "One could install CN servers on all the machines of a subnet and a user
/// could run their client programs from any machine on the subnet."
pub struct Neighborhood {
    net: Network<NetMsg>,
    nodes: Vec<NodeHandle>,
    servers: Vec<CnServer>,
    registry: Arc<ArchiveRegistry>,
}

impl Neighborhood {
    /// Deploy CNServers on `specs` nodes with default config.
    pub fn deploy(specs: Vec<NodeSpec>) -> Neighborhood {
        Neighborhood::deploy_with(specs, NeighborhoodConfig::default())
    }

    /// Deploy with explicit configuration.
    pub fn deploy_with(specs: Vec<NodeSpec>, config: NeighborhoodConfig) -> Neighborhood {
        // Instant and lossless, so the loss seed feeds nothing.
        let net: Network<NetMsg> =
            Network::with_recorder(LatencyModel::zero(), 0, config.recorder.clone());
        let registry = Arc::new(ArchiveRegistry::new());
        let mut nodes = Vec::with_capacity(specs.len());
        let mut servers = Vec::with_capacity(specs.len());
        for spec in specs {
            let name = spec.name.clone();
            let node = NodeHandle::new(spec);
            servers.push(CnServer::spawn(
                name,
                node.clone(),
                Arc::new(net.clone()),
                Arc::clone(&registry),
                config.server.clone(),
            ));
            nodes.push(node);
        }
        Neighborhood { net, nodes, servers, registry }
    }

    /// The shared archive registry ("file store") clients publish jars to.
    pub fn registry(&self) -> &Arc<ArchiveRegistry> {
        &self.registry
    }

    pub fn network(&self) -> &Network<NetMsg> {
        &self.net
    }

    /// The deployment's transport as the [`cn_wire::FabricHandle`]
    /// `CnApi`/`CnServer` talk to. For a simulated neighborhood it is the
    /// in-process [`Network`]; `cnctl serve`/`submit` build the same handle
    /// over a [`cn_wire::SocketFabric`] instead.
    pub fn fabric(&self) -> cn_wire::FabricHandle<NetMsg> {
        Arc::new(self.net.clone())
    }

    /// Node handle by name (failure injection).
    pub fn node(&self, name: &str) -> Option<&NodeHandle> {
        self.nodes.iter().find(|n| n.name() == name)
    }

    pub fn nodes(&self) -> &[NodeHandle] {
        &self.nodes
    }

    /// Server endpoint address by name (for partitioning).
    pub fn server_addr(&self, name: &str) -> Option<cn_cluster::Addr> {
        self.servers.iter().find(|s| s.name == name).map(|s| s.addr)
    }

    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The observability handle this deployment records into (the one from
    /// [`NeighborhoodConfig::recorder`]; disabled unless one was supplied).
    /// Its registry holds the network's `net.*` counters either way.
    pub fn recorder(&self) -> &Recorder {
        self.net.recorder()
    }

    /// Stop all servers and wait for their threads. Any active network
    /// partitions are healed first so the shutdown control messages can
    /// reach their servers.
    pub fn shutdown(mut self) {
        self.net.heal_all();
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn echo_archive() -> TaskArchive {
        TaskArchive::new("echo.jar").class("Echo", || {
            Box::new(|ctx: &mut TaskContext| {
                Ok(UserData::Text(format!("echo:{}", ctx.param_str(0).unwrap_or(""))))
            })
        })
    }

    fn deploy(n: usize) -> Neighborhood {
        let nb = Neighborhood::deploy(NodeSpec::fleet(n, 4000, 4));
        nb.registry().publish(echo_archive());
        nb
    }

    #[test]
    fn single_task_job_runs_to_completion() {
        let nb = deploy(2);
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        let mut spec = TaskSpec::new("t0", "echo.jar", "Echo");
        spec.params.push(cn_cnx::Param::string("hello"));
        job.add_task(spec).unwrap();
        job.start().unwrap();
        let report = job.wait(Duration::from_secs(10)).unwrap();
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.result("t0"), Some(&UserData::Text("echo:hello".into())));
        nb.shutdown();
    }

    #[test]
    fn dependencies_run_in_order() {
        let nb = deploy(3);
        // An archive whose tasks draw their start order from a Linda counter
        // tuple: take `["clock", n]`, put back `n + 1`, return `n`.
        nb.registry().publish(TaskArchive::new("order.jar").class("Order", || {
            Box::new(|ctx: &mut TaskContext| {
                let mut ts = ctx.tuplespace();
                let clock = ts
                    .take(&vec![Some(Field::S("clock".into())), None], Duration::from_secs(5))
                    .ok_or_else(|| TaskError::new("no clock tuple"))?;
                let Field::I(n) = clock[1] else { unreachable!("the clock is an integer") };
                ts.out(vec![Field::S("clock".into()), Field::I(n + 1)]);
                Ok(UserData::I64s(vec![n]))
            })
        }));
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        let mut a = TaskSpec::new("a", "order.jar", "Order");
        let mut b = TaskSpec::new("b", "order.jar", "Order");
        b.depends = vec!["a".into()];
        let mut c = TaskSpec::new("c", "order.jar", "Order");
        c.depends = vec!["b".into()];
        a.memory_mb = 100;
        b.memory_mb = 100;
        c.memory_mb = 100;
        job.add_task(a).unwrap();
        job.add_task(b).unwrap();
        job.add_task(c).unwrap();
        job.tuplespace().out(vec![Field::S("clock".into()), Field::I(0)]);
        job.start().unwrap();
        let report = job.wait(Duration::from_secs(10)).unwrap();
        let order = |name: &str| -> i64 {
            match report.result(name) {
                Some(UserData::I64s(stamp)) => stamp[0],
                other => panic!("{name} not recorded: {other:?}"),
            }
        };
        assert!(order("a") < order("b"));
        assert!(order("b") < order("c"));
        nb.shutdown();
    }

    /// One tuple, two `take`s from tasks on different servers: exactly one
    /// of them gets it.
    #[test]
    fn a_tuple_is_taken_once_across_servers() {
        // One slot per node: the two tasks land on different servers. Both
        // servers must bid inside the window; a healthy one closes on quorum.
        let (nb, _) = deploy_counted(NodeSpec::fleet(2, 4000, 1), Policy::LeastLoaded);
        nb.registry().publish(TaskArchive::new("race.jar").class("Race", || {
            Box::new(|ctx: &mut TaskContext| {
                let prize = vec![Some(Field::S("prize".into()))];
                let got = ctx.tuplespace().take(&prize, Duration::from_millis(200));
                Ok(UserData::I64s(vec![i64::from(got.is_some())]))
            })
        }));
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        job.add_tasks(["r0", "r1"].map(|n| TaskSpec::new(n, "race.jar", "Race")).to_vec()).unwrap();
        let servers: std::collections::HashSet<&str> =
            job.placements().iter().map(|(_, server)| server.as_str()).collect();
        assert_eq!(servers.len(), 2, "{:?}", job.placements());
        job.tuplespace().out(vec![Field::S("prize".into())]);
        job.start().unwrap();
        let report = job.wait(Duration::from_secs(10)).unwrap();
        let winners: i64 = report.results.iter().map(|(_, won)| won.as_i64s().unwrap()[0]).sum();
        assert_eq!(winners, 1, "{:?}", report.results);
        nb.shutdown();
    }

    #[test]
    fn no_jobmanager_when_requirements_unmeetable() {
        let nb = deploy(2);
        let api = CnApi::initialize(&nb);
        let req = JobRequirements { min_free_memory_mb: 1_000_000, min_free_slots: 1 };
        assert!(matches!(api.create_job(&req).err().unwrap(), ClientError::NoJobManagers));
        nb.shutdown();
    }

    #[test]
    fn placement_fails_when_memory_exhausted() {
        let nb = Neighborhood::deploy(NodeSpec::fleet(1, 1000, 8));
        nb.registry().publish(echo_archive());
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        let mut big = TaskSpec::new("big", "echo.jar", "Echo");
        big.memory_mb = 900;
        job.add_task(big).unwrap();
        let mut too_big = TaskSpec::new("too_big", "echo.jar", "Echo");
        too_big.memory_mb = 900;
        let err = job.add_task(too_big).unwrap_err();
        assert!(matches!(err, ClientError::PlacementFailed { .. }), "{err:?}");
        nb.shutdown();
    }

    #[test]
    fn missing_archive_is_rejected_at_assignment() {
        let nb = deploy(1);
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        let err = job.add_task(TaskSpec::new("x", "ghost.jar", "Nope")).unwrap_err();
        assert!(matches!(err, ClientError::PlacementFailed { .. }), "{err:?}");
        nb.shutdown();
    }

    #[test]
    fn failing_task_fails_the_job() {
        let nb = deploy(2);
        nb.registry()
            .publish(TaskArchive::new("bad.jar").class("Boom", || {
                Box::new(|_ctx: &mut TaskContext| Err(TaskError::new("kaboom")))
            }));
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        job.add_task(TaskSpec::new("boom", "bad.jar", "Boom")).unwrap();
        job.start().unwrap();
        match job.wait(Duration::from_secs(10)) {
            Err(ClientError::JobFailed(e)) => assert!(e.contains("kaboom"), "{e}"),
            other => panic!("{other:?}"),
        }
        nb.shutdown();
    }

    /// A panic in `run` is a task failure like any other: reported at once,
    /// with the slot, the memory and the run-queue place all given back.
    #[test]
    fn panicking_task_fails_the_job_and_frees_its_slot() {
        // One node with one execution slot: a leaked slot would park the
        // second job's task in the run queue for good.
        let server = ServerConfig { exec_slots: Some(1), ..ServerConfig::default() };
        let nb = Neighborhood::deploy_with(
            NodeSpec::fleet(1, 4000, 4),
            NeighborhoodConfig { server, ..NeighborhoodConfig::default() },
        );
        nb.registry().publish(echo_archive());
        nb.registry().publish(TaskArchive::new("bad.jar").class("Panic", || {
            Box::new(|ctx: &mut TaskContext| panic!("row {} out of range", ctx.name.len()))
        }));
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        job.add_task(TaskSpec::new("boom", "bad.jar", "Panic")).unwrap();
        job.start().unwrap();
        let started = std::time::Instant::now();
        match job.wait(Duration::from_secs(10)) {
            Err(ClientError::JobFailed(e)) => {
                assert!(e.contains("\"boom\"") && e.contains("panicked: row 4 out of range"), "{e}")
            }
            other => panic!("{other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(5), "reported only at the client timeout");
        for node in nb.nodes() {
            assert_eq!((node.free_slots(), node.free_memory_mb()), (4, 4000));
        }

        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        job.add_task(TaskSpec::new("t0", "echo.jar", "Echo")).unwrap();
        job.start().unwrap();
        let report = job.wait(Duration::from_secs(10)).unwrap();
        assert_eq!(report.result("t0"), Some(&UserData::Text("echo:".into())));
        nb.shutdown();
    }

    #[test]
    fn tasks_exchange_user_messages() {
        let nb = deploy(2);
        nb.registry().publish(
            TaskArchive::new("pingpong.jar")
                .class("Ping", || {
                    Box::new(|ctx: &mut TaskContext| {
                        ctx.send("pong", "ping", UserData::I64s(vec![1]))?;
                        let (_, data) = ctx
                            .recv_tagged("pong", Duration::from_secs(5))
                            .map_err(|e| TaskError::new(e.to_string()))?;
                        Ok(data)
                    })
                })
                .class("Pong", || {
                    Box::new(|ctx: &mut TaskContext| {
                        let (from, data) = ctx
                            .recv_tagged("ping", Duration::from_secs(5))
                            .map_err(|e| TaskError::new(e.to_string()))?;
                        let mut v = data.as_i64s().unwrap_or(&[]).to_vec();
                        v.push(2);
                        ctx.send(&from, "pong", UserData::I64s(v))?;
                        Ok(UserData::Empty)
                    })
                }),
        );
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        let mut ping = TaskSpec::new("ping", "pingpong.jar", "Ping");
        let mut pong = TaskSpec::new("pong", "pingpong.jar", "Pong");
        ping.memory_mb = 100;
        pong.memory_mb = 100;
        job.add_task(ping).unwrap();
        job.add_task(pong).unwrap();
        job.start().unwrap();
        let report = job.wait(Duration::from_secs(10)).unwrap();
        assert_eq!(report.result("ping"), Some(&UserData::I64s(vec![1, 2])));
        nb.shutdown();
    }

    #[test]
    fn client_messages_flow_both_ways() {
        let nb = deploy(1);
        nb.registry().publish(TaskArchive::new("chat.jar").class("Chat", || {
            Box::new(|ctx: &mut TaskContext| {
                ctx.send_to_client("hello", UserData::Text("hi client".into()))?;
                let (_, data) = ctx
                    .recv_tagged("reply", Duration::from_secs(5))
                    .map_err(|e| TaskError::new(e.to_string()))?;
                Ok(data)
            })
        }));
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        job.add_task(TaskSpec::new("chat", "chat.jar", "Chat")).unwrap();
        job.start().unwrap();
        // Get Messages from Tasks.
        let mut greeted = false;
        for _ in 0..10 {
            match job.recv_message(Duration::from_secs(5)).unwrap() {
                CnMessage::User { tag, data, .. } => {
                    assert_eq!(tag, "hello");
                    assert_eq!(data, UserData::Text("hi client".into()));
                    greeted = true;
                    break;
                }
                _ => continue,
            }
        }
        assert!(greeted);
        // Send Messages to Tasks.
        job.send_to_task("chat", "reply", UserData::Text("hi task".into())).unwrap();
        let report = job.wait(Duration::from_secs(10)).unwrap();
        assert_eq!(report.result("chat"), Some(&UserData::Text("hi task".into())));
        nb.shutdown();
    }

    #[test]
    fn jobs_distribute_across_servers_least_loaded() {
        let nb = deploy(4);
        nb.registry().publish(
            TaskArchive::new("where.jar")
                .class("Where", || Box::new(|_ctx: &mut TaskContext| Ok(UserData::Empty))),
        );
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        // 8 tasks across 4 nodes of 4 slots each: with LeastLoaded placement
        // every node should get about two.
        for i in 0..8 {
            let mut s = TaskSpec::new(format!("t{i}"), "where.jar", "Where");
            s.memory_mb = 100;
            job.add_task(s).unwrap();
        }
        job.start().unwrap();
        job.wait(Duration::from_secs(10)).unwrap();
        nb.shutdown();
    }

    #[test]
    fn crashed_node_is_avoided() {
        let nb = deploy(2);
        nb.node("node0").unwrap().crash();
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        // Everything must land on node1.
        for i in 0..3 {
            let mut s = TaskSpec::new(format!("t{i}"), "echo.jar", "Echo");
            s.memory_mb = 100;
            job.add_task(s).unwrap();
        }
        assert_eq!(job.manager(), "node1");
        job.start().unwrap();
        job.wait(Duration::from_secs(10)).unwrap();
        nb.shutdown();
    }

    /// Three nodes whose clients and servers share one `bid_window`.
    fn deploy_with_window(bid_window: Duration) -> (Neighborhood, CnApi) {
        let nb = Neighborhood::deploy_with(
            NodeSpec::fleet(3, 4000, 4),
            NeighborhoodConfig {
                server: ServerConfig { bid_window, ..ServerConfig::default() },
                ..NeighborhoodConfig::default()
            },
        );
        nb.registry().publish(echo_archive());
        let api = CnApi::with_config(&nb, ClientConfig { bid_window });
        (nb, api)
    }

    #[test]
    fn healthy_cluster_closes_every_bid_window_on_quorum() {
        // Five windows (one JobManager, four TaskManager solicitations) of
        // a second each, if any of them ran to its bound.
        let (nb, api) = deploy_with_window(Duration::from_secs(1));
        let t0 = std::time::Instant::now();
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        for i in 0..4 {
            let mut s = TaskSpec::new(format!("t{i}"), "echo.jar", "Echo");
            s.memory_mb = 100;
            job.add_task(s).unwrap();
        }
        job.start().unwrap();
        job.wait(Duration::from_secs(10)).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(900), "{:?}", t0.elapsed());
        nb.shutdown();
    }

    #[test]
    fn silent_server_costs_one_window_per_solicitation() {
        // Large beside a loaded host's scheduling delay, so a live server's
        // bid always makes it.
        let window = Duration::from_millis(200);
        let (nb, api) = deploy_with_window(window);
        nb.node("node1").unwrap().crash();
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        let light = |name: String| {
            let mut s = TaskSpec::new(name, "echo.jar", "Echo");
            s.memory_mb = 100;
            s
        };
        for i in 0..3 {
            let t0 = std::time::Instant::now();
            job.add_task(light(format!("t{i}"))).unwrap();
            // The dead server never answers: its window runs to the bound,
            // once, and the task is placed from the bids that came.
            assert!(t0.elapsed() >= window, "{:?}", t0.elapsed());
            assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        }
        // A burst is one solicitation, so the dead server costs it one
        // window, not one per task.
        let t0 = std::time::Instant::now();
        job.add_tasks((0..3).map(|i| light(format!("b{i}"))).collect()).unwrap();
        assert!(t0.elapsed() >= window, "{:?}", t0.elapsed());
        assert!(t0.elapsed() < 2 * window, "{:?}", t0.elapsed());
        assert_eq!(job.placements().len(), 6);
        assert!(job.placements().iter().all(|(_, server)| server != "node1"));
        job.start().unwrap();
        job.wait(Duration::from_secs(10)).unwrap();
        nb.shutdown();
    }

    #[test]
    fn duplicate_name_in_a_burst_fails_that_task_and_places_the_rest() {
        let nb = deploy(2);
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        let specs = ["a", "a", "b"].map(|n| TaskSpec::new(n, "echo.jar", "Echo")).to_vec();
        match job.add_tasks(specs).unwrap_err() {
            ClientError::PlacementFailed { task, reason } => {
                assert_eq!(task, "a");
                assert!(reason.contains("already exists"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(job.task_names(), ["a", "b"]);
        // And against what an earlier burst placed.
        let again = job.add_tasks(vec![TaskSpec::new("b", "echo.jar", "Echo")]).unwrap_err();
        assert!(matches!(again, ClientError::PlacementFailed { .. }), "{again:?}");
        job.start().unwrap();
        let report = job.wait(Duration::from_secs(10)).unwrap();
        let names: Vec<&str> = report.results.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        nb.shutdown();
    }

    /// A neighborhood that counts, under `policy`. Its bid windows are long
    /// enough that every live TaskManager's answer reaches the table even on
    /// a loaded host, so what it counts and places does not hang on timing:
    /// a window closes on quorum, and only one that a full TaskManager leaves
    /// unanswered runs to this bound.
    fn deploy_counted(specs: Vec<NodeSpec>, policy: Policy) -> (Neighborhood, Recorder) {
        let rec = Recorder::new();
        let bid_window = Duration::from_millis(100);
        let nb = Neighborhood::deploy_with(
            specs,
            NeighborhoodConfig {
                server: ServerConfig { policy, bid_window, ..ServerConfig::default() },
                recorder: rec.clone(),
            },
        );
        nb.registry().publish(echo_archive());
        (nb, rec)
    }

    #[test]
    fn thousand_task_burst_places_from_one_solicitation() {
        let (nb, rec) = deploy_counted(NodeSpec::fleet(4, 1 << 20, 256), Policy::LeastLoaded);
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        let specs: Vec<TaskSpec> = (0..1000)
            .map(|i| {
                let mut s = TaskSpec::new(format!("t{i}"), "echo.jar", "Echo");
                s.memory_mb = 1;
                s
            })
            .collect();
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        job.add_tasks(specs).unwrap();
        assert_eq!(rec.counter("server.task_solicitations").get(), 1);
        assert_eq!(rec.counter("server.placement_rounds").get(), 1);
        assert_eq!(rec.counter("server.tm_bids_sent").get(), 3);
        assert_eq!(rec.counter("server.assigns_sent").get(), 750);
        assert_eq!(rec.counter("api.tasks_created").get(), 1000);
        // Acked in spec order, and spread by the policy: least-loaded keeps
        // four equal nodes level, 250 each.
        assert_eq!(job.task_names(), names);
        for node in nb.nodes() {
            let here = job.placements().iter().filter(|(_, s)| s == node.name()).count();
            assert_eq!(here, 250, "{}", node.name());
            assert_eq!(node.free_slots(), 6);
        }
        job.cancel(Duration::from_secs(10)).unwrap();
        nb.shutdown();
    }

    /// The round books each choice on its bid table, so a burst is placed
    /// exactly as one auction per task would place it on a quiescent
    /// cluster — including past the point where a node fills up.
    #[test]
    fn a_burst_places_like_one_auction_per_task() {
        let uniform = || NodeSpec::fleet(3, 4000, 4);
        // Unequal slots and memory: node "b" runs out of slots and "c" out
        // of memory part-way through ten 300 MB tasks.
        let unequal = || {
            vec![
                NodeSpec::new("a", 8000, 8),
                NodeSpec::new("b", 4000, 2),
                NodeSpec::new("c", 1000, 6),
            ]
        };
        let specs = |n: usize| -> Vec<TaskSpec> {
            (0..n)
                .map(|i| {
                    let mut s = TaskSpec::new(format!("t{i}"), "echo.jar", "Echo");
                    s.memory_mb = 300;
                    s
                })
                .collect()
        };
        let place = |fleet: Vec<NodeSpec>, policy, n, burst: bool| {
            let (nb, rec) = deploy_counted(fleet, policy);
            let api = CnApi::initialize(&nb);
            let mut job = api.create_job(&JobRequirements::default()).unwrap();
            if burst {
                job.add_tasks(specs(n)).unwrap();
            } else {
                specs(n).into_iter().for_each(|s| job.add_task(s).unwrap());
            }
            let expected = if burst { 1 } else { n as u64 };
            assert_eq!(rec.counter("server.task_solicitations").get(), expected);
            let placements = job.placements().to_vec();
            job.cancel(Duration::from_secs(10)).unwrap();
            nb.shutdown();
            placements
        };
        for policy in [Policy::LeastLoaded, Policy::RoundRobin, Policy::LoadAware] {
            for (fleet, n) in [(uniform as fn() -> Vec<NodeSpec>, 12), (unequal, 10)] {
                let one_by_one = place(fleet(), policy, n, false);
                let burst = place(fleet(), policy, n, true);
                assert_eq!(burst, one_by_one, "{policy:?}");
                let servers: std::collections::HashSet<&str> =
                    burst.iter().map(|(_, s)| s.as_str()).collect();
                assert!(servers.len() > 1, "{policy:?} piled everything on {servers:?}");
            }
        }
    }

    #[test]
    fn client_can_cancel_a_running_job() {
        let nb = deploy(2);
        // A task that blocks waiting for a message that never arrives; it
        // observes Shutdown when cancelled.
        nb.registry().publish(TaskArchive::new("wait.jar").class("Waiter", || {
            Box::new(|ctx: &mut TaskContext| match ctx.recv_timeout(Duration::from_secs(30)) {
                Err(crate::RecvError::Shutdown) => Err(TaskError::new("interrupted")),
                other => Err(TaskError::new(format!("unexpected: {other:?}"))),
            })
        }));
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        let mut spec = TaskSpec::new("w", "wait.jar", "Waiter");
        spec.memory_mb = 64;
        job.add_task(spec).unwrap();
        job.start().unwrap();
        let t0 = std::time::Instant::now();
        job.cancel(Duration::from_secs(5)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "cancel must not wait out the task");
        nb.shutdown();
    }

    #[test]
    fn cancel_after_completion_is_ok() {
        let nb = deploy(1);
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        let mut spec = TaskSpec::new("t", "echo.jar", "Echo");
        spec.memory_mb = 64;
        job.add_task(spec).unwrap();
        job.start().unwrap();
        // Give the (instant) job time to finish, then cancel.
        std::thread::sleep(Duration::from_millis(50));
        job.cancel(Duration::from_secs(5)).unwrap();
        nb.shutdown();
    }

    /// A client that drops its handle gives the job up: the handle tells the
    /// JobManager, and whatever the job had placed comes back.
    #[test]
    fn a_dropped_handle_releases_what_its_job_had_placed() {
        let nb = deploy(3);
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        job.add_tasks((0..6).map(|i| TaskSpec::new(format!("t{i}"), "echo.jar", "Echo")).collect())
            .unwrap();
        let full = |n: &NodeHandle| (n.free_slots(), n.free_memory_mb()) == (4, 4000);
        assert!(!nb.nodes().iter().all(full));
        drop(job);
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while !nb.nodes().iter().all(full) {
            assert!(std::time::Instant::now() < deadline, "the abandoned job kept its placements");
            std::thread::sleep(Duration::from_millis(1));
        }
        nb.shutdown();
    }

    /// A job that can never finish — a task depends on one never created,
    /// or on one whose placement was refused — fails at `start` instead of
    /// hanging, and every slot it had placed comes back.
    #[test]
    fn a_job_that_can_never_finish_fails_instead_of_hanging() {
        let nb = deploy(2);
        let api = CnApi::initialize(&nb);
        let full = |n: &NodeHandle| (n.free_slots(), n.free_memory_mb()) == (4, 4000);
        let after = |name: &str, depends: &str| {
            let mut spec = TaskSpec::new(name, "echo.jar", "Echo");
            spec.depends = vec![depends.into()];
            spec
        };
        let mut never_created = api.create_job(&JobRequirements::default()).unwrap();
        never_created
            .add_tasks(vec![TaskSpec::new("a", "echo.jar", "Echo"), after("b", "ghost")])
            .unwrap();
        let mut refused = api.create_job(&JobRequirements::default()).unwrap();
        let mut big = TaskSpec::new("big", "echo.jar", "Echo");
        big.memory_mb = 1_000_000;
        let err = refused.add_tasks(vec![big, after("c", "big")]).unwrap_err();
        assert!(matches!(err, ClientError::PlacementFailed { .. }), "{err:?}");
        assert!(!nb.nodes().iter().all(full));

        for (mut job, task, missing) in [(never_created, "b", "ghost"), (refused, "c", "big")] {
            job.start().unwrap();
            let started = std::time::Instant::now();
            match job.wait(Duration::from_secs(10)) {
                Err(ClientError::JobFailed(e)) => assert!(
                    e.contains(&format!("task {task:?} can never start"))
                        && e.contains(&format!("{missing:?}")),
                    "{e}"
                ),
                other => panic!("{other:?}"),
            }
            assert!(started.elapsed() < Duration::from_secs(2), "{:?}", started.elapsed());
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !nb.nodes().iter().all(full) {
            assert!(std::time::Instant::now() < deadline, "the failed jobs kept their placements");
            std::thread::sleep(Duration::from_millis(1));
        }
        nb.shutdown();
    }

    #[test]
    fn all_nodes_down_means_no_managers() {
        let nb = deploy(2);
        nb.node("node0").unwrap().crash();
        nb.node("node1").unwrap().crash();
        let api = CnApi::initialize(&nb);
        assert!(matches!(
            api.create_job(&JobRequirements::default()).err().unwrap(),
            ClientError::NoJobManagers
        ));
        nb.shutdown();
    }

    #[test]
    fn discovery_outlasts_four_lost_solicitations() {
        // Every server misses the windows of 5, 10, 20 and 40 ms; the fifth
        // solicitation, 80 ms long, reaches them.
        let nb = deploy(3);
        for node in nb.nodes() {
            nb.network().drop_next(nb.server_addr(node.name()).unwrap(), 4);
        }
        let api = CnApi::initialize(&nb);
        let job = api.create_job(&JobRequirements::default()).unwrap();
        assert_eq!(nb.recorder().counter("api.jm_solicitations").get(), 5);
        drop(job);
        nb.shutdown();
    }

    #[test]
    fn discovery_ends_at_its_deadline() {
        let nb = deploy(3);
        for node in nb.nodes() {
            nb.network().partition(nb.server_addr(node.name()).unwrap());
        }
        let api = CnApi::initialize(&nb);
        let started = std::time::Instant::now();
        assert!(matches!(
            api.create_job(&JobRequirements::default()).err().unwrap(),
            ClientError::NoJobManagers
        ));
        // Windows of 5, 10, …, 640 ms: the eighth opens 635 ms in, before
        // the deadline, and is the last.
        let last = ClientConfig::default().bid_window * 128;
        assert!(started.elapsed() < api::DISCOVERY_DEADLINE + last, "{:?}", started.elapsed());
        assert_eq!(nb.recorder().counter("api.jm_solicitations").get(), 8);
        nb.shutdown();
    }
}
