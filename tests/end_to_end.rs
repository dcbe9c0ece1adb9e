//! Cross-crate integration tests: the whole tool chain from UML model to
//! executed job, under normal and degraded conditions.

use std::time::Duration;

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::cnx;
use computational_neighborhood::core::{
    self, ClientError, CnApi, DynamicArgs, JobRequirements, Neighborhood, NeighborhoodConfig,
    TaskSpec, UserData,
};
use computational_neighborhood::model;
use computational_neighborhood::tasks::{
    self, floyd_parallel, floyd_sequential, random_digraph, run_transitive_closure, seed_input,
    Matrix, TcOptions,
};
use computational_neighborhood::transform::{
    figure2_model, figure2_settings, xmi_to_cnx_native, xmi_to_cnx_xslt, Pipeline, PipelineOptions,
};

fn xmi_of(workers: usize) -> String {
    computational_neighborhood::xml::write_document(
        &model::export_xmi(&figure2_model(workers)),
        &computational_neighborhood::xml::WriteOptions::xmi(),
    )
}

#[test]
fn model_to_execution_produces_correct_shortest_paths() {
    let nb = Neighborhood::deploy(NodeSpec::fleet(3, 8192, 16));
    tasks::publish_all_archives(nb.registry());
    let input = random_digraph(32, 0.15, 1..12, 77);
    let workers = 4;
    let worker_names: Vec<String> = (1..=workers).map(|i| format!("tctask{i}")).collect();
    let input2 = input.clone();
    let options = PipelineOptions {
        settings: figure2_settings(),
        dynamic: DynamicArgs::new(),
        timeout: Duration::from_secs(120),
        seed: Some(Box::new(move |job| {
            seed_input(job, "matrix.txt", &input2, &worker_names, "tctask999")
        })),
    };
    let run = Pipeline::new(&nb).run(&figure2_model(workers), options).unwrap();
    let via_pipeline = Matrix::from_userdata(run.reports[0].result("tctask999").unwrap()).unwrap();

    // Three independent implementations agree: the message-passing CN job,
    // the shared-memory parallel baseline, and sequential Floyd.
    assert_eq!(via_pipeline, floyd_sequential(&input));
    assert_eq!(via_pipeline, floyd_parallel(&input, workers));
    nb.shutdown();
}

#[test]
fn direct_api_and_pipeline_paths_agree() {
    let nb = Neighborhood::deploy(NodeSpec::fleet(2, 8192, 16));
    tasks::publish_all_archives(nb.registry());
    let input = random_digraph(20, 0.25, 1..8, 3);
    let direct = run_transitive_closure(&nb, &input, &TcOptions::new(3)).unwrap();
    assert_eq!(direct, floyd_sequential(&input));
    nb.shutdown();
}

#[test]
fn xslt_and_native_transform_agree_across_sizes() {
    for workers in [1, 2, 7, 16] {
        let xmi = xmi_of(workers);
        let via_xslt =
            cnx::parse_cnx(&xmi_to_cnx_xslt(&xmi, &figure2_settings()).unwrap()).unwrap();
        let via_native = xmi_to_cnx_native(&xmi, &figure2_settings()).unwrap();
        let norm = computational_neighborhood::transform::xmi2cnx::normalized;
        assert_eq!(norm(via_xslt), norm(via_native), "divergence at {workers} workers");
    }
}

#[test]
fn crashed_node_excluded_from_placement_but_job_succeeds() {
    let nb = Neighborhood::deploy(NodeSpec::fleet(3, 8192, 16));
    tasks::publish_all_archives(nb.registry());
    nb.node("node1").unwrap().crash();
    let input = random_digraph(10, 0.3, 1..5, 9);
    let result = run_transitive_closure(&nb, &input, &TcOptions::new(2)).unwrap();
    assert_eq!(result, floyd_sequential(&input));
    nb.shutdown();
}

#[test]
fn partitioned_manager_surfaces_as_client_timeout() {
    let nb = Neighborhood::deploy(NodeSpec::fleet(2, 8192, 16));
    nb.registry().publish(
        core::TaskArchive::new("x.jar")
            .class("X", || Box::new(|_ctx: &mut core::TaskContext| Ok(UserData::Empty))),
    );
    let api = CnApi::initialize(&nb);
    let mut job = api.create_job(&JobRequirements::default()).unwrap();
    let manager = job.manager().to_string();
    let mut t = TaskSpec::new("t", "x.jar", "X");
    t.memory_mb = 64;
    job.add_task(t).unwrap();
    // Cut the manager off before the start message reaches it.
    let addr = nb.server_addr(&manager).unwrap();
    nb.network().partition(addr);
    job.start().unwrap();
    match job.wait(Duration::from_millis(400)) {
        Err(ClientError::Timeout(_)) => {}
        other => panic!("expected a timeout, got {other:?}"),
    }
    nb.shutdown();
}

#[test]
fn placement_survives_lost_solicitation() {
    // The preferred worker never hears the TaskManager solicitation (the
    // multicast to it is dropped); placement proceeds on the remaining
    // bidder and the job completes. Only `a-manager` has the two free slots
    // the job asks of its JobManager, so it manages the job; at 60 MB it
    // cannot host the task itself.
    let nb = Neighborhood::deploy(vec![
        NodeSpec::new("a-manager", 60, 4),
        NodeSpec::new("b-worker", 4096, 1),
        NodeSpec::new("c-worker", 4096, 1),
    ]);
    nb.registry().publish(
        core::TaskArchive::new("x.jar").class("X", || {
            Box::new(|_ctx: &mut core::TaskContext| Ok(UserData::Text("ran".into())))
        }),
    );
    let api = CnApi::initialize(&nb);
    let mut job =
        api.create_job(&JobRequirements { min_free_slots: 2, ..Default::default() }).unwrap();
    assert_eq!(job.manager(), "a-manager");
    nb.network().drop_next(nb.server_addr("b-worker").unwrap(), 1);
    let mut t = TaskSpec::new("t", "x.jar", "X");
    t.memory_mb = 100;
    job.add_task(t).unwrap();
    job.start().unwrap();
    let report = job.wait(Duration::from_secs(10)).unwrap();
    assert_eq!(report.result("t"), Some(&UserData::Text("ran".into())));
    assert!(nb.recorder().counter("net.dropped").get() >= 1);
    nb.shutdown();
}

/// A scripted fake TaskManager: joins the discovery group, outbids every
/// real server for task placement, then misbehaves per `Behaviour`.
fn spawn_fake_taskmanager(
    nb: &Neighborhood,
    name: &'static str,
    behaviour: FakeBehaviour,
) -> std::thread::JoinHandle<()> {
    let net = nb.network().clone();
    let (addr, rx) = net.register();
    net.join_group(addr, computational_neighborhood::cluster::network::DISCOVERY_GROUP);
    std::thread::spawn(move || {
        while let Ok(env) = rx.recv_timeout(Duration::from_secs(5)) {
            match env.msg {
                core::NetMsg::SolicitTaskManager { job, task, reply_to, .. } => {
                    // An irresistible bid: idle, practically infinite memory.
                    let bid = core::message::Bid {
                        server: name.to_string(),
                        addr,
                        load: 0.0,
                        free_memory_mb: 1 << 40,
                        free_slots: 1 << 20,
                        signal: Default::default(),
                    };
                    let _ =
                        net.send(addr, reply_to, core::NetMsg::TaskManagerBid { job, task, bid });
                }
                core::NetMsg::AssignTask { job, spec, reply_to, .. } => match behaviour {
                    FakeBehaviour::Reject => {
                        let _ = net.send(
                            addr,
                            reply_to,
                            core::NetMsg::AssignAck {
                                job,
                                task: spec.name,
                                accepted: false,
                                reason: "synthetic rejection".to_string(),
                                task_addr: None,
                            },
                        );
                    }
                    FakeBehaviour::Silent => { /* never ack: force the timeout */ }
                },
                core::NetMsg::Shutdown => break,
                _ => {}
            }
        }
        net.unregister(addr);
    })
}

#[derive(Clone, Copy)]
enum FakeBehaviour {
    Reject,
    Silent,
}

#[test]
fn placement_retries_after_rejection_and_after_timeout() {
    for behaviour in [FakeBehaviour::Reject, FakeBehaviour::Silent] {
        let rec = computational_neighborhood::observe::Recorder::new();
        let config = NeighborhoodConfig { recorder: rec.clone(), ..Default::default() };
        let nb = Neighborhood::deploy_with(NodeSpec::fleet(2, 4096, 8), config);
        nb.registry().publish(core::TaskArchive::new("x.jar").class("X", || {
            Box::new(|_ctx: &mut core::TaskContext| Ok(UserData::Text("ran".into())))
        }));
        // The fake outbids both real TaskManagers; the JobManager must fall
        // back to a real bidder after the fake misbehaves.
        let fake = spawn_fake_taskmanager(&nb, "zz-fake", behaviour);
        let api = CnApi::initialize(&nb);
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        let small = |name: &str| {
            let mut t = TaskSpec::new(name, "x.jar", "X");
            t.memory_mb = 64;
            t
        };
        job.add_task(small("t")).unwrap();
        // A burst falls back inside its one round: whatever the fake was
        // offered goes to the next-best entry of the same bid table.
        let solicitations = rec.counter("server.task_solicitations");
        let before = solicitations.get();
        job.add_tasks(vec![small("b0"), small("b1"), small("b2")]).unwrap();
        assert_eq!(solicitations.get() - before, 1);
        assert_eq!(job.placements().len(), 4);
        assert!(job.placements().iter().all(|(_, server)| server.starts_with("node")));
        job.start().unwrap();
        let report = job.wait(Duration::from_secs(10)).unwrap();
        for task in ["t", "b0", "b1", "b2"] {
            assert_eq!(report.result(task), Some(&UserData::Text("ran".into())));
        }
        nb.shutdown();
        drop(fake); // fake thread exits on its own receive timeout
    }
}

#[test]
fn insufficient_aggregate_memory_fails_placement_cleanly() {
    let nb = Neighborhood::deploy(NodeSpec::fleet(2, 512, 4));
    nb.registry().publish(
        core::TaskArchive::new("big.jar")
            .class("Big", || Box::new(|_ctx: &mut core::TaskContext| Ok(UserData::Empty))),
    );
    let api = CnApi::initialize(&nb);
    let mut job = api.create_job(&JobRequirements::default()).unwrap();
    let mut t = TaskSpec::new("big", "big.jar", "Big");
    t.memory_mb = 4096; // more than any node has
    match job.add_task(t) {
        Err(ClientError::PlacementFailed { .. }) => {}
        other => panic!("expected placement failure, got {other:?}"),
    }
    nb.shutdown();
}

#[test]
fn many_small_jobs_share_the_neighborhood() {
    let nb = Neighborhood::deploy(NodeSpec::fleet(4, 8192, 32));
    nb.registry().publish(core::TaskArchive::new("id.jar").class("Id", || {
        Box::new(|ctx: &mut core::TaskContext| {
            Ok(UserData::I64s(vec![ctx.param_i64(0).unwrap_or(-1)]))
        })
    }));
    let api = CnApi::initialize(&nb);
    let mut handles = Vec::new();
    for j in 0..6 {
        let mut job = api.create_job(&JobRequirements::default()).unwrap();
        for t in 0..3 {
            let mut spec = TaskSpec::new(format!("t{t}"), "id.jar", "Id");
            spec.params.push(cnx::Param::integer(j * 10 + t));
            spec.memory_mb = 64;
            job.add_task(spec).unwrap();
        }
        job.start().unwrap();
        handles.push((j, job));
    }
    for (j, job) in handles {
        let report = job.wait(Duration::from_secs(30)).unwrap();
        for t in 0..3 {
            assert_eq!(
                report.result(&format!("t{t}")),
                Some(&UserData::I64s(vec![j * 10 + t])),
                "job {j} task {t}"
            );
        }
    }
    nb.shutdown();
}

#[test]
fn scheduling_policies_all_complete_the_guiding_example() {
    for policy in [core::Policy::LeastLoaded, core::Policy::RoundRobin, core::Policy::LoadAware] {
        let config = NeighborhoodConfig {
            server: core::ServerConfig { policy, ..Default::default() },
            ..Default::default()
        };
        let nb = Neighborhood::deploy_with(NodeSpec::fleet(3, 8192, 16), config);
        tasks::publish_all_archives(nb.registry());
        let input = random_digraph(12, 0.3, 1..5, 1);
        let result = run_transitive_closure(&nb, &input, &TcOptions::new(3)).unwrap();
        assert_eq!(result, floyd_sequential(&input), "policy {policy:?}");
        nb.shutdown();
    }
}

#[test]
fn generated_rust_client_mirrors_descriptor_execution() {
    // The generated client's structure must enumerate exactly the API calls
    // the interpreted executor performs: one TaskSpec per CNX task, one job
    // per CNX job, and per job one add_tasks burst, one start and one wait
    // (made by `run` once for each job `jobs()` returns).
    let doc = cnx::ast::figure2_descriptor(5);
    let src =
        computational_neighborhood::transform::cnx2rust::cnx_to_rust_xslt(&cnx::write_cnx(&doc))
            .expect("CNX2Rust");
    assert_eq!(src.matches("tasks.push(t);").count(), doc.task_count());
    assert_eq!(src.matches("jobs.push(tasks);").count(), doc.client.jobs.len());
    assert_eq!(src.matches("for tasks in jobs() {").count(), 1);
    assert_eq!(src.matches(".add_tasks(tasks)").count(), 1);
    assert_eq!(src.matches("job.start()").count(), 1);
    assert_eq!(src.matches("job.wait(").count(), 1);
}

#[test]
fn job_events_include_lifecycle_for_every_task() {
    let nb = Neighborhood::deploy(NodeSpec::fleet(2, 8192, 16));
    tasks::publish_all_archives(nb.registry());
    let input = random_digraph(8, 0.4, 1..4, 2);
    tasks::publish_tc_archives(nb.registry());
    let api = CnApi::initialize(&nb);
    let mut job = api.create_job(&JobRequirements::default()).unwrap();
    let mut split = TaskSpec::new("tctask0", "tasksplit.jar", tasks::transclosure::SPLIT_CLASS);
    split.params.push(cnx::Param::string("matrix.txt"));
    split.memory_mb = 64;
    job.add_task(split).unwrap();
    let mut w = TaskSpec::new("tctask1", "tctask.jar", tasks::transclosure::WORKER_CLASS);
    w.depends = vec!["tctask0".into()];
    w.memory_mb = 64;
    job.add_task(w).unwrap();
    let mut join = TaskSpec::new("tctask999", "taskjoin.jar", tasks::transclosure::JOIN_CLASS);
    join.depends = vec!["tctask1".into()];
    join.memory_mb = 64;
    job.add_task(join).unwrap();
    seed_input(&mut job, "matrix.txt", &input, &["tctask1".to_string()], "tctask999")
        .expect("seed input");
    job.start().unwrap();
    let report = job.wait(Duration::from_secs(30)).unwrap();
    // "Get Messages from Tasks": every task produced started + completed.
    for name in ["tctask0", "tctask1", "tctask999"] {
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, core::CnMessage::TaskStarted { task } if task == name)));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, core::CnMessage::TaskCompleted { task, .. } if task == name)));
    }
    nb.shutdown();
}
