//! E3 — CN runtime overheads: multicast JobManager selection, task
//! placement (solicit/bid/assign), and task-to-task message round-trips,
//! as the cluster grows. Also the scheduler-policy ablation.
//!
//! Expected shape: job creation and placement grow with node count (one
//! wake-up per bidder; the bid window closes when all have answered);
//! message round-trip is independent of cluster size.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cn_bench::{bench_client_config, bench_neighborhood};
use cn_core::{CnApi, JobRequirements, Policy, TaskArchive, TaskContext, TaskSpec, UserData};

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_overhead");
    group.sample_size(10);

    // Job creation = multicast solicitation + bid collection + CreateJob.
    for &nodes in &[1usize, 4, 16] {
        let nb = bench_neighborhood(nodes, 64);
        let api = CnApi::with_config(&nb, bench_client_config());
        group.bench_with_input(BenchmarkId::new("job_creation", nodes), &nodes, |b, _| {
            b.iter(|| api.create_job(&JobRequirements::default()).expect("job"))
        });
        nb.shutdown();
    }

    // Task placement: solicit TaskManagers, select, upload, assign.
    for &nodes in &[1usize, 4, 16] {
        let nb = bench_neighborhood(nodes, 10_000);
        nb.registry().publish(
            TaskArchive::new("noop.jar")
                .class("Noop", || Box::new(|_ctx: &mut TaskContext| Ok(UserData::Empty))),
        );
        let api = CnApi::with_config(&nb, bench_client_config());
        let mut job = api.create_job(&JobRequirements::default()).expect("job");
        let mut i = 0u64;
        group.bench_with_input(BenchmarkId::new("task_placement", nodes), &nodes, |b, _| {
            b.iter(|| {
                i += 1;
                let mut spec = TaskSpec::new(format!("t{i}"), "noop.jar", "Noop");
                spec.memory_mb = 1;
                job.add_task(spec).expect("placement")
            })
        });
        nb.shutdown();
    }

    // Client → task → client message round-trip over the fabric.
    let nb = bench_neighborhood(2, 64);
    nb.registry().publish(TaskArchive::new("echo.jar").class("EchoLoop", || {
        Box::new(|ctx: &mut TaskContext| {
            // Echo until shutdown.
            loop {
                match ctx.recv_tagged("ping", Duration::from_secs(10)) {
                    Ok((_, data)) => ctx.send_to_client("pong", data)?,
                    Err(_) => return Ok(UserData::Empty),
                }
            }
        })
    }));
    let api = CnApi::with_config(&nb, bench_client_config());
    let mut job = api.create_job(&JobRequirements::default()).expect("job");
    let mut spec = TaskSpec::new("echo", "echo.jar", "EchoLoop");
    spec.memory_mb = 16;
    job.add_task(spec).expect("place");
    job.start().expect("start");
    group.bench_function("message_round_trip", |b| {
        b.iter(|| {
            job.send_to_task("echo", "ping", UserData::I64s(vec![1, 2, 3])).expect("send");
            loop {
                match job.recv_message(Duration::from_secs(10)).expect("recv") {
                    cn_core::CnMessage::User { tag, .. } if tag == "pong" => break,
                    _ => continue,
                }
            }
        })
    });
    drop(job);
    nb.shutdown();

    // Scheduler-policy ablation on placement.
    for policy in [Policy::FirstResponder, Policy::LeastLoaded, Policy::RoundRobin] {
        let nb = {
            let config = cn_core::NeighborhoodConfig {
                server: cn_core::ServerConfig {
                    bid_window: Duration::from_micros(500),
                    policy,
                    ..Default::default()
                },
                ..Default::default()
            };
            cn_core::Neighborhood::deploy_with(
                cn_cluster::NodeSpec::fleet(8, 1 << 20, 100_000),
                config,
            )
        };
        nb.registry().publish(
            TaskArchive::new("noop.jar")
                .class("Noop", || Box::new(|_ctx: &mut TaskContext| Ok(UserData::Empty))),
        );
        let api = CnApi::with_config(&nb, bench_client_config());
        let mut job = api.create_job(&JobRequirements::default()).expect("job");
        let mut i = 0u64;
        group.bench_function(format!("placement_policy_{policy:?}"), |b| {
            b.iter(|| {
                i += 1;
                let mut spec = TaskSpec::new(format!("p{i}"), "noop.jar", "Noop");
                spec.memory_mb = 1;
                job.add_task(spec).expect("placement")
            })
        });
        drop(job);
        nb.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
