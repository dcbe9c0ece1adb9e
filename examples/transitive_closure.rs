//! The paper's guiding example end-to-end: parallel Floyd transitive
//! closure (all-pairs shortest path) with `TaskSplit`, `TCTask` workers and
//! `TCJoin`, validated against the sequential baseline and timed across
//! worker counts.
//!
//! ```sh
//! cargo run --release --example transitive_closure [n] [max_workers]
//! ```

use std::time::Instant;

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::core::Neighborhood;
use computational_neighborhood::tasks::{
    floyd_sequential, random_digraph, run_transitive_closure, TcOptions,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(96);
    let max_workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let neighborhood = Neighborhood::deploy(NodeSpec::fleet(4, 16_384, 32));
    let graph = random_digraph(n, 0.1, 1..100, 2026);

    println!("transitive closure of a {n}-node random digraph (density 0.1)");
    let t0 = Instant::now();
    let reference = floyd_sequential(&graph);
    let seq_time = t0.elapsed();
    println!("  sequential Floyd:        {seq_time:?}");

    let mut workers = 1;
    while workers <= max_workers {
        let t = Instant::now();
        let result = run_transitive_closure(&neighborhood, &graph, &TcOptions::new(workers))
            .expect("CN job");
        let elapsed = t.elapsed();
        assert_eq!(result, reference, "CN result must match sequential Floyd");
        println!(
            "  CN with {workers:2} worker(s):   {elapsed:?}  (speedup vs seq: {:.2}x)",
            seq_time.as_secs_f64() / elapsed.as_secs_f64()
        );
        workers *= 2;
    }

    // The tuple-space coordination variant (paper: "CN also supports
    // communication via tuple spaces").
    let mut opts = TcOptions::new(4);
    opts.tuplespace_workers = true;
    let t = Instant::now();
    let result = run_transitive_closure(&neighborhood, &graph, &opts).expect("CN job (ts)");
    assert_eq!(result, reference);
    println!("  tuple-space workers (4): {:?}", t.elapsed());

    let net = |counter: &str| neighborhood.recorder().counter(counter).get();
    println!(
        "network: {} messages sent, {} delivered, {} multicasts",
        net("net.sent"),
        net("net.delivered"),
        net("net.multicasts")
    );
    neighborhood.shutdown();
}
