//! The other domain workloads from the task library: Monte-Carlo π
//! estimation, distributed word count, and row-block matrix multiply —
//! the "scientific and other applications that lend themselves to parallel
//! computing" of the paper's introduction.
//!
//! ```sh
//! cargo run --example workloads
//! ```

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::core::Neighborhood;
use computational_neighborhood::tasks::{matmul, montecarlo, wordcount};

fn main() {
    let neighborhood = Neighborhood::deploy(NodeSpec::fleet(4, 8192, 16));

    // Monte-Carlo π.
    let pi = montecarlo::run_pi(&neighborhood, 8, 100_000, 424242).expect("pi job");
    println!("π estimate from 8×100k samples: {pi:.5} (true: {:.5})", std::f64::consts::PI);

    // Word count.
    let shards = [
        "clustering is the use of multiple computers to form what appears \
         to users as a single computing resource",
        "the guiding principle for cn is simplicity for the programmer and the end user",
        "each job is represented as an activity and each task as an action state",
    ];
    let counts = wordcount::run_wordcount(&neighborhood, &shards).expect("wordcount job");
    let mut top: Vec<(&String, &u64)> = counts.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    println!("top words: {:?}", &top[..top.len().min(5)]);

    // Matrix multiply.
    let n = 16;
    let a: Vec<i64> = (0..n * n).map(|i| (i % 7) as i64 - 3).collect();
    let b: Vec<i64> = (0..n * n).map(|i| (i % 5) as i64 - 2).collect();
    let c = matmul::run_matmul(&neighborhood, n, &a, &b, 4).expect("matmul job");
    assert_eq!(c, matmul::matmul_sequential(n, &a, &b));
    println!("16×16 distributed matmul verified against the sequential kernel");

    let sent = neighborhood.recorder().counter("net.sent").get();
    println!("total fabric traffic: {sent} messages");
    neighborhood.shutdown();
}
