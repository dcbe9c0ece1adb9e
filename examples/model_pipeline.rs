//! The full model-driven pipeline of paper Figure 6:
//!
//! 1. build the UML activity diagram for the transitive-closure job,
//! 2. export it as XMI,
//! 3. transform XMI → CNX with the XMI2CNX **XSLT** stylesheet,
//! 4. transform CNX → client programs (Rust + the paper's Java),
//! 5. deploy archives to the CN servers,
//! 6. execute and print results.
//!
//! ```sh
//! cargo run --example model_pipeline
//! ```

use std::time::Duration;

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::core::{DynamicArgs, Neighborhood};
use computational_neighborhood::model::render::to_ascii;
use computational_neighborhood::tasks::{
    self, floyd_sequential, random_digraph, seed_input, Matrix,
};
use computational_neighborhood::transform::{
    figure2_model, figure2_settings, Pipeline, PipelineOptions,
};

fn main() {
    let workers = 4;
    let neighborhood = Neighborhood::deploy(NodeSpec::fleet(3, 8192, 16));
    tasks::publish_all_archives(neighborhood.registry());

    // Step 1: the model (Figure 3 shape, CNX task names).
    let model = figure2_model(workers);
    println!("== activity diagram ==\n{}", to_ascii(&model));

    let input = random_digraph(24, 0.2, 1..9, 7);
    let worker_names: Vec<String> = (1..=workers).map(|i| format!("tctask{i}")).collect();
    let input_for_seed = input.clone();
    let options = PipelineOptions {
        settings: figure2_settings(),
        dynamic: DynamicArgs::new(),
        timeout: Duration::from_secs(60),
        seed: Some(Box::new(move |job| {
            seed_input(job, "matrix.txt", &input_for_seed, &worker_names, "tctask999")
        })),
    };

    let run = Pipeline::new(&neighborhood).run(&model, options).expect("pipeline");

    println!("== stage timings ==");
    for t in &run.timings {
        println!("  {:<16} {:?}", t.stage, t.elapsed);
    }
    println!("\n== CNX client descriptor (Figure 2 artifact) ==\n{}", run.cnx_text);
    println!("== generated Java client (first 12 lines) ==");
    for line in run.java_source.lines().take(12) {
        println!("  {line}");
    }
    println!("\n== generated Rust client (first 12 lines) ==");
    for line in run.rust_source.lines().take(12) {
        println!("  {line}");
    }

    let result = Matrix::from_userdata(run.reports[0].result("tctask999").unwrap()).unwrap();
    assert_eq!(result, floyd_sequential(&input));
    println!(
        "\nexecution verified against sequential Floyd ({} tasks)",
        run.descriptor.task_count()
    );
    neighborhood.shutdown();
}
