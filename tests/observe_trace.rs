//! Trace determinism and well-formedness over the Figure-6 pipeline.
//!
//! The observability contract (DESIGN.md §8): for a fixed seed, the
//! *canonical* exports — the JSONL span journal and the Chrome trace — are
//! byte-identical across runs, even though raw capture order and logical
//! timestamps vary with thread interleaving. The span forest must also be
//! well-formed: every span closed, every child inside its parent's
//! interval, and no task span attached to another job's span.

use std::collections::HashMap;
use std::time::Duration;

use computational_neighborhood::cluster::NodeSpec;
use computational_neighborhood::core::{DynamicArgs, Neighborhood, NeighborhoodConfig};
use computational_neighborhood::observe::export::{canonical_spans, CanonicalSpan};
use computational_neighborhood::observe::{chrome_trace, journal_jsonl, Recorder};
use computational_neighborhood::tasks::{self, random_digraph, seed_input};
use computational_neighborhood::transform::{self, figure2_settings};

/// One full recorded Figure-6 pipeline run (model → … → execute) on a
/// 3-node fleet with `workers` transitive-closure workers.
fn traced_fig6_run(workers: usize) -> Recorder {
    let rec = Recorder::new();
    let nb = Neighborhood::deploy_with(
        NodeSpec::fleet(3, 8192, 16),
        NeighborhoodConfig { recorder: rec.clone(), ..Default::default() },
    );
    tasks::publish_all_archives(nb.registry());
    let input = random_digraph(16, 0.25, 1..9, 3);
    let worker_names: Vec<String> = (1..=workers).map(|i| format!("tctask{i}")).collect();
    let options = transform::PipelineOptions {
        settings: figure2_settings(),
        dynamic: DynamicArgs::new(),
        timeout: Duration::from_secs(60),
        seed: Some(Box::new(move |job| {
            seed_input(job, "matrix.txt", &input, &worker_names, "tctask999")
        })),
    };
    transform::Pipeline::new(&nb)
        .run(&transform::figure2_model(workers), options)
        .expect("pipeline");
    nb.shutdown();
    rec
}

#[test]
fn fig6_journal_is_byte_identical_across_same_seed_runs() {
    let a = traced_fig6_run(4);
    let b = traced_fig6_run(4);
    assert_eq!(journal_jsonl(&a), journal_jsonl(&b), "journal must be seed-reproducible");
    assert_eq!(chrome_trace(&a), chrome_trace(&b), "chrome trace must be seed-reproducible");
}

#[test]
fn fig6_trace_covers_stages_and_tasks() {
    let rec = traced_fig6_run(3);
    let journal = journal_jsonl(&rec);
    for name in [
        "pipeline",
        "validate-model",
        "export-xmi",
        "xmi2cnx-xslt",
        "validate-cnx",
        "codegen",
        "execute",
        "tctask0",
        "tctask1",
        "tctask2",
        "tctask3",
        "tctask999",
        "seed-input",
    ] {
        assert!(journal.contains(&format!("\"name\":\"{name}\"")), "missing {name}:\n{journal}");
    }
}

#[test]
fn fig6_span_forest_is_well_formed() {
    let rec = traced_fig6_run(4);
    let spans: Vec<CanonicalSpan> = canonical_spans(&rec.spans().snapshot());
    assert!(!spans.is_empty());
    let by_id: HashMap<u64, &CanonicalSpan> = spans.iter().map(|s| (s.id, s)).collect();
    for s in &spans {
        // Every span closed, with a sane interval.
        assert!(s.end >= s.start, "span {} ends before it starts", s.id);
        let Some(parent) = s.parent else { continue };
        let p = by_id.get(&parent).unwrap_or_else(|| panic!("span {} orphaned", s.id));
        // Child nested strictly inside the parent's interval.
        assert!(
            p.start < s.start && s.end < p.end,
            "span {} [{}, {}] escapes parent {} [{}, {}]",
            s.id,
            s.start,
            s.end,
            p.id,
            p.start,
            p.end
        );
        // No cross-job leakage: a child attributed to a job must hang off a
        // span of the same job.
        if let (Some(cj), Some(pj)) = (s.job, p.job) {
            assert_eq!(cj, pj, "span {} (job {cj}) parented under job {pj}", s.id);
        }
    }
    // Exactly one task span per task name, parented under the job span.
    let jobs: Vec<&CanonicalSpan> = spans.iter().filter(|s| s.category == "job").collect();
    assert_eq!(jobs.len(), 1, "one job in the Figure-6 run");
    for task in ["tctask0", "tctask1", "tctask999"] {
        let matches: Vec<&CanonicalSpan> =
            spans.iter().filter(|s| s.category == "task" && s.name == task).collect();
        assert_eq!(matches.len(), 1, "exactly one {task} span");
        assert_eq!(matches[0].parent, Some(jobs[0].id), "{task} must nest in the job span");
    }
}

#[test]
fn concurrent_jobs_do_not_leak_spans_across_each_other() {
    use computational_neighborhood::tasks::{run_transitive_closure, TcOptions};

    let rec = Recorder::new();
    let nb = Neighborhood::deploy_with(
        NodeSpec::fleet(3, 8192, 32),
        NeighborhoodConfig { recorder: rec.clone(), ..Default::default() },
    );
    let g = random_digraph(12, 0.3, 1..9, 5);
    // Two jobs back to back through the same recorder: task spans must stay
    // under their own job's span.
    for _ in 0..2 {
        run_transitive_closure(&nb, &g, &TcOptions::new(2)).expect("tc");
    }
    nb.shutdown();
    let spans = canonical_spans(&rec.spans().snapshot());
    let jobs: Vec<&CanonicalSpan> = spans.iter().filter(|s| s.category == "job").collect();
    assert_eq!(jobs.len(), 2);
    for s in spans.iter().filter(|s| s.category == "task") {
        let parent = s.parent.expect("task spans always have a job parent");
        let parent_span = spans.iter().find(|p| p.id == parent).expect("parent exists");
        assert_eq!(parent_span.category, "job");
        assert_eq!(parent_span.job, s.job, "task {:?} leaked across jobs", s.name);
    }
    // Each job saw a full complement of 4 tasks (split + 2 workers + join).
    for j in &jobs {
        let count = spans.iter().filter(|s| s.category == "task" && s.parent == Some(j.id)).count();
        assert_eq!(count, 4, "job rank {:?} has all four task spans", j.job);
    }
}
