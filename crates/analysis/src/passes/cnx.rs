//! Lint passes over CNX descriptors.
//!
//! The validity pass routes the long-standing `cn_cnx::validate_all` checks
//! through the engine — `cn_cnx::validate` stays as the thin first-error
//! API for existing call sites, while lint consumers get every finding with
//! a stable code and a source span. The remaining passes are analyses the
//! validator never did: capacity fitting, parameter typing, graph shape.

use std::collections::HashSet;

use cn_cnx::ast::{CnxDocument, Job, ParamType, Task};
use cn_cnx::{CnxValidationError, DependencyGraph, GraphError, Span};

use crate::diag::{Diagnostic, Severity};
use crate::engine::CnxContext;
use crate::explain::codes;

/// Every CNX pass — what [`crate::lint_cnx`] runs.
pub const PASSES: &[fn(&CnxContext<'_>, &mut Vec<Diagnostic>)] = &[
    validity,
    duplicate_depends,
    param_types,
    orphan_task,
    redundant_depends,
    multiplicity_bounds,
    memory_capacity,
    parallelism,
    recorder_capacity,
    payload_size,
    roundtrip,
];

/// CN009's default threshold: warn when a task's estimated parameter
/// payload exceeds this fraction of the wire frame limit.
pub const DEFAULT_PAYLOAD_WARN_FRACTION: f64 = 0.5;

/// Span of the task named `name` (synthetic if absent — `with_span` then
/// drops it).
fn task_span(doc: &CnxDocument, name: &str) -> Span {
    doc.client
        .jobs
        .iter()
        .flat_map(|j| j.tasks.iter())
        .find(|t| t.name == name)
        .map(|t| t.span)
        .unwrap_or_else(Span::synthetic)
}

fn for_each_task(doc: &CnxDocument) -> impl Iterator<Item = (usize, &Job, &Task)> {
    doc.client
        .jobs
        .iter()
        .enumerate()
        .flat_map(|(ji, job)| job.tasks.iter().map(move |t| (ji, job, t)))
}

/// CN001–CN008: semantic validity, re-routed from [`cn_cnx::validate_all`].
pub fn validity(ctx: &CnxContext<'_>, out: &mut Vec<Diagnostic>) {
    for err in cn_cnx::validate_all(ctx.doc) {
        out.push(map_validation_error(ctx.doc, &err));
    }
}

fn map_validation_error(doc: &CnxDocument, err: &CnxValidationError) -> Diagnostic {
    let text = err.to_string();
    match err {
        CnxValidationError::NoJobs => {
            Diagnostic::new(codes::NO_JOBS, Severity::Error, text).with_span(doc.client.span)
        }
        CnxValidationError::EmptyJob { .. } => {
            Diagnostic::new(codes::EMPTY_JOB, Severity::Error, text).with_span(doc.client.span)
        }
        CnxValidationError::EmptyField { task, .. } => {
            Diagnostic::new(codes::EMPTY_FIELD, Severity::Error, text)
                .with_span(task_span(doc, task))
        }
        CnxValidationError::ZeroMemory { task } => {
            Diagnostic::new(codes::ZERO_MEMORY, Severity::Error, text)
                .with_span(task_span(doc, task))
        }
        CnxValidationError::BadMultiplicity { task, .. } => {
            Diagnostic::new(codes::BAD_MULTIPLICITY, Severity::Error, text)
                .with_span(task_span(doc, task))
        }
        CnxValidationError::Graph { error, .. } => match error {
            GraphError::UnknownDependency { task, depends_on } => {
                Diagnostic::new(codes::UNKNOWN_DEPENDENCY, Severity::Error, text)
                    .with_span(task_span(doc, task))
                    .with_related([format!("unknown task {depends_on:?}")])
            }
            GraphError::Cycle(names) => {
                let first = names.first().map(String::as_str).unwrap_or("");
                Diagnostic::new(codes::DEPENDENCY_CYCLE, Severity::Error, text)
                    .with_span(task_span(doc, first))
                    .with_related(names.iter().cloned())
            }
            GraphError::DuplicateTask(name) => {
                Diagnostic::new(codes::DUPLICATE_TASK, Severity::Error, text)
                    .with_span(task_span(doc, name))
            }
        },
    }
}

/// CN010: the same dependency listed more than once.
pub fn duplicate_depends(ctx: &CnxContext<'_>, out: &mut Vec<Diagnostic>) {
    for (_, _, t) in for_each_task(ctx.doc) {
        let mut seen = HashSet::new();
        let mut dups: Vec<&String> =
            t.depends.iter().filter(|d| !seen.insert(d.as_str())).collect();
        dups.dedup();
        for d in dups {
            out.push(
                Diagnostic::new(
                    codes::DUPLICATE_DEPENDS,
                    Severity::Warning,
                    format!("task {:?} lists dependency {d:?} more than once", t.name),
                )
                .with_span(t.span),
            );
        }
    }
}

/// CN012: parameter values that do not parse as their declared type.
pub fn param_types(ctx: &CnxContext<'_>, out: &mut Vec<Diagnostic>) {
    for (_, _, t) in for_each_task(ctx.doc) {
        for (i, p) in t.params.iter().enumerate() {
            let ok = match &p.ty {
                ParamType::Integer => p.value.trim().parse::<i32>().is_ok(),
                ParamType::Long => p.value.trim().parse::<i64>().is_ok(),
                ParamType::Double => p.value.trim().parse::<f64>().is_ok(),
                ParamType::Boolean => matches!(p.value.trim(), "true" | "false"),
                ParamType::Str | ParamType::Other(_) => true,
            };
            if !ok {
                let span = if p.span.is_synthetic() { t.span } else { p.span };
                out.push(
                    Diagnostic::new(
                        codes::PARAM_TYPE_MISMATCH,
                        Severity::Error,
                        format!(
                            "task {:?} param #{i} declares type {} but value {:?} does not parse as one",
                            t.name, p.ty, p.value
                        ),
                    )
                    .with_span(span),
                );
            }
        }
    }
}

/// CN013: a task disconnected from the rest of the job's DAG.
pub fn orphan_task(ctx: &CnxContext<'_>, out: &mut Vec<Diagnostic>) {
    for job in &ctx.doc.client.jobs {
        if job.tasks.len() < 2 {
            continue;
        }
        for t in &job.tasks {
            let no_deps = t.depends.is_empty();
            let no_dependents = !job.tasks.iter().any(|other| other.depends.contains(&t.name));
            if no_deps && no_dependents {
                out.push(
                    Diagnostic::new(
                        codes::ORPHAN_TASK,
                        Severity::Warning,
                        format!(
                            "task {:?} is isolated: nothing depends on it and it depends on nothing",
                            t.name
                        ),
                    )
                    .with_span(t.span),
                );
            }
        }
    }
}

/// CN014: a `depends` entry already implied transitively by another entry.
pub fn redundant_depends(ctx: &CnxContext<'_>, out: &mut Vec<Diagnostic>) {
    for job in &ctx.doc.client.jobs {
        // Needs a well-formed DAG; the validity pass reports otherwise.
        let Ok(graph) = DependencyGraph::build(job) else { continue };
        for i in 0..graph.len() {
            let direct: Vec<usize> = graph.dependencies(i).to_vec();
            for &d in &direct {
                // Is d reachable from any *other* direct dependency?
                let mut stack: Vec<usize> = direct.iter().copied().filter(|&o| o != d).collect();
                let mut seen: HashSet<usize> = stack.iter().copied().collect();
                let mut reachable = false;
                while let Some(n) = stack.pop() {
                    if n == d {
                        reachable = true;
                        break;
                    }
                    for &m in graph.dependencies(n) {
                        if seen.insert(m) {
                            stack.push(m);
                        }
                    }
                }
                if reachable {
                    out.push(
                        Diagnostic::new(
                            codes::REDUNDANT_DEPENDS,
                            Severity::Warning,
                            format!(
                                "task {:?} depends on {:?} directly, but that is already implied transitively",
                                graph.name(i),
                                graph.name(d)
                            ),
                        )
                        .with_span(task_span(ctx.doc, graph.name(i))),
                    );
                }
            }
        }
    }
}

/// CN015: `*` multiplicity with nothing to bound the expansion.
pub fn multiplicity_bounds(ctx: &CnxContext<'_>, out: &mut Vec<Diagnostic>) {
    for (_, _, t) in for_each_task(ctx.doc) {
        if t.multiplicity.as_deref() != Some("*") {
            continue;
        }
        match ctx.capacity {
            None => out.push(
                Diagnostic::new(
                    codes::UNBOUNDED_MULTIPLICITY,
                    Severity::Warning,
                    format!(
                        "task {:?} has unbounded multiplicity \"*\" and no cluster capacity is configured to cap the expansion",
                        t.name
                    ),
                )
                .with_span(t.span),
            ),
            Some(cap) => out.push(
                Diagnostic::new(
                    codes::UNBOUNDED_MULTIPLICITY,
                    Severity::Info,
                    format!(
                        "task {:?} has multiplicity \"*\"; expansion is capped by the cluster's {} task slots",
                        t.name, cap.total_slots
                    ),
                )
                .with_span(t.span),
            ),
        }
    }
}

/// CN011 + CN016: declared memory vs what the cluster can actually offer.
pub fn memory_capacity(ctx: &CnxContext<'_>, out: &mut Vec<Diagnostic>) {
    let Some(cap) = ctx.capacity else { return };
    for (_, _, t) in for_each_task(ctx.doc) {
        if t.req.memory_mb > cap.max_node_memory_mb {
            out.push(
                Diagnostic::new(
                    codes::TASK_EXCEEDS_NODE_MEMORY,
                    Severity::Error,
                    format!(
                        "task {:?} requires {} MB but the largest node offers {} MB: it can never be placed",
                        t.name, t.req.memory_mb, cap.max_node_memory_mb
                    ),
                )
                .with_span(t.span),
            );
        }
    }
    for (ji, job) in ctx.doc.client.jobs.iter().enumerate() {
        let Ok(graph) = DependencyGraph::build(job) else { continue };
        for (wi, wave) in graph.waves().iter().enumerate() {
            let demand: u64 = wave
                .iter()
                .map(|&i| {
                    let t = &job.tasks[i];
                    // A numeric multiplicity can expand into that many
                    // concurrent instances; `*` is CN015's business.
                    let instances =
                        t.multiplicity.as_deref().and_then(|m| m.parse::<u64>().ok()).unwrap_or(1);
                    t.req.memory_mb * instances
                })
                .sum();
            if demand > cap.total_memory_mb {
                out.push(
                    Diagnostic::new(
                        codes::MEMORY_OVERSUBSCRIBED,
                        Severity::Warning,
                        format!(
                            "job #{ji} wave {wi} declares {demand} MB across {} concurrent task(s) but the cluster totals {} MB: the wave will serialize",
                            wave.len(),
                            cap.total_memory_mb
                        ),
                    )
                    .with_related(wave.iter().map(|&i| job.tasks[i].name.clone())),
                );
            }
        }
    }
}

/// CN017: a multi-task job with no exploitable parallelism.
pub fn parallelism(ctx: &CnxContext<'_>, out: &mut Vec<Diagnostic>) {
    for (ji, job) in ctx.doc.client.jobs.iter().enumerate() {
        if job.tasks.len() < 2 {
            continue;
        }
        let Ok(graph) = DependencyGraph::build(job) else { continue };
        if graph.max_parallelism() == 1 {
            out.push(Diagnostic::new(
                codes::SERIAL_JOB,
                Severity::Info,
                format!(
                    "job #{ji} is fully serial ({} tasks, max parallelism 1): a cluster adds no speedup",
                    job.tasks.len()
                ),
            ));
        }
    }
}

/// CN018: more task instances than the flight recorder retains by default.
///
/// Each task emits at least one severity-tagged event on an interesting
/// lifecycle transition, so a composition whose expanded task count exceeds
/// [`cn_observe::DEFAULT_FLIGHT_CAPACITY`] will silently evict early events
/// from a default-capacity recorder. Numeric multiplicity expands the
/// count; `*` is unbounded and reported at the default capacity too.
pub fn recorder_capacity(ctx: &CnxContext<'_>, out: &mut Vec<Diagnostic>) {
    let cap = cn_observe::DEFAULT_FLIGHT_CAPACITY as u64;
    for (ji, job) in ctx.doc.client.jobs.iter().enumerate() {
        let instances: u64 = job
            .tasks
            .iter()
            .map(|t| match t.multiplicity.as_deref() {
                // `*` is unbounded — CN015's business; count the minimum.
                Some("*") => 1,
                Some(m) => m.parse::<u64>().unwrap_or(1),
                None => 1,
            })
            .sum();
        if instances > cap {
            out.push(Diagnostic::new(
                codes::RECORDER_CAPACITY,
                Severity::Warning,
                format!(
                    "job #{ji} expands to {instances} task instance(s) but the default flight recorder retains only {cap} events: early trace events will be evicted (raise it with Recorder::with_flight_capacity)"
                ),
            ));
        }
    }
}

/// Rough on-wire size of the spec fields a task contributes to its
/// `CreateTask` frame: each string is length-prefixed (u32 + bytes), plus a
/// small allowance for tags and the fixed spec fields.
fn estimated_payload_bytes(t: &Task) -> u64 {
    let field = |s: &str| 4 + s.len() as u64;
    let mut bytes = field(&t.name) + field(&t.jar) + field(&t.class) + 64;
    for p in &t.params {
        bytes += field(&p.value) + 8;
    }
    for d in &t.depends {
        bytes += field(d);
    }
    bytes
}

/// CN009: a task's parameter payload approaches the wire frame limit.
///
/// Task parameters travel inside the `CreateTask`/`StartTask` frames on
/// the socket fabric, and the reader rejects any frame larger than
/// `MAX_FRAME_BYTES` as `FrameTooLarge` — the job would fail in placement
/// at run time. Warn while the composition is still a descriptor. The
/// threshold is a fraction of the limit (default
/// [`DEFAULT_PAYLOAD_WARN_FRACTION`], configurable with `cnctl lint
/// --payload-warn-fraction`) because the estimate ignores codec overhead.
pub fn payload_size(ctx: &CnxContext<'_>, out: &mut Vec<Diagnostic>) {
    let fraction = ctx.payload_warn_fraction;
    if fraction <= 0.0 {
        return;
    }
    let limit = u64::from(cn_wire::codec::MAX_FRAME_BYTES);
    let threshold = (limit as f64 * fraction) as u64;
    for (_, _, t) in for_each_task(ctx.doc) {
        let est = estimated_payload_bytes(t);
        if est > threshold {
            out.push(
                Diagnostic::new(
                    codes::PAYLOAD_SIZE,
                    Severity::Warning,
                    format!(
                        "task {:?}: estimated parameter payload of {est} B exceeds {fraction} of the {limit} B wire frame limit ({threshold} B): frames past the limit are rejected as FrameTooLarge on socket deployments",
                        t.name
                    ),
                )
                .with_span(t.span),
            );
        }
    }
}

/// CN040: information lost in the CNX → model → CNX round trip.
pub fn roundtrip(ctx: &CnxContext<'_>, out: &mut Vec<Diagnostic>) {
    // Drift is only meaningful for descriptors the validator accepts.
    if !cn_cnx::validate_all(ctx.doc).is_empty() {
        return;
    }
    for drift in cn_transform::cnx_roundtrip_drift(ctx.doc) {
        let mut d = Diagnostic::new(
            codes::ROUNDTRIP_DRIFT,
            Severity::Warning,
            match &drift.task {
                Some(task) => format!("task {task:?}: {}", drift.detail),
                None => drift.detail.clone(),
            },
        );
        if let Some(task) = &drift.task {
            d = d.with_span(task_span(ctx.doc, task));
        }
        out.push(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{lint_cnx, LintOptions};
    use crate::report::LintReport;
    use cn_cluster::ClusterCapacity;
    use cn_cnx::ast::{figure2_descriptor, Param};

    fn lint(doc: &CnxDocument) -> LintReport {
        lint_cnx(doc, &LintOptions::default())
    }

    fn lint_with_capacity(doc: &CnxDocument, cap: ClusterCapacity) -> LintReport {
        lint_cnx(doc, &LintOptions { capacity: Some(cap), ..LintOptions::default() })
    }

    fn codes_of(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn payload_size_pass_warns_at_a_configured_fraction() {
        let mut doc = figure2_descriptor(3);
        doc.client.jobs[0].tasks[1].params.push(Param::string("x".repeat(64)));
        // Default threshold (half of 64 MiB): quiet.
        assert!(!codes_of(&lint(&doc)).contains(&codes::PAYLOAD_SIZE));
        // A tiny configured fraction trips the same descriptor.
        let report = lint_cnx(
            &doc,
            &LintOptions { payload_warn_fraction: Some(0.000001), ..LintOptions::default() },
        );
        assert!(codes_of(&report).contains(&codes::PAYLOAD_SIZE), "{}", report.to_text());
        // And 0 disables the pass outright.
        let report = lint_cnx(
            &doc,
            &LintOptions { payload_warn_fraction: Some(0.0), ..LintOptions::default() },
        );
        assert!(!codes_of(&report).contains(&codes::PAYLOAD_SIZE));
    }

    #[test]
    fn figure2_is_clean() {
        let report = lint(&figure2_descriptor(5));
        assert!(report.is_empty(), "{}", report.to_text());
        // ...even with a roomy cluster attached.
        let report =
            lint_with_capacity(&figure2_descriptor(5), ClusterCapacity::uniform(8, 2000, 2));
        assert!(report.is_empty(), "{}", report.to_text());
    }

    #[test]
    fn validity_errors_get_codes_and_spans() {
        // Parse so tasks carry spans.
        let doc = cn_cnx::parse_cnx(
            "<cn2><client class=\"C\"><job>\n<task name=\"a\" jar=\"\" class=\"K\" depends=\"ghost\"/>\n</job></client></cn2>",
        )
        .unwrap();
        let report = lint(&doc);
        let codes = codes_of(&report);
        assert!(codes.contains(&codes::EMPTY_FIELD), "{codes:?}");
        assert!(codes.contains(&codes::UNKNOWN_DEPENDENCY), "{codes:?}");
        for d in report.diagnostics() {
            assert_eq!(d.span.map(|s| s.line), Some(2), "{d:?}");
        }
    }

    #[test]
    fn cycle_reported_with_related_chain() {
        let mut doc = figure2_descriptor(2);
        doc.client.jobs[0].tasks[1].depends = vec!["tctask2".into()];
        doc.client.jobs[0].tasks[2].depends = vec!["tctask1".into()];
        let report = lint(&doc);
        let cycle = report
            .diagnostics()
            .iter()
            .find(|d| d.code == codes::DEPENDENCY_CYCLE)
            .expect("cycle diagnostic");
        assert_eq!(cycle.related, vec!["tctask1", "tctask2", "tctask1"]);
    }

    #[test]
    fn duplicate_depends_warns_once() {
        let mut doc = figure2_descriptor(2);
        doc.client.jobs[0].tasks[2].depends = vec!["tctask0".into(), "tctask0".into()];
        let report = lint(&doc);
        let dups: Vec<_> =
            report.diagnostics().iter().filter(|d| d.code == codes::DUPLICATE_DEPENDS).collect();
        assert_eq!(dups.len(), 1, "{}", report.to_text());
        assert_eq!(dups[0].severity, Severity::Warning);
        // The duplicate edge also collapses in the model round trip, which
        // the drift pass reports independently.
        assert!(codes_of(&report).contains(&codes::ROUNDTRIP_DRIFT));
    }

    #[test]
    fn param_type_mismatch_is_an_error() {
        let mut doc = figure2_descriptor(2);
        doc.client.jobs[0].tasks[1].params = vec![Param::new(ParamType::Integer, "not-a-number")];
        let report = lint(&doc);
        assert_eq!(codes_of(&report), vec![codes::PARAM_TYPE_MISMATCH]);
        // Well-typed values stay quiet.
        let mut ok = figure2_descriptor(2);
        ok.client.jobs[0].tasks[1].params = vec![
            Param::new(ParamType::Integer, "17"),
            Param::new(ParamType::Double, "2.5"),
            Param::new(ParamType::Boolean, "true"),
            Param::new(ParamType::Str, "anything"),
        ];
        assert!(lint(&ok).is_empty());
    }

    #[test]
    fn orphan_task_detected() {
        let mut doc = figure2_descriptor(2);
        doc.client.jobs[0].tasks.push(cn_cnx::ast::Task::new("lonely", "l.jar", "L"));
        let report = lint(&doc);
        assert_eq!(codes_of(&report), vec![codes::ORPHAN_TASK]);
        // A single-task job is not an orphanage.
        let single = cn_cnx::parse_cnx(
            "<cn2><client class=\"C\"><job><task name=\"only\" jar=\"j\" class=\"K\"/></job></client></cn2>",
        )
        .unwrap();
        assert!(lint(&single).is_empty());
    }

    #[test]
    fn redundant_transitive_edge_detected() {
        // join depends on both the workers and (redundantly) the splitter.
        let mut doc = figure2_descriptor(2);
        doc.client.jobs[0].tasks[3].depends.push("tctask0".into());
        let report = lint(&doc);
        assert_eq!(codes_of(&report), vec![codes::REDUNDANT_DEPENDS]);
        assert!(report.to_text().contains("tctask999"), "{}", report.to_text());
        // Direct-only chains are fine (figure2 itself is the negative case).
        assert!(lint(&figure2_descriptor(2)).is_empty());
    }

    #[test]
    fn unbounded_multiplicity_warns_without_capacity() {
        let mut doc = figure2_descriptor(2);
        doc.client.jobs[0].tasks[1].multiplicity = Some("*".into());
        let report = lint(&doc);
        assert_eq!(codes_of(&report), vec![codes::UNBOUNDED_MULTIPLICITY]);
        assert_eq!(report.max_severity(), Some(Severity::Warning));
        // With a capacity the finding downgrades to info.
        let report = lint_with_capacity(&doc, ClusterCapacity::uniform(4, 2000, 2));
        assert_eq!(codes_of(&report), vec![codes::UNBOUNDED_MULTIPLICITY]);
        assert_eq!(report.max_severity(), Some(Severity::Info));
        // Bounded multiplicity stays quiet either way.
        let mut bounded = figure2_descriptor(2);
        bounded.client.jobs[0].tasks[1].multiplicity = Some("4".into());
        assert!(lint(&bounded).is_empty());
    }

    #[test]
    fn task_exceeding_every_node_is_an_error() {
        let mut doc = figure2_descriptor(2);
        doc.client.jobs[0].tasks[0].req.memory_mb = 4096;
        let report = lint_with_capacity(&doc, ClusterCapacity::uniform(4, 2000, 2));
        assert!(codes_of(&report).contains(&codes::TASK_EXCEEDS_NODE_MEMORY));
        assert_eq!(report.max_severity(), Some(Severity::Error));
        // Without capacity info the pass cannot judge.
        assert!(lint(&doc).is_empty());
    }

    #[test]
    fn wave_oversubscription_warns() {
        // 5 workers x 1000 MB in one wave vs a 3000 MB cluster.
        let doc = figure2_descriptor(5);
        let report = lint_with_capacity(&doc, ClusterCapacity::uniform(3, 1000, 4));
        assert!(codes_of(&report).contains(&codes::MEMORY_OVERSUBSCRIBED), "{}", report.to_text());
        let over =
            report.diagnostics().iter().find(|d| d.code == codes::MEMORY_OVERSUBSCRIBED).unwrap();
        assert_eq!(over.related.len(), 5);
        // Numeric multiplicity multiplies the demand.
        let mut doc = figure2_descriptor(1);
        doc.client.jobs[0].tasks[1].multiplicity = Some("9".into());
        let report = lint_with_capacity(&doc, ClusterCapacity::uniform(4, 2000, 2));
        assert!(codes_of(&report).contains(&codes::MEMORY_OVERSUBSCRIBED), "{}", report.to_text());
        // A roomy cluster stays quiet.
        assert!(lint_with_capacity(&figure2_descriptor(5), ClusterCapacity::uniform(8, 2000, 2))
            .is_empty());
    }

    #[test]
    fn serial_job_is_an_info() {
        let doc = cn_cnx::parse_cnx(
            "<cn2><client class=\"C\"><job>\
             <task name=\"a\" jar=\"j\" class=\"K\"/>\
             <task name=\"b\" jar=\"j\" class=\"K\" depends=\"a\"/>\
             <task name=\"c\" jar=\"j\" class=\"K\" depends=\"b\"/>\
             </job></client></cn2>",
        )
        .unwrap();
        let report = lint(&doc);
        assert_eq!(codes_of(&report), vec![codes::SERIAL_JOB]);
        assert_eq!(report.max_severity(), Some(Severity::Info));
        assert!(lint(&figure2_descriptor(3)).is_empty());
    }

    #[test]
    fn recorder_capacity_warns_past_the_flight_default() {
        // 600 expanded workers > DEFAULT_FLIGHT_CAPACITY (512).
        let mut doc = figure2_descriptor(2);
        doc.client.jobs[0].tasks[1].multiplicity = Some("600".into());
        let report = lint(&doc);
        assert!(codes_of(&report).contains(&codes::RECORDER_CAPACITY), "{}", report.to_text());
        let d = report.diagnostics().iter().find(|d| d.code == codes::RECORDER_CAPACITY).unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("512"), "{}", d.message);
        // Figure 2 at realistic sizes stays quiet, as does `*` (CN015's
        // territory) and a count right at the capacity.
        assert!(!codes_of(&lint(&figure2_descriptor(100))).contains(&codes::RECORDER_CAPACITY));
        let mut star = figure2_descriptor(2);
        star.client.jobs[0].tasks[1].multiplicity = Some("*".into());
        assert!(!codes_of(&lint(&star)).contains(&codes::RECORDER_CAPACITY));
        let mut at_cap = figure2_descriptor(2);
        at_cap.client.jobs[0].tasks[1].multiplicity = Some("508".into());
        assert!(!codes_of(&lint(&at_cap)).contains(&codes::RECORDER_CAPACITY));
    }

    #[test]
    fn roundtrip_drift_surfaces_as_cn040() {
        let mut doc = figure2_descriptor(2);
        doc.client.jobs[0].tasks[0].req.extras.push(("cpus".into(), "4".into()));
        let report = lint(&doc);
        assert_eq!(codes_of(&report), vec![codes::ROUNDTRIP_DRIFT]);
        assert!(report.to_text().contains("cpus"), "{}", report.to_text());
    }

    #[test]
    fn invalid_documents_skip_downstream_passes_gracefully() {
        // A cyclic job: validity errors come out, the DAG-dependent passes
        // (redundant-depends, parallelism, roundtrip) skip instead of
        // panicking.
        let mut doc = figure2_descriptor(1);
        doc.client.jobs[0].tasks[0].depends = vec!["tctask999".into()];
        let report = lint(&doc);
        assert!(codes_of(&report).contains(&codes::DEPENDENCY_CYCLE));
    }
}
