//! Lint passes over UML activity models.
//!
//! As on the CNX side, the validity pass re-routes
//! `cn_model::validate::validate_all` through the engine so model problems
//! come out with stable codes next to everything else. Models have no text
//! spans — diagnostics here are spanless and sort after spanned ones.

use cn_model::validate::validate_all;
use cn_model::{NodeId, NodeKind, ValidationError};

use crate::diag::{Diagnostic, Severity};
use crate::engine::ModelContext;
use crate::explain::codes;

/// Every model pass — what [`crate::lint_model`] runs.
pub const PASSES: &[fn(&ModelContext<'_>, &mut Vec<Diagnostic>)] =
    &[validity, fork_join, roundtrip];

/// CN020–CN029: semantic validity, re-routed from
/// [`cn_model::validate::validate_all`].
pub fn validity(ctx: &ModelContext<'_>, out: &mut Vec<Diagnostic>) {
    for err in validate_all(ctx.graph) {
        out.push(map_validation_error(&err));
    }
}

fn map_validation_error(err: &ValidationError) -> Diagnostic {
    let text = err.to_string();
    let code = match err {
        ValidationError::NoInitial => codes::MODEL_NO_INITIAL,
        ValidationError::MultipleInitials => codes::MODEL_MULTIPLE_INITIALS,
        ValidationError::NoFinal => codes::MODEL_NO_FINAL,
        ValidationError::Unreachable(_) => codes::MODEL_UNREACHABLE,
        ValidationError::Cycle(names) => {
            return Diagnostic::new(codes::MODEL_CYCLE, Severity::Error, text)
                .with_related(names.iter().cloned());
        }
        ValidationError::DuplicateTaskName(_) => codes::MODEL_DUPLICATE_TASK,
        ValidationError::MissingTag { .. } => codes::MODEL_MISSING_TAG,
        ValidationError::DynamicWithoutMultiplicity(_) => codes::MODEL_DYNAMIC_NO_MULTIPLICITY,
        ValidationError::DanglingTransition => codes::MODEL_DANGLING_TRANSITION,
        ValidationError::EmptyGraph => codes::MODEL_EMPTY,
    };
    Diagnostic::new(code, Severity::Error, text)
}

/// CN030: degenerate or unbalanced fork/join structure.
///
/// A fork that spawns a single branch (or a join that merges one) is legal
/// UML but almost always a modelling mistake — the pseudostate does
/// nothing. A diagram whose fork and join counts differ usually lost a
/// pseudostate during editing.
pub fn fork_join(ctx: &ModelContext<'_>, out: &mut Vec<Diagnostic>) {
    let g = ctx.graph;
    let mut forks: Vec<NodeId> = Vec::new();
    let mut joins: Vec<NodeId> = Vec::new();
    for n in &g.nodes {
        match n.kind {
            NodeKind::Fork => forks.push(n.id),
            NodeKind::Join => joins.push(n.id),
            _ => {}
        }
    }
    for &f in &forks {
        let out_degree = g.successors(f).count();
        if out_degree < 2 {
            out.push(Diagnostic::new(
                codes::FORK_JOIN_IMBALANCE,
                Severity::Warning,
                format!(
                    "fork node #{} has {out_degree} outgoing branch(es); a fork should spawn at least two",
                    f.0
                ),
            ));
        }
    }
    for &j in &joins {
        let in_degree = g.predecessors(j).count();
        if in_degree < 2 {
            out.push(Diagnostic::new(
                codes::FORK_JOIN_IMBALANCE,
                Severity::Warning,
                format!(
                    "join node #{} has {in_degree} incoming branch(es); a join should merge at least two",
                    j.0
                ),
            ));
        }
    }
    if forks.len() != joins.len() {
        out.push(Diagnostic::new(
            codes::FORK_JOIN_IMBALANCE,
            Severity::Warning,
            format!(
                "activity has {} fork(s) but {} join(s); concurrent branches are not rejoined symmetrically",
                forks.len(),
                joins.len()
            ),
        ));
    }
}

/// CN040: information the XMI → CNX → XMI trip would lose.
pub fn roundtrip(ctx: &ModelContext<'_>, out: &mut Vec<Diagnostic>) {
    // Drift is only meaningful for models the validator accepts.
    if !validate_all(ctx.graph).is_empty() {
        return;
    }
    for drift in cn_transform::model_roundtrip_drift(ctx.graph) {
        out.push(Diagnostic::new(
            codes::ROUNDTRIP_DRIFT,
            Severity::Warning,
            match &drift.task {
                Some(task) => format!("task {task:?}: {}", drift.detail),
                None => drift.detail.clone(),
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{lint_model, LintOptions};
    use crate::report::LintReport;
    use cn_model::activity::ActionState;
    use cn_model::{transitive_closure_model, ActivityGraph};

    fn lint(graph: &ActivityGraph) -> LintReport {
        lint_model(graph, &LintOptions::default())
    }

    fn codes_of(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn transitive_closure_model_is_clean() {
        let report = lint(&transitive_closure_model(5));
        assert!(report.is_empty(), "{}", report.to_text());
    }

    #[test]
    fn validity_errors_get_model_codes() {
        let report = lint(&ActivityGraph::new("empty"));
        assert_eq!(codes_of(&report), vec![codes::MODEL_EMPTY]);

        // An untagged action: missing jar and class.
        let mut g = ActivityGraph::new("untagged");
        let initial = g.add_node(NodeKind::Initial);
        let action = g.add_node(NodeKind::Action(ActionState::new("t")));
        let fin = g.add_node(NodeKind::Final);
        g.add_transition(initial, action);
        g.add_transition(action, fin);
        let report = lint(&g);
        assert_eq!(codes_of(&report), vec![codes::MODEL_MISSING_TAG, codes::MODEL_MISSING_TAG]);
        assert_eq!(report.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn dynamic_without_multiplicity_maps_to_cn027() {
        let mut g = transitive_closure_model(2);
        let a = g.action_by_name_mut("TCTask1").unwrap();
        a.dynamic = true;
        a.multiplicity = None;
        let report = lint(&g);
        assert!(codes_of(&report).contains(&codes::MODEL_DYNAMIC_NO_MULTIPLICITY));
    }

    #[test]
    fn single_branch_fork_warns() {
        let mut g = ActivityGraph::new("degenerate");
        let initial = g.add_node(NodeKind::Initial);
        let fork = g.add_node(NodeKind::Fork);
        let mut a = ActionState::new("t");
        a.tags.set("jar", "t.jar");
        a.tags.set("class", "T");
        let action = g.add_node(NodeKind::Action(a));
        let join = g.add_node(NodeKind::Join);
        let fin = g.add_node(NodeKind::Final);
        g.add_transition(initial, fork);
        g.add_transition(fork, action);
        g.add_transition(action, join);
        g.add_transition(join, fin);
        let report = lint(&g);
        assert_eq!(codes_of(&report), vec![codes::FORK_JOIN_IMBALANCE, codes::FORK_JOIN_IMBALANCE]);
        assert_eq!(report.max_severity(), Some(Severity::Warning));
        assert!(report.to_text().contains("outgoing branch"), "{}", report.to_text());
    }

    #[test]
    fn fork_join_count_mismatch_warns() {
        // Drop the join from a fork/join pair: workers flow straight to the
        // joiner action.
        let mut g = ActivityGraph::new("lost-join");
        let initial = g.add_node(NodeKind::Initial);
        let fork = g.add_node(NodeKind::Fork);
        let mk = |name: &str| {
            let mut a = ActionState::new(name);
            a.tags.set("jar", "t.jar");
            a.tags.set("class", "T");
            a
        };
        let w1 = g.add_node(NodeKind::Action(mk("w1")));
        let w2 = g.add_node(NodeKind::Action(mk("w2")));
        let joiner = g.add_node(NodeKind::Action(mk("joiner")));
        let fin = g.add_node(NodeKind::Final);
        g.add_transition(initial, fork);
        g.add_transition(fork, w1);
        g.add_transition(fork, w2);
        g.add_transition(w1, joiner);
        g.add_transition(w2, joiner);
        g.add_transition(joiner, fin);
        let report = lint(&g);
        assert!(codes_of(&report).contains(&codes::FORK_JOIN_IMBALANCE));
        assert!(report.to_text().contains("1 fork(s) but 0 join(s)"), "{}", report.to_text());
    }

    #[test]
    fn balanced_fork_join_is_quiet() {
        // transitive_closure_model has a matched fork/join pair.
        let report = lint(&transitive_closure_model(3));
        assert!(!codes_of(&report).contains(&codes::FORK_JOIN_IMBALANCE));
    }

    #[test]
    fn model_roundtrip_drift_surfaces_as_cn040() {
        let mut g = transitive_closure_model(2);
        g.action_by_name_mut("TCTask1").unwrap().tags.set("gpu", "1");
        let report = lint(&g);
        assert_eq!(codes_of(&report), vec![codes::ROUNDTRIP_DRIFT]);
        assert!(report.to_text().contains("gpu"), "{}", report.to_text());
    }

    #[test]
    fn invalid_model_skips_roundtrip_pass() {
        // Missing tags AND a custom tag: only the validity errors surface,
        // the drift pass stays out of the way.
        let mut g = ActivityGraph::new("both");
        let initial = g.add_node(NodeKind::Initial);
        let mut a = ActionState::new("t");
        a.tags.set("gpu", "1");
        let action = g.add_node(NodeKind::Action(a));
        let fin = g.add_node(NodeKind::Final);
        g.add_transition(initial, action);
        g.add_transition(action, fin);
        let report = lint(&g);
        assert!(!codes_of(&report).contains(&codes::ROUNDTRIP_DRIFT));
        assert!(codes_of(&report).contains(&codes::MODEL_MISSING_TAG));
    }
}
