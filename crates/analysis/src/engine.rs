//! Lint entry points.
//!
//! A lint run is: build a context, run every pass of
//! [`passes::cnx::PASSES`] or [`passes::model::PASSES`] over it, collect the
//! diagnostics into a [`LintReport`].

use cn_cluster::ClusterCapacity;
use cn_cnx::CnxDocument;
use cn_model::ActivityGraph;

use crate::diag::{Diagnostic, Severity};
use crate::explain::codes;
use crate::passes;
use crate::report::LintReport;

/// Tuning knobs for a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Cluster capacity to check resource requirements against. Without it
    /// the capacity passes (CN011/CN015/CN016) stay quiet or degrade to
    /// their capacity-free variants.
    pub capacity: Option<ClusterCapacity>,
    /// Fraction of the wire frame limit (`MAX_FRAME_BYTES`) a task's
    /// estimated parameter payload may reach before CN009 warns. `None`
    /// uses [`passes::cnx::DEFAULT_PAYLOAD_WARN_FRACTION`]; `0` disables
    /// the check.
    pub payload_warn_fraction: Option<f64>,
}

/// Everything a CNX pass can look at.
pub struct CnxContext<'a> {
    pub doc: &'a CnxDocument,
    pub capacity: Option<&'a ClusterCapacity>,
    /// Resolved CN009 threshold as a fraction of the wire frame limit.
    pub payload_warn_fraction: f64,
}

/// Everything a model pass can look at.
pub struct ModelContext<'a> {
    pub graph: &'a ActivityGraph,
    pub capacity: Option<&'a ClusterCapacity>,
}

/// Lint a parsed CNX descriptor.
pub fn lint_cnx(doc: &CnxDocument, opts: &LintOptions) -> LintReport {
    let ctx = CnxContext {
        doc,
        capacity: opts.capacity.as_ref(),
        payload_warn_fraction: opts
            .payload_warn_fraction
            .unwrap_or(passes::cnx::DEFAULT_PAYLOAD_WARN_FRACTION),
    };
    let mut out = Vec::new();
    for pass in passes::cnx::PASSES {
        pass(&ctx, &mut out);
    }
    LintReport::new(out)
}

/// Lint an activity model.
pub fn lint_model(graph: &ActivityGraph, opts: &LintOptions) -> LintReport {
    let ctx = ModelContext { graph, capacity: opts.capacity.as_ref() };
    let mut out = Vec::new();
    for pass in passes::model::PASSES {
        pass(&ctx, &mut out);
    }
    LintReport::new(out)
}

/// Lint CNX source text. Unparseable input yields a single CN000 error
/// (with the parser's span when it has one).
pub fn lint_cnx_source(src: &str, opts: &LintOptions) -> LintReport {
    match cn_cnx::parse_cnx(src) {
        Ok(doc) => lint_cnx(&doc, opts),
        Err(e) => {
            let mut d = Diagnostic::new(codes::PARSE, Severity::Error, e.msg);
            if let Some(span) = e.span {
                d = d.with_span(span);
            }
            LintReport::new(vec![d])
        }
    }
}

/// Lint XMI source text: import the model, run the model passes.
/// Parse/import failure yields CN000.
pub fn lint_xmi_source(src: &str, opts: &LintOptions) -> LintReport {
    let doc = match cn_xml::parse(src) {
        Ok(doc) => doc,
        Err(e) => {
            let d = Diagnostic::new(codes::PARSE, Severity::Error, e.kind.to_string())
                .with_span(cn_cnx::Span::from(e.pos));
            return LintReport::new(vec![d]);
        }
    };
    match cn_model::import_xmi(&doc) {
        Ok(graph) => lint_model(&graph, opts),
        Err(e) => {
            LintReport::new(vec![Diagnostic::new(codes::PARSE, Severity::Error, e.to_string())])
        }
    }
}

#[cfg(test)]
mod docs_sync {
    use crate::explain::ALL_CODES;

    /// DESIGN.md's code table and the `diagnostics!` table must not drift
    /// apart: every code has exactly one table row (`| CNxxx | ... |`).
    #[test]
    fn every_code_is_documented_in_design_md() {
        let design =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
                .expect("read DESIGN.md");
        for code in ALL_CODES {
            let row = format!("| {code} |");
            assert_eq!(
                design.matches(&row).count(),
                1,
                "expected exactly one DESIGN.md table row for {code}"
            );
        }
    }

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for code in ALL_CODES {
            assert!(code.len() == 5 && code.starts_with("CN"), "malformed code {code}");
            assert!(code[2..].bytes().all(|b| b.is_ascii_digit()), "malformed code {code}");
            assert!(seen.insert(code), "duplicate code {code}");
        }
    }
}
