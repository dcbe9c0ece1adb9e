//! # cn-analysis — the cross-layer lint engine
//!
//! Static analysis over both artifact layers the CN toolchain handles:
//! CNX job descriptors (the paper's XML job/task composition language) and
//! the UML activity models they are generated from. Every finding is a
//! [`Diagnostic`] with a stable `CN0xx` code, a severity, and — for parsed
//! CNX input — a source span, collected into a deterministic [`LintReport`]
//! with text and JSON renderings. `cnctl lint` is the CLI front end.
//!
//! ## Relationship to the existing validators
//!
//! `cn_cnx::validate` and `cn_model::validate` predate this crate and stay
//! exactly as they were — first-error `Result` APIs that scheduler and
//! transform code call directly. The engine re-routes their `validate_all`
//! collectors through [`passes::cnx::validity`] and
//! [`passes::model::validity`], attaching codes (CN001–CN008 for CNX,
//! CN020–CN029 for models), severities, and spans. The dependency points
//! this way (analysis → cnx/model) so the validators themselves remain the
//! thin compat layer and nothing below this crate changes behaviour.
//!
//! ## Passes and codes
//!
//! A pass is a function from a context ([`CnxContext`] or [`ModelContext`])
//! to diagnostics; [`passes::cnx::PASSES`] and [`passes::model::PASSES`]
//! list them, and [`lint_cnx`] / [`lint_model`] run every one. Report order
//! is independent of table order — diagnostics sort by span, then code,
//! then message. A code is one row of the `diagnostics!` table in
//! [`explain`](mod@explain), which expands to its [`codes`] constant, its
//! `ALL_CODES` entry and its `--explain` text.
//!
//! Three codes judge no artifact. CN057 and CN058 are [`deployment`]'s
//! judges of a starting `cnctl serve` / `cnctl portal` against its host,
//! and CN019 names the JobManager's refusal of a task that every
//! TaskManager declined as too big for its node.
//!
//! ```
//! use cn_analysis::{lint_cnx_source, LintOptions};
//!
//! let report = lint_cnx_source(
//!     "<cn2><client class=\"C\"><job>\
//!      <task name=\"a\" jar=\"a.jar\" class=\"A\" depends=\"ghost\"/>\
//!      </job></client></cn2>",
//!     &LintOptions::default(),
//! );
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics()[0].code, "CN006"); // unknown dependency
//! ```

pub mod deployment;
pub mod diag;
pub mod engine;
pub mod explain;
pub mod passes;
pub mod report;

pub use deployment::{judge_portal, judge_serve, HostFacts, PortalShape, ServeShape};
pub use diag::{Diagnostic, Severity};
pub use engine::{
    lint_cnx, lint_cnx_source, lint_model, lint_xmi_source, CnxContext, LintOptions, ModelContext,
};
pub use explain::{codes, explain, Explanation};
pub use report::LintReport;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_cnx_source_reports_parse_errors_as_cn000() {
        let report = lint_cnx_source("<cn2><client", &LintOptions::default());
        assert_eq!(report.len(), 1);
        assert_eq!(report.diagnostics()[0].code, codes::PARSE);
        assert!(report.has_errors());
    }

    #[test]
    fn lint_cnx_source_end_to_end() {
        let src = "<cn2><client class=\"C\"><job>\n\
                   <task name=\"a\" jar=\"a.jar\" class=\"A\"/>\n\
                   <task name=\"b\" jar=\"b.jar\" class=\"B\" depends=\"a,a\"/>\n\
                   </job></client></cn2>";
        let report = lint_cnx_source(src, &LintOptions::default());
        assert_eq!(report.diagnostics()[0].code, codes::DUPLICATE_DEPENDS);
        assert_eq!(report.diagnostics()[0].span.map(|s| s.line), Some(3));
    }

    #[test]
    fn lint_xmi_source_end_to_end() {
        let xmi = cn_xml::write_document(
            &cn_model::export_xmi(&cn_model::transitive_closure_model(3)),
            &cn_xml::WriteOptions::default(),
        );
        let report = lint_xmi_source(&xmi, &LintOptions::default());
        assert!(report.is_empty(), "{}", report.to_text());
        let report = lint_xmi_source("not xml <", &LintOptions::default());
        assert_eq!(report.diagnostics()[0].code, codes::PARSE);
    }
}
