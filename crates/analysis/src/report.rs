//! The lint report: an ordered collection of diagnostics with text and JSON
//! renderings and the severity summary the CLI exit code derives from.

use crate::diag::{Diagnostic, Severity};
use cn_observe::export::json_escape;

/// Result of a lint run. Diagnostics are kept sorted by span (spanless ones
/// last), then code, then message — a deterministic order independent of
/// pass registration or task iteration order. Diagnostics that agree on
/// that whole key are merged (worst severity wins, related lists union),
/// so the report's bytes do not depend on which pass emitted first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> LintReport {
        diagnostics.sort_by(|a, b| {
            // None sorts after any real span.
            match (&a.span, &b.span) {
                (Some(x), Some(y)) => x.cmp(y),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            }
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.message.cmp(&b.message))
        });
        // Same (span, code, message) from different passes must collapse to
        // one record whose bytes don't depend on registration order: take
        // the worst severity and the sorted union of related subjects.
        // (Exact-`dedup` alone would keep both copies, in emission order,
        // whenever severity or related differed.)
        let mut merged: Vec<Diagnostic> = Vec::with_capacity(diagnostics.len());
        for d in diagnostics {
            match merged.last_mut() {
                Some(prev)
                    if prev.code == d.code && prev.span == d.span && prev.message == d.message =>
                {
                    prev.severity = prev.severity.max(d.severity);
                    prev.related.extend(d.related);
                    prev.related.sort();
                    prev.related.dedup();
                }
                _ => merged.push(d),
            }
        }
        LintReport { diagnostics: merged }
    }

    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    pub fn has_warnings(&self) -> bool {
        self.count(Severity::Warning) > 0
    }

    /// Worst severity present, `None` for a clean report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Promote every warning to an error (`--deny warnings`).
    pub fn deny_warnings(mut self) -> LintReport {
        for d in &mut self.diagnostics {
            if d.severity == Severity::Warning {
                d.severity = Severity::Error;
            }
        }
        self
    }

    /// Multi-line human-readable rendering, ending with a summary line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_text());
            out.push('\n');
            for r in &d.related {
                out.push_str(&format!("  note: {r}\n"));
            }
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }

    /// Machine-readable rendering for CI: one stable JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",",
                d.code,
                d.severity,
                json_escape(&d.message)
            ));
            match d.span {
                Some(s) => out.push_str(&format!(
                    "\"span\":{{\"line\":{},\"col\":{},\"offset\":{}}},",
                    s.line, s.col, s.offset
                )),
                None => out.push_str("\"span\":null,"),
            }
            out.push_str("\"related\":[");
            for (j, r) in d.related.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\"", json_escape(r)));
            }
            out.push_str("]}");
        }
        out.push_str(&format!(
            "],\"errors\":{},\"warnings\":{},\"infos\":{}}}",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_cnx::Span;

    fn diag(code: &'static str, sev: Severity, msg: &str, line: u32) -> Diagnostic {
        Diagnostic::new(code, sev, msg).with_span(Span::new(line, 1, line as usize * 10))
    }

    #[test]
    fn report_sorts_by_span_then_code() {
        let report = LintReport::new(vec![
            diag("CN013", Severity::Warning, "b", 9),
            diag("CN004", Severity::Error, "a", 2),
            Diagnostic::new("CN001", Severity::Error, "doc-level"),
            diag("CN011", Severity::Error, "c", 2),
        ]);
        let codes: Vec<_> = report.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, ["CN004", "CN011", "CN013", "CN001"]);
    }

    #[test]
    fn duplicate_diagnostics_collapse() {
        let d = diag("CN010", Severity::Warning, "dup", 3);
        let report = LintReport::new(vec![d.clone(), d]);
        assert_eq!(report.len(), 1);
    }

    /// Two passes report the same finding with different severity and
    /// related subjects; the merged record — and the report's JSON bytes —
    /// must not depend on which pass was registered first.
    #[test]
    fn same_key_merge_is_registration_order_independent() {
        let a =
            diag("CN011", Severity::Warning, "too big", 2).with_related(["task \"a\"".to_string()]);
        let b = diag("CN011", Severity::Error, "too big", 2)
            .with_related(["node \"n0\"".to_string(), "task \"a\"".to_string()]);
        let fwd = LintReport::new(vec![a.clone(), b.clone()]);
        let rev = LintReport::new(vec![b, a]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.to_json(), rev.to_json());
        assert_eq!(fwd.len(), 1);
        let d = &fwd.diagnostics()[0];
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.related, ["node \"n0\"", "task \"a\""]);
    }

    #[test]
    fn severity_counts_and_max() {
        let report = LintReport::new(vec![
            diag("CN004", Severity::Error, "a", 1),
            diag("CN013", Severity::Warning, "b", 2),
            diag("CN017", Severity::Info, "c", 3),
        ]);
        assert_eq!(report.count(Severity::Error), 1);
        assert_eq!(report.count(Severity::Warning), 1);
        assert_eq!(report.count(Severity::Info), 1);
        assert_eq!(report.max_severity(), Some(Severity::Error));
        assert!(report.has_errors());
        assert_eq!(LintReport::default().max_severity(), None);
    }

    #[test]
    fn deny_warnings_promotes() {
        let report =
            LintReport::new(vec![diag("CN013", Severity::Warning, "b", 2)]).deny_warnings();
        assert!(report.has_errors());
        assert!(!report.has_warnings());
    }

    #[test]
    fn text_rendering_has_summary() {
        let report = LintReport::new(vec![diag("CN004", Severity::Error, "zero memory", 4)
            .with_related(["task \"t\"".to_string()])]);
        let text = report.to_text();
        assert!(text.contains("error[CN004] 4:1: zero memory"), "{text}");
        assert!(text.contains("note: task \"t\""), "{text}");
        assert!(text.ends_with("1 error(s), 0 warning(s), 0 info(s)\n"), "{text}");
    }

    #[test]
    fn json_rendering_is_stable_and_parseable_shape() {
        let report = LintReport::new(vec![
            diag("CN004", Severity::Error, "says \"zero\"", 4),
            Diagnostic::new("CN001", Severity::Error, "no jobs"),
        ]);
        let json = report.to_json();
        assert!(json.starts_with("{\"diagnostics\":["), "{json}");
        assert!(json.contains("\"span\":{\"line\":4,\"col\":1,\"offset\":40}"), "{json}");
        assert!(json.contains("\"span\":null"), "{json}");
        assert!(json.contains("says \\\"zero\\\""), "{json}");
        assert!(json.ends_with("\"errors\":2,\"warnings\":0,\"infos\":0}"), "{json}");
        assert_eq!(json, report.to_json());
    }
}
