//! Diagnostic primitives: severities, stable codes, and the diagnostic
//! record every lint pass emits.

use std::fmt;

use cn_cnx::Span;

/// How bad a finding is. Ordering is by badness (`Info < Warning < Error`),
/// so `max()` over a report gives the exit-code-relevant severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding. `code` is stable across releases (CI configs and
/// suppressions key on it); `message` is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable `CN0xx` code (see the table in DESIGN.md).
    pub code: &'static str,
    pub severity: Severity,
    pub message: String,
    /// Source location for parsed inputs; `None` when the subject was built
    /// programmatically or the finding has no single location.
    pub span: Option<Span>,
    /// Related subjects — task names, dependency chains — for machine
    /// consumption alongside the prose message.
    pub related: Vec<String>,
}

impl Diagnostic {
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity, message: message.into(), span: None, related: Vec::new() }
    }

    pub fn with_span(mut self, span: Span) -> Diagnostic {
        // Synthetic spans carry no information; keep them out of output.
        if !span.is_synthetic() {
            self.span = Some(span);
        }
        self
    }

    pub fn with_related(mut self, related: impl IntoIterator<Item = String>) -> Diagnostic {
        self.related.extend(related);
        self
    }

    /// `severity[code] span: message` — the one-line text rendering.
    pub fn render_text(&self) -> String {
        let mut out = format!("{}[{}]", self.severity, self.code);
        if let Some(span) = self.span {
            out.push_str(&format!(" {span}"));
        }
        out.push_str(": ");
        out.push_str(&self.message);
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_observe::export::json_escape;

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(
            [Severity::Warning, Severity::Error, Severity::Info].iter().max(),
            Some(&Severity::Error)
        );
    }

    #[test]
    fn render_includes_code_and_span() {
        let d = Diagnostic::new("CN007", Severity::Error, "dependency cycle: a -> b -> a")
            .with_span(Span::new(5, 1, 120));
        assert_eq!(d.render_text(), "error[CN007] 5:1: dependency cycle: a -> b -> a");
    }

    #[test]
    fn synthetic_spans_are_dropped() {
        let d = Diagnostic::new("CN001", Severity::Error, "x").with_span(Span::synthetic());
        assert_eq!(d.span, None);
        assert_eq!(d.render_text(), "error[CN001]: x");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape(r#"say "hi"\"#), r#"say \"hi\"\\"#);
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
