//! Compiled stylesheet representation.

use std::collections::HashMap;

use cn_xml::QName;
use cn_xpath::Expr;

use crate::output::OutputMethod;
use crate::pattern::Pattern;

/// The value side of `with-param` / `variable` / `param`: either a `select`
/// expression or an instruction body (result-tree fragment, coerced to
/// string).
#[derive(Debug, Clone)]
pub enum ValueSource {
    Expr(Expr),
    Body(Vec<Instruction>),
}

/// One compiled XSLT instruction.
#[derive(Debug, Clone)]
pub enum Instruction {
    /// Literal text (from `xsl:text` or stylesheet text nodes).
    Text(String),
    /// `xsl:value-of select=...`
    ValueOf(Expr),
    /// `xsl:apply-templates select=...`
    ApplyTemplates { select: Expr, with_params: Vec<(String, ValueSource)> },
    /// `xsl:call-template name=...`
    CallTemplate { name: String, with_params: Vec<(String, ValueSource)> },
    /// `xsl:for-each select=...`
    ForEach { select: Expr, body: Vec<Instruction> },
    /// `xsl:if test=...`
    If { test: Expr, body: Vec<Instruction> },
    /// `xsl:choose`
    Choose { whens: Vec<(Expr, Vec<Instruction>)>, otherwise: Vec<Instruction> },
    /// `xsl:attribute name=...`, the name fixed text.
    Attribute { name: String, body: Vec<Instruction> },
    /// A literal result element; its attributes are fixed text.
    LiteralElement { name: QName, attrs: Vec<(QName, String)>, body: Vec<Instruction> },
    /// `xsl:variable` — binds for the remainder of the enclosing body.
    Variable { name: String, value: ValueSource },
}

/// A compiled template rule.
#[derive(Debug, Clone)]
pub struct Template {
    /// Match pattern; `None` for purely named templates.
    pub pattern: Option<Pattern>,
    /// `name=` for `call-template`.
    pub name: Option<String>,
    /// Declaration order; later templates win ties.
    pub order: usize,
    /// Declared `xsl:param`s: name and optional default.
    pub params: Vec<(String, Option<ValueSource>)>,
    pub body: Vec<Instruction>,
}

/// A declared `xsl:key`: an index over nodes matching `pattern`, keyed by
/// the string value of `use_expr` evaluated at each matching node.
#[derive(Debug, Clone)]
pub struct KeyDef {
    pub name: String,
    pub pattern: Pattern,
    pub use_expr: Expr,
}

/// A compiled stylesheet.
#[derive(Debug, Clone)]
pub struct Stylesheet {
    pub templates: Vec<Template>,
    /// Index of named templates into `templates`.
    pub named: HashMap<String, usize>,
    pub output: OutputMethod,
    /// Top-level `xsl:param`s — overridable by the caller.
    pub global_params: Vec<(String, Option<ValueSource>)>,
    /// Declared `xsl:key` indexes, served through the XPath `key()`
    /// function.
    pub keys: Vec<KeyDef>,
    /// Lazily built name-keyed dispatch index (see [`crate::dispatch`]).
    /// Derived from `templates` on first use; mutating `templates` after
    /// that would make it stale — the tool chain never does.
    pub dispatch: std::sync::OnceLock<crate::dispatch::DispatchIndex>,
}

impl Stylesheet {
    /// Parse a stylesheet from its XML source text (see [`crate::parse`]).
    pub fn parse(src: &str) -> Result<Stylesheet, crate::XsltError> {
        crate::parse::parse_stylesheet(src)
    }

    /// The name-keyed template dispatch index, built on first use.
    pub fn dispatch_index(&self) -> &crate::dispatch::DispatchIndex {
        self.dispatch.get_or_init(|| crate::dispatch::DispatchIndex::build(self))
    }

    /// The templates with a match pattern, in declaration order.
    pub(crate) fn match_rules(&self) -> impl Iterator<Item = &Template> {
        self.templates.iter().filter(|t| t.pattern.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stylesheet_parse_smoke() {
        let s = Stylesheet::parse(
            r#"<xsl:stylesheet version="1.0" xmlns:xsl="x">
                 <xsl:template match="task"/>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        assert_eq!(s.templates.len(), 1);
        assert!(s.templates[0].pattern.is_some());
    }
}
