//! Compiled stylesheet representation.

use std::collections::HashMap;

use cn_xml::QName;
use cn_xpath::Expr;

use crate::output::OutputMethod;
use crate::pattern::Pattern;

/// A parsed attribute value template: literal text interleaved with `{expr}`
/// holes.
#[derive(Debug, Clone)]
pub struct Avt {
    pub parts: Vec<AvtPart>,
}

#[derive(Debug, Clone)]
pub enum AvtPart {
    Text(String),
    Expr(Expr),
}

/// A sort key on `apply-templates` / `for-each`.
#[derive(Debug, Clone)]
pub struct SortKey {
    pub select: Expr,
    pub numeric: bool,
    pub ascending: bool,
}

/// The value side of `with-param` / `variable`: either a `select` expression
/// or an instruction body (result-tree fragment, coerced to string).
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
    /// `xsl:apply-templates`
    ApplyTemplates {
        select: Option<Expr>,
        mode: Option<String>,
        with_params: Vec<(String, ValueSource)>,
        sorts: Vec<SortKey>,
    },
    /// `xsl:call-template name=...`
    CallTemplate { name: String, with_params: Vec<(String, ValueSource)> },
    /// `xsl:for-each select=...`
    ForEach { select: Expr, sorts: Vec<SortKey>, body: Vec<Instruction> },
    /// `xsl:if test=...`
    If { test: Expr, body: Vec<Instruction> },
    /// `xsl:choose`
    Choose { whens: Vec<(Expr, Vec<Instruction>)>, otherwise: Vec<Instruction> },
    /// `xsl:element name={avt}`
    Element { name: Avt, body: Vec<Instruction> },
    /// `xsl:attribute name={avt}`
    Attribute { name: Avt, body: Vec<Instruction> },
    /// `xsl:comment`
    Comment { body: Vec<Instruction> },
    /// A literal result element with AVT attributes.
    LiteralElement { name: QName, attrs: Vec<(QName, Avt)>, body: Vec<Instruction> },
    /// `xsl:variable` — binds for the remainder of the enclosing body.
    Variable { name: String, value: ValueSource },
    /// `xsl:copy` — shallow-copies the context node, executing the body
    /// inside it (the identity-transform building block).
    Copy { body: Vec<Instruction> },
    /// `xsl:copy-of select=...` — deep-copies node-sets into the output.
    CopyOf(Expr),
    /// `xsl:message` — collected into [`crate::TransformResult::messages`].
    Message { body: Vec<Instruction>, terminate: bool },
}

/// A compiled template rule.
#[derive(Debug, Clone)]
pub struct Template {
    /// Match pattern; `None` for purely named templates.
    pub pattern: Option<Pattern>,
    /// `name=` for `call-template`.
    pub name: Option<String>,
    pub mode: Option<String>,
    /// Explicit `priority=`, if given (otherwise per-alternative defaults
    /// from the pattern are used).
    pub priority: Option<f64>,
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
    /// Top-level `xsl:variable`s (evaluated against the source root).
    pub globals: Vec<(String, ValueSource)>,
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

    /// Templates that could match in `mode`, best-first (priority desc,
    /// declaration order desc).
    pub fn rules_for_mode<'a>(&'a self, mode: Option<&str>) -> impl Iterator<Item = &'a Template> {
        let mode = mode.map(str::to_string);
        self.templates
            .iter()
            .filter(move |t| t.pattern.is_some() && t.mode.as_deref() == mode.as_deref())
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
