//! Stylesheet parsing: XML document → compiled [`Stylesheet`].
//!
//! The parser accepts what the engine runs and refuses the rest, by code,
//! before anything runs:
//!
//! * `XTSE0010` — an XSLT element the engine does not run (`xsl:include`,
//!   `xsl:sort`, `xsl:copy`, a top-level `xsl:variable`, ...), one in a
//!   place it does not run it, or one without an attribute it needs;
//! * `XTSE0090` — an attribute the engine does not read on an XSLT element
//!   (`mode=`, `priority=`, `omit-xml-declaration=`, ...);
//! * `XPST0003` — XPath outside the grammar, in an expression, a pattern or
//!   an attribute value (`{…}` templates);
//! * `XPST0017` — a function the library does not have, or a wrong arity.

use std::collections::HashMap;

use cn_xml::{Document, NodeId, NodeKind, QName};
use cn_xpath::{ErrorCode, Expr};

use crate::exec::XsltError;
use crate::output::OutputMethod;
use crate::pattern::Pattern;
use crate::stylesheet::{Instruction, KeyDef, Stylesheet, Template, ValueSource};

/// Parse a stylesheet from source text.
pub fn parse_stylesheet(src: &str) -> Result<Stylesheet, XsltError> {
    let doc = cn_xml::parse(src).map_err(|e| XsltError::new(format!("stylesheet XML: {e}")))?;
    let Some((root, root_name)) = doc.root_element().and_then(|r| Some((r, doc.name(r)?))) else {
        return Err(XsltError::new("stylesheet has no root element"));
    };
    if !is_xsl(root_name, "stylesheet") && !is_xsl(root_name, "transform") {
        return Err(XsltError::new(format!(
            "root element is <{root_name}>, expected xsl:stylesheet"
        )));
    }
    xsl_attrs(&doc, root, &["version"])?;
    let mut templates = Vec::new();
    let mut named = HashMap::new();
    let mut output = OutputMethod::Xml { indent: false };
    let mut global_params = Vec::new();
    let mut keys = Vec::new();

    for child in doc.child_elements(root) {
        match xsl_local(&doc, child) {
            Some("template") => {
                let t = parse_template(&doc, child, templates.len())?;
                if let Some(n) = &t.name {
                    named.insert(n.clone(), templates.len());
                }
                templates.push(t);
            }
            Some("output") => {
                let a = xsl_attrs(&doc, child, &["method", "indent"])?;
                output = match a.get("method").unwrap_or("xml") {
                    "xml" => OutputMethod::Xml { indent: a.get("indent") == Some("yes") },
                    "text" => OutputMethod::Text,
                    other => {
                        return Err(XsltError::new(format!("unsupported output method {other:?}")))
                    }
                };
            }
            Some("param") => global_params.push(parse_variable_like(&doc, child)?),
            Some("key") => {
                let a = xsl_attrs(&doc, child, &["name", "match", "use"])?;
                keys.push(KeyDef {
                    name: a.need("name")?.to_string(),
                    pattern: Pattern::parse(a.need("match")?)?,
                    use_expr: a.expr("use")?,
                });
            }
            _ => {
                let msg = format!(
                    "<{}> is not a top-level declaration the engine runs",
                    name(&doc, child)
                );
                return Err(XsltError::coded(ErrorCode::XTSE0010, msg));
            }
        }
    }
    Ok(Stylesheet {
        templates,
        named,
        output,
        global_params,
        keys,
        dispatch: std::sync::OnceLock::new(),
    })
}

/// The attributes of one XSLT element.
struct Attrs<'d> {
    doc: &'d Document,
    el: NodeId,
}

impl<'d> Attrs<'d> {
    fn get(&self, attr: &str) -> Option<&'d str> {
        self.doc.attr(self.el, attr)
    }

    /// An attribute the element cannot do without (`XTSE0010`).
    fn need(&self, attr: &str) -> Result<&'d str, XsltError> {
        self.get(attr).ok_or_else(|| {
            let msg = format!("{} needs {attr}=", name(self.doc, self.el));
            XsltError::coded(ErrorCode::XTSE0010, msg)
        })
    }

    /// A needed attribute, parsed as an XPath expression.
    fn expr(&self, attr: &str) -> Result<Expr, XsltError> {
        parse_expr(self.need(attr)?)
    }
}

/// The attributes of XSLT element `el`, refusing any it does not `read`
/// (`XTSE0090`). Namespace declarations are not attributes.
fn xsl_attrs<'d>(doc: &'d Document, el: NodeId, read: &[&str]) -> Result<Attrs<'d>, XsltError> {
    let unread = doc.attrs(el).iter().map(|(name, _)| name).find(|name| {
        !read.contains(&name.as_str()) && name.as_str() != "xmlns" && name.prefix() != Some("xmlns")
    });
    match unread {
        None => Ok(Attrs { doc, el }),
        Some(attr) => {
            let msg = format!("{} takes no {attr}= the engine reads", name(doc, el));
            Err(XsltError::coded(ErrorCode::XTSE0090, msg))
        }
    }
}

/// The lexical name of element `el`, for messages.
fn name(doc: &Document, el: NodeId) -> String {
    doc.name(el).map_or_else(String::new, QName::to_string)
}

/// The local name of `el` if it is an XSLT element.
fn xsl_local(doc: &Document, el: NodeId) -> Option<&str> {
    doc.name(el).filter(|n| n.prefix() == Some("xsl")).map(QName::local)
}

fn is_xsl(name: &QName, local: &str) -> bool {
    name.prefix() == Some("xsl") && name.local() == local
}

fn parse_template(doc: &Document, el: NodeId, order: usize) -> Result<Template, XsltError> {
    let a = xsl_attrs(doc, el, &["match", "name"])?;
    let pattern = a.get("match").map(Pattern::parse).transpose()?;
    let name = a.get("name").map(str::to_string);
    if pattern.is_none() && name.is_none() {
        return Err(XsltError::coded(ErrorCode::XTSE0010, "xsl:template needs match= or name="));
    }

    // Leading xsl:param children declare template parameters.
    let mut params = Vec::new();
    let mut rest = Vec::new();
    let mut in_params = true;
    for &child in doc.children(el) {
        if in_params && xsl_local(doc, child) == Some("param") {
            params.push(parse_variable_like(doc, child)?);
        } else {
            if doc.is_element(child)
                || matches!(doc.kind(child), NodeKind::Text(t) if !t.trim().is_empty())
            {
                in_params = false;
            }
            rest.push(child);
        }
    }
    let body = parse_body(doc, &rest)?;
    Ok(Template { pattern, name, order, params, body })
}

/// `xsl:param`, `xsl:variable` and `xsl:with-param`: a name, and a value
/// from `select=` or from the body.
fn parse_variable_like(
    doc: &Document,
    el: NodeId,
) -> Result<(String, Option<ValueSource>), XsltError> {
    let a = xsl_attrs(doc, el, &["name", "select"])?;
    let name = a.need("name")?.to_string();
    if a.get("select").is_some() {
        Ok((name, Some(ValueSource::Expr(a.expr("select")?))))
    } else if doc.children(el).is_empty() {
        Ok((name, None))
    } else {
        Ok((name, Some(ValueSource::Body(parse_body(doc, doc.children(el))?))))
    }
}

fn parse_expr(src: &str) -> Result<Expr, XsltError> {
    cn_xpath::parse_expr(src).map_err(|e| XsltError::parse(src, "expression", e))
}

/// An attribute value with no `{…}` hole: attribute value templates are
/// outside the grammar (`XPST0003`).
fn fixed_text(value: &str) -> Result<String, XsltError> {
    if value.contains(['{', '}']) {
        let msg = format!("attribute value {value:?}: attribute value templates are not supported");
        return Err(XsltError::coded(ErrorCode::XPST0003, msg));
    }
    Ok(value.to_string())
}

fn parse_body(doc: &Document, children: &[NodeId]) -> Result<Vec<Instruction>, XsltError> {
    let mut out = Vec::new();
    for &child in children {
        match doc.kind(child) {
            NodeKind::Text(t) => {
                // Whitespace-only text nodes in the stylesheet are stripped
                // (XSLT 1.0 §3.4); use xsl:text to force whitespace output.
                if !t.trim().is_empty() {
                    out.push(Instruction::Text(t.clone()));
                }
            }
            NodeKind::Comment(_) | NodeKind::ProcessingInstruction { .. } => {}
            NodeKind::Document => unreachable!("document node inside a template body"),
            NodeKind::Element { name, attrs } => match xsl_local(doc, child) {
                Some(local) => out.push(parse_instruction(doc, child, local)?),
                None => {
                    // Literal result element; xmlns declarations pass
                    // through as fixed text too.
                    let attrs = attrs
                        .iter()
                        .map(|(an, av)| Ok((*an, fixed_text(av)?)))
                        .collect::<Result<_, XsltError>>()?;
                    let body = parse_body(doc, doc.children(child))?;
                    out.push(Instruction::LiteralElement { name: *name, attrs, body });
                }
            },
        }
    }
    Ok(out)
}

fn parse_instruction(doc: &Document, el: NodeId, local: &str) -> Result<Instruction, XsltError> {
    let body = || parse_body(doc, doc.children(el));
    match local {
        "text" => {
            xsl_attrs(doc, el, &[])?;
            Ok(Instruction::Text(doc.text_content(el)))
        }
        "value-of" => Ok(Instruction::ValueOf(xsl_attrs(doc, el, &["select"])?.expr("select")?)),
        "apply-templates" => Ok(Instruction::ApplyTemplates {
            select: xsl_attrs(doc, el, &["select"])?.expr("select")?,
            with_params: parse_with_params(doc, el)?,
        }),
        "call-template" => Ok(Instruction::CallTemplate {
            name: xsl_attrs(doc, el, &["name"])?.need("name")?.to_string(),
            with_params: parse_with_params(doc, el)?,
        }),
        "for-each" => Ok(Instruction::ForEach {
            select: xsl_attrs(doc, el, &["select"])?.expr("select")?,
            body: body()?,
        }),
        "if" => Ok(Instruction::If {
            test: xsl_attrs(doc, el, &["test"])?.expr("test")?,
            body: body()?,
        }),
        "choose" => {
            xsl_attrs(doc, el, &[])?;
            let mut whens = Vec::new();
            let mut otherwise = Vec::new();
            for child in doc.child_elements(el) {
                match xsl_local(doc, child) {
                    Some("when") => {
                        let test = xsl_attrs(doc, child, &["test"])?.expr("test")?;
                        whens.push((test, parse_body(doc, doc.children(child))?));
                    }
                    Some("otherwise") => {
                        xsl_attrs(doc, child, &[])?;
                        otherwise = parse_body(doc, doc.children(child))?;
                    }
                    _ => return Err(misplaced(doc, child, el)),
                }
            }
            if whens.is_empty() {
                let msg = "xsl:choose needs at least one xsl:when";
                return Err(XsltError::coded(ErrorCode::XTSE0010, msg));
            }
            Ok(Instruction::Choose { whens, otherwise })
        }
        "attribute" => Ok(Instruction::Attribute {
            name: fixed_text(xsl_attrs(doc, el, &["name"])?.need("name")?)?,
            body: body()?,
        }),
        "variable" => {
            let (name, value) = parse_variable_like(doc, el)?;
            Ok(Instruction::Variable {
                name,
                value: value.unwrap_or(ValueSource::Expr(Expr::Literal(String::new()))),
            })
        }
        other => {
            let msg = format!("xsl:{other} is not an instruction the engine runs");
            Err(XsltError::coded(ErrorCode::XTSE0010, msg))
        }
    }
}

/// `XTSE0010` for element `el` inside `parent`, which does not take it.
fn misplaced(doc: &Document, el: NodeId, parent: NodeId) -> XsltError {
    let msg = format!("<{}> is not run inside {}", name(doc, el), name(doc, parent));
    XsltError::coded(ErrorCode::XTSE0010, msg)
}

/// The `xsl:with-param` children of `el`, its only children.
fn parse_with_params(doc: &Document, el: NodeId) -> Result<Vec<(String, ValueSource)>, XsltError> {
    let mut params = Vec::new();
    for child in doc.child_elements(el) {
        if xsl_local(doc, child) != Some("with-param") {
            return Err(misplaced(doc, child, el));
        }
        let (n, v) = parse_variable_like(doc, child)?;
        params.push((n, v.unwrap_or(ValueSource::Expr(Expr::Literal(String::new())))));
    }
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: &str = r#"xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0""#;

    fn compile(body: &str) -> Result<Stylesheet, XsltError> {
        parse_stylesheet(&format!("<xsl:stylesheet {NS}>{body}</xsl:stylesheet>"))
    }

    fn sheet(body: &str) -> Stylesheet {
        compile(body).unwrap()
    }

    /// The code the stylesheet `body` is refused with.
    fn refused(body: &str) -> ErrorCode {
        compile(body).unwrap_err().code()
    }

    #[test]
    fn each_removed_family_is_refused_by_its_code() {
        let template = |inner: &str| format!(r#"<xsl:template match="/">{inner}</xsl:template>"#);
        let cases = [
            (
                template(r#"<xsl:for-each select="//a"><xsl:sort select="@n"/></xsl:for-each>"#),
                ErrorCode::XTSE0010,
            ),
            (r#"<xsl:include href="other.xsl"/>"#.to_string(), ErrorCode::XTSE0010),
            (r#"<xsl:template match="a" mode="alt"/>"#.to_string(), ErrorCode::XTSE0090),
            (template(r#"<xsl:value-of select="count(//a)"/>"#), ErrorCode::XPST0017),
            (template(r#"<xsl:value-of select="concat('a')"/>"#), ErrorCode::XPST0017),
            (template(r#"<xsl:value-of select="ancestor::a"/>"#), ErrorCode::XPST0003),
            (template(r#"<xsl:apply-templates select="//a | //b"/>"#), ErrorCode::XPST0003),
            (template(r#"<task id="{@id}"/>"#), ErrorCode::XPST0003),
        ];
        for (body, code) in cases {
            assert_eq!(refused(&body), code, "{body}");
        }
    }

    #[test]
    fn every_ignored_declaration_is_refused() {
        for decl in [
            "import",
            "include",
            "strip-space",
            "preserve-space",
            "decimal-format",
            "namespace-alias",
            "attribute-set",
            "variable",
        ] {
            assert_eq!(refused(&format!("<xsl:{decl}/>")), ErrorCode::XTSE0010, "{decl}");
        }
        // So is a top-level element outside XSLT, and an unread attribute
        // on the root.
        assert_eq!(refused("<data/>"), ErrorCode::XTSE0010);
        let err =
            parse_stylesheet(&format!(r#"<xsl:stylesheet {NS} exclude-result-prefixes="x"/>"#))
                .unwrap_err();
        assert_eq!(err.code(), ErrorCode::XTSE0090);
    }

    #[test]
    fn parses_templates_with_modes_and_priorities() {
        let s = sheet(
            r#"<xsl:template match="task"/>
               <xsl:template name="helper"/>"#,
        );
        assert_eq!(s.templates.len(), 2);
        assert!(s.named.contains_key("helper"));
        assert_eq!(refused(r#"<xsl:template match="task" mode="req"/>"#), ErrorCode::XTSE0090);
        assert_eq!(refused(r#"<xsl:template match="task" priority="2"/>"#), ErrorCode::XTSE0090);
    }

    #[test]
    fn parses_output_methods() {
        let s = sheet(r#"<xsl:output method="text"/>"#);
        assert_eq!(s.output, OutputMethod::Text);
        let s = sheet(r#"<xsl:output method="xml" indent="yes"/>"#);
        assert_eq!(s.output, OutputMethod::Xml { indent: true });
        let body = r#"<xsl:output method="xml" omit-xml-declaration="yes"/>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0090);
        assert_eq!(refused(r#"<xsl:output method="html"/>"#), ErrorCode::Other);
    }

    #[test]
    fn whitespace_only_text_is_stripped_but_xsl_text_kept() {
        let s = sheet(
            r#"<xsl:template match="/">
                 <xsl:text>  kept  </xsl:text>
               </xsl:template>"#,
        );
        let body = &s.templates[0].body;
        assert_eq!(body.len(), 1);
        assert!(matches!(&body[0], Instruction::Text(t) if t == "  kept  "));
    }

    #[test]
    fn parses_template_params() {
        let s = sheet(
            r#"<xsl:template name="t">
                 <xsl:param name="a"/>
                 <xsl:param name="b" select="1"/>
                 <xsl:value-of select="$a"/>
               </xsl:template>"#,
        );
        let t = &s.templates[0];
        assert_eq!(t.params.len(), 2);
        assert_eq!(t.params[0].0, "a");
        assert!(t.params[0].1.is_none());
        assert!(t.params[1].1.is_some());
        assert_eq!(t.body.len(), 1);
        // A param after the body has started is not one the engine binds.
        let body = r#"<xsl:template name="t"><x/><xsl:param name="late"/></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0010);
    }

    #[test]
    fn parses_literal_elements_with_avts() {
        let s = sheet(
            r#"<xsl:template match="/">
                 <task jar="fixed.jar"/>
               </xsl:template>"#,
        );
        match &s.templates[0].body[0] {
            Instruction::LiteralElement { name, attrs, .. } => {
                assert_eq!(name.as_str(), "task");
                assert_eq!(attrs[0].1, "fixed.jar");
            }
            other => panic!("{other:?}"),
        }
        let body = r#"<xsl:template match="/"><task name="tctask{position()}"/></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XPST0003);
    }

    #[test]
    fn parses_choose() {
        let s = sheet(
            r#"<xsl:template match="/">
                 <xsl:choose>
                   <xsl:when test="1">a</xsl:when>
                   <xsl:when test="2">b</xsl:when>
                   <xsl:otherwise>c</xsl:otherwise>
                 </xsl:choose>
               </xsl:template>"#,
        );
        match &s.templates[0].body[0] {
            Instruction::Choose { whens, otherwise } => {
                assert_eq!(whens.len(), 2);
                assert_eq!(otherwise.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        let body =
            r#"<xsl:template match="/"><xsl:choose><xsl:if test="1"/></xsl:choose></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0010);
    }

    #[test]
    fn avt_parsing() {
        // Attribute values are fixed text: any brace is refused.
        assert_eq!(fixed_text("plain").unwrap(), "plain");
        for src in ["a{1+1}b", "{{literal}}", "{unclosed", "stray}"] {
            assert_eq!(fixed_text(src).unwrap_err().code(), ErrorCode::XPST0003, "{src}");
        }
    }

    #[test]
    fn rejects_bad_stylesheets() {
        assert!(parse_stylesheet("<notxsl/>").is_err());
        assert_eq!(refused("<xsl:template/>"), ErrorCode::XTSE0010);
        assert_eq!(refused("<xsl:bogus/>"), ErrorCode::XTSE0010);
        let body = r#"<xsl:template match="/"><xsl:apply-templates/></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0010);
        let body = r#"<xsl:template match="/"><xsl:value-of select="." disable-output-escaping="yes"/></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0090);
    }

    #[test]
    fn global_variables_and_params() {
        let s = sheet(r#"<xsl:param name="p" select="42"/>"#);
        assert_eq!(s.global_params.len(), 1);
        assert_eq!(refused(r#"<xsl:variable name="g" select="'v'"/>"#), ErrorCode::XTSE0010);
    }
}
