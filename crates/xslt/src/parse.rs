//! Stylesheet parsing: XML document → compiled [`Stylesheet`].

use std::collections::HashMap;

use cn_xml::{Document, NodeId, NodeKind, QName};
use cn_xpath::Expr;

use crate::exec::XsltError;
use crate::output::OutputMethod;
use crate::pattern::Pattern;
use crate::stylesheet::{
    Avt, AvtPart, Instruction, KeyDef, SortKey, Stylesheet, Template, ValueSource,
};

/// Parse a stylesheet from source text.
pub fn parse_stylesheet(src: &str) -> Result<Stylesheet, XsltError> {
    let doc = cn_xml::parse(src).map_err(|e| XsltError::new(format!("stylesheet XML: {e}")))?;
    let root =
        doc.root_element().ok_or_else(|| XsltError::new("stylesheet has no root element"))?;
    let root_name = doc.name(root).unwrap();
    if !matches!(root_name.local(), "stylesheet" | "transform") {
        return Err(XsltError::new(format!(
            "root element is <{root_name}>, expected xsl:stylesheet"
        )));
    }
    let mut templates = Vec::new();
    let mut named = HashMap::new();
    let mut output = OutputMethod::xml();
    let mut globals = Vec::new();
    let mut global_params = Vec::new();
    let mut keys = Vec::new();

    for child in doc.child_elements(root) {
        let name = doc.name(child).unwrap();
        match name.local() {
            "template" => {
                let t = parse_template(&doc, child, templates.len())?;
                if let Some(n) = &t.name {
                    named.insert(n.clone(), templates.len());
                }
                templates.push(t);
            }
            "output" => {
                output = parse_output(&doc, child)?;
            }
            "variable" => {
                let (n, v) = parse_variable_like(&doc, child)?;
                globals.push((n, v.unwrap_or(ValueSource::Expr(Expr::Literal(String::new())))));
            }
            "param" => {
                let (n, v) = parse_variable_like(&doc, child)?;
                global_params.push((n, v));
            }
            "key" => {
                let kname =
                    doc.attr(child, "name").ok_or_else(|| XsltError::new("xsl:key needs name="))?;
                let kmatch = doc
                    .attr(child, "match")
                    .ok_or_else(|| XsltError::new("xsl:key needs match="))?;
                let kuse =
                    doc.attr(child, "use").ok_or_else(|| XsltError::new("xsl:key needs use="))?;
                keys.push(KeyDef {
                    name: kname.to_string(),
                    pattern: Pattern::parse(kmatch)?,
                    use_expr: parse_expr(kuse)?,
                });
            }
            // Accepted and ignored: we always strip inter-element
            // whitespace in the stylesheet itself.
            "strip-space" | "preserve-space" | "decimal-format" | "import" | "include"
            | "namespace-alias" | "attribute-set" => {}
            other => {
                return Err(XsltError::new(format!("unsupported top-level element xsl:{other}")))
            }
        }
    }
    Ok(Stylesheet {
        templates,
        named,
        output,
        globals,
        global_params,
        keys,
        dispatch: std::sync::OnceLock::new(),
    })
}

fn parse_output(doc: &Document, el: NodeId) -> Result<OutputMethod, XsltError> {
    let method = doc.attr(el, "method").unwrap_or("xml");
    let indent = doc.attr(el, "indent").map(|v| v == "yes").unwrap_or(false);
    let declaration = doc.attr(el, "omit-xml-declaration").map(|v| v != "yes").unwrap_or(true);
    match method {
        "xml" => Ok(OutputMethod::Xml { indent, declaration }),
        "text" => Ok(OutputMethod::Text),
        other => Err(XsltError::new(format!("unsupported output method {other:?}"))),
    }
}

fn parse_template(doc: &Document, el: NodeId, order: usize) -> Result<Template, XsltError> {
    let pattern = doc.attr(el, "match").map(Pattern::parse).transpose()?;
    let name = doc.attr(el, "name").map(str::to_string);
    if pattern.is_none() && name.is_none() {
        return Err(XsltError::new("xsl:template needs match= or name="));
    }
    let mode = doc.attr(el, "mode").map(str::to_string);
    let priority = doc
        .attr(el, "priority")
        .map(|p| p.parse::<f64>().map_err(|_| XsltError::new(format!("bad priority {p:?}"))))
        .transpose()?;

    // Leading xsl:param children declare template parameters.
    let mut params = Vec::new();
    let mut body_start = Vec::new();
    for child in doc.children(el) {
        body_start.push(*child);
    }
    let mut rest = Vec::new();
    let mut in_params = true;
    for child in body_start {
        if in_params && doc.name(child).is_some_and(|n| is_xsl(n, "param")) {
            let (n, v) = parse_variable_like(doc, child)?;
            params.push((n, v));
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
    Ok(Template { pattern, name, mode, priority, order, params, body })
}

fn is_xsl(name: &QName, local: &str) -> bool {
    name.prefix() == Some("xsl") && name.local() == local
}

fn parse_variable_like(
    doc: &Document,
    el: NodeId,
) -> Result<(String, Option<ValueSource>), XsltError> {
    let name = doc
        .attr(el, "name")
        .ok_or_else(|| XsltError::new("xsl:variable/xsl:param needs name="))?
        .to_string();
    if let Some(select) = doc.attr(el, "select") {
        let expr = parse_expr(select)?;
        Ok((name, Some(ValueSource::Expr(expr))))
    } else {
        let children: Vec<NodeId> = doc.children(el).to_vec();
        if children.is_empty() {
            Ok((name, None))
        } else {
            Ok((name, Some(ValueSource::Body(parse_body(doc, &children)?))))
        }
    }
}

fn parse_expr(src: &str) -> Result<Expr, XsltError> {
    cn_xpath::parse_expr(src).map_err(|e| XsltError::new(format!("bad expression {src:?}: {e}")))
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
            NodeKind::Element { name, attrs } => {
                if name.prefix() == Some("xsl") {
                    out.push(parse_instruction(doc, child, name.local())?);
                } else {
                    // Literal result element.
                    let mut avt_attrs = Vec::new();
                    for (an, av) in attrs {
                        // xmlns declarations pass through as fixed text.
                        avt_attrs.push((*an, parse_avt(av)?));
                    }
                    let body = parse_body(doc, doc.children(child))?;
                    out.push(Instruction::LiteralElement { name: *name, attrs: avt_attrs, body });
                }
            }
        }
    }
    Ok(out)
}

fn parse_instruction(doc: &Document, el: NodeId, local: &str) -> Result<Instruction, XsltError> {
    let body = || parse_body(doc, doc.children(el));
    match local {
        "text" => Ok(Instruction::Text(doc.text_content(el))),
        "value-of" => {
            let select = doc
                .attr(el, "select")
                .ok_or_else(|| XsltError::new("xsl:value-of needs select="))?;
            Ok(Instruction::ValueOf(parse_expr(select)?))
        }
        "apply-templates" => {
            let select = doc.attr(el, "select").map(parse_expr).transpose()?;
            let mode = doc.attr(el, "mode").map(str::to_string);
            let (with_params, sorts) = parse_with_params_and_sorts(doc, el)?;
            Ok(Instruction::ApplyTemplates { select, mode, with_params, sorts })
        }
        "call-template" => {
            let name = doc
                .attr(el, "name")
                .ok_or_else(|| XsltError::new("xsl:call-template needs name="))?
                .to_string();
            let (with_params, _) = parse_with_params_and_sorts(doc, el)?;
            Ok(Instruction::CallTemplate { name, with_params })
        }
        "for-each" => {
            let select = doc
                .attr(el, "select")
                .ok_or_else(|| XsltError::new("xsl:for-each needs select="))?;
            let mut sorts = Vec::new();
            let mut body_children = Vec::new();
            for child in doc.children(el) {
                if doc.name(*child).is_some_and(|n| is_xsl(n, "sort")) {
                    sorts.push(parse_sort(doc, *child)?);
                } else {
                    body_children.push(*child);
                }
            }
            Ok(Instruction::ForEach {
                select: parse_expr(select)?,
                sorts,
                body: parse_body(doc, &body_children)?,
            })
        }
        "if" => {
            let test = doc.attr(el, "test").ok_or_else(|| XsltError::new("xsl:if needs test="))?;
            Ok(Instruction::If { test: parse_expr(test)?, body: body()? })
        }
        "choose" => {
            let mut whens = Vec::new();
            let mut otherwise = Vec::new();
            for child in doc.child_elements(el) {
                let cname = doc.name(child).unwrap();
                if is_xsl(cname, "when") {
                    let test = doc
                        .attr(child, "test")
                        .ok_or_else(|| XsltError::new("xsl:when needs test="))?;
                    whens.push((parse_expr(test)?, parse_body(doc, doc.children(child))?));
                } else if is_xsl(cname, "otherwise") {
                    otherwise = parse_body(doc, doc.children(child))?;
                } else {
                    return Err(XsltError::new(format!("unexpected <{cname}> inside xsl:choose")));
                }
            }
            if whens.is_empty() {
                return Err(XsltError::new("xsl:choose needs at least one xsl:when"));
            }
            Ok(Instruction::Choose { whens, otherwise })
        }
        "element" => {
            let name =
                doc.attr(el, "name").ok_or_else(|| XsltError::new("xsl:element needs name="))?;
            Ok(Instruction::Element { name: parse_avt(name)?, body: body()? })
        }
        "attribute" => {
            let name =
                doc.attr(el, "name").ok_or_else(|| XsltError::new("xsl:attribute needs name="))?;
            Ok(Instruction::Attribute { name: parse_avt(name)?, body: body()? })
        }
        "comment" => Ok(Instruction::Comment { body: body()? }),
        "variable" => {
            let (name, value) = parse_variable_like(doc, el)?;
            Ok(Instruction::Variable {
                name,
                value: value.unwrap_or(ValueSource::Expr(Expr::Literal(String::new()))),
            })
        }
        "copy" => Ok(Instruction::Copy { body: body()? }),
        "copy-of" => {
            let select = doc
                .attr(el, "select")
                .ok_or_else(|| XsltError::new("xsl:copy-of needs select="))?;
            Ok(Instruction::CopyOf(parse_expr(select)?))
        }
        "message" => {
            let terminate = doc.attr(el, "terminate") == Some("yes");
            Ok(Instruction::Message { body: body()?, terminate })
        }
        other => Err(XsltError::new(format!("unsupported instruction xsl:{other}"))),
    }
}

fn parse_sort(doc: &Document, el: NodeId) -> Result<SortKey, XsltError> {
    let select = doc.attr(el, "select").unwrap_or(".");
    let numeric = doc.attr(el, "data-type") == Some("number");
    let ascending = doc.attr(el, "order") != Some("descending");
    Ok(SortKey { select: parse_expr(select)?, numeric, ascending })
}

/// `with-param` bindings plus sort keys parsed off one instruction element.
type ParamsAndSorts = (Vec<(String, ValueSource)>, Vec<SortKey>);

fn parse_with_params_and_sorts(doc: &Document, el: NodeId) -> Result<ParamsAndSorts, XsltError> {
    let mut params = Vec::new();
    let mut sorts = Vec::new();
    for child in doc.child_elements(el) {
        let name = doc.name(child).unwrap();
        if is_xsl(name, "with-param") {
            let (n, v) = parse_variable_like(doc, child)?;
            params.push((n, v.unwrap_or(ValueSource::Expr(Expr::Literal(String::new())))));
        } else if is_xsl(name, "sort") {
            sorts.push(parse_sort(doc, child)?);
        } else {
            return Err(XsltError::new(format!("unexpected <{name}> here")));
        }
    }
    Ok((params, sorts))
}

/// Parse an attribute value template: `{expr}` holes in literal text,
/// `{{`/`}}` as escapes.
pub fn parse_avt(src: &str) -> Result<Avt, XsltError> {
    let mut parts = Vec::new();
    let mut text = String::new();
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' if chars.peek() == Some(&'{') => {
                chars.next();
                text.push('{');
            }
            '}' if chars.peek() == Some(&'}') => {
                chars.next();
                text.push('}');
            }
            '{' => {
                if !text.is_empty() {
                    parts.push(AvtPart::Text(std::mem::take(&mut text)));
                }
                let mut expr_src = String::new();
                let mut closed = false;
                for c in chars.by_ref() {
                    if c == '}' {
                        closed = true;
                        break;
                    }
                    expr_src.push(c);
                }
                if !closed {
                    return Err(XsltError::new(format!("unterminated {{ in AVT {src:?}")));
                }
                parts.push(AvtPart::Expr(parse_expr(&expr_src)?));
            }
            '}' => return Err(XsltError::new(format!("stray }} in AVT {src:?}"))),
            other => text.push(other),
        }
    }
    if !text.is_empty() || parts.is_empty() {
        parts.push(AvtPart::Text(text));
    }
    Ok(Avt { parts })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: &str = r#"xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0""#;

    fn sheet(body: &str) -> Stylesheet {
        parse_stylesheet(&format!("<xsl:stylesheet {NS}>{body}</xsl:stylesheet>")).unwrap()
    }

    #[test]
    fn parses_templates_with_modes_and_priorities() {
        let s = sheet(
            r#"<xsl:template match="task" mode="req" priority="2"/>
               <xsl:template match="task"/>
               <xsl:template name="helper"/>"#,
        );
        assert_eq!(s.templates.len(), 3);
        assert_eq!(s.templates[0].mode.as_deref(), Some("req"));
        assert_eq!(s.templates[0].priority, Some(2.0));
        assert!(s.named.contains_key("helper"));
    }

    #[test]
    fn parses_output_methods() {
        let s = sheet(r#"<xsl:output method="text"/>"#);
        assert_eq!(s.output, OutputMethod::Text);
        let s = sheet(r#"<xsl:output method="xml" indent="yes"/>"#);
        assert_eq!(s.output, OutputMethod::Xml { indent: true, declaration: true });
        let s = sheet(r#"<xsl:output method="xml" omit-xml-declaration="yes"/>"#);
        assert_eq!(s.output, OutputMethod::Xml { indent: false, declaration: false });
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
    }

    #[test]
    fn parses_literal_elements_with_avts() {
        let s = sheet(
            r#"<xsl:template match="/">
                 <task name="tctask{position()}" jar="fixed.jar"/>
               </xsl:template>"#,
        );
        match &s.templates[0].body[0] {
            Instruction::LiteralElement { name, attrs, .. } => {
                assert_eq!(name.as_str(), "task");
                assert!(matches!(attrs[0].1.parts[..], [AvtPart::Text(_), AvtPart::Expr(_)]));
                assert!(matches!(attrs[1].1.parts[..], [AvtPart::Text(_)]));
            }
            other => panic!("{other:?}"),
        }
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
    }

    #[test]
    fn avt_parsing() {
        let avt = parse_avt("a{1+1}b{{literal}}c").unwrap();
        assert_eq!(avt.parts.len(), 3);
        match &avt.parts[1] {
            AvtPart::Expr(_) => {}
            other => panic!("{other:?}"),
        }
        match &avt.parts[2] {
            AvtPart::Text(t) => assert_eq!(t, "b{literal}c"),
            other => panic!("{other:?}"),
        }
        assert!(parse_avt("{unclosed").is_err());
        assert!(parse_avt("stray}").is_err());
        assert_eq!(parse_avt("").unwrap().parts.len(), 1);
    }

    #[test]
    fn rejects_bad_stylesheets() {
        assert!(parse_stylesheet("<notxsl/>").is_err());
        assert!(parse_stylesheet(&format!(
            "<xsl:stylesheet {NS}><xsl:template/></xsl:stylesheet>"
        ))
        .is_err());
        assert!(parse_stylesheet(&format!("<xsl:stylesheet {NS}><xsl:bogus/></xsl:stylesheet>"))
            .is_err());
    }

    #[test]
    fn global_variables_and_params() {
        let s = sheet(
            r#"<xsl:variable name="g" select="'v'"/>
               <xsl:param name="p" select="42"/>"#,
        );
        assert_eq!(s.globals.len(), 1);
        assert_eq!(s.global_params.len(), 1);
    }
}
