//! Transform execution.

use std::collections::HashMap;
use std::fmt;

use std::sync::Arc;

use cn_xml::Document;
use cn_xpath::eval::{KeyResolver, ScanCache};
use cn_xpath::{Ctx, ErrorCode, EvalError, ParseError, Value, XNode};

use parking_lot::Mutex;

use crate::dispatch::DispatchIndex;
use crate::output::{serialize, Builder, OutputMethod};
use crate::stylesheet::{Instruction, KeyDef, Stylesheet, Template, ValueSource};

/// Anything that can go wrong parsing or running a stylesheet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XsltError {
    pub msg: String,
    code: ErrorCode,
}

impl XsltError {
    /// A failure without a code of its own ([`ErrorCode::Other`]).
    pub fn new(msg: impl Into<String>) -> Self {
        XsltError::coded(ErrorCode::Other, msg)
    }

    pub(crate) fn coded(code: ErrorCode, msg: impl Into<String>) -> Self {
        XsltError { msg: msg.into(), code }
    }

    /// `what` (an expression or a pattern) `src` did not parse.
    pub(crate) fn parse(src: &str, what: &str, e: ParseError) -> Self {
        XsltError::coded(e.code(), format!("bad {what} {src:?}: {e}"))
    }

    /// The static error a stylesheet was refused with when it compiled, or
    /// [`ErrorCode::Other`].
    pub fn code(&self) -> ErrorCode {
        self.code
    }
}

impl fmt::Display for XsltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.code {
            ErrorCode::Other => write!(f, "XSLT error: {}", self.msg),
            code => write!(f, "XSLT error {code}: {}", self.msg),
        }
    }
}

impl std::error::Error for XsltError {}

impl From<EvalError> for XsltError {
    fn from(e: EvalError) -> Self {
        XsltError::new(e.msg)
    }
}

/// The outcome of a transform.
#[derive(Debug)]
pub struct TransformResult {
    /// The result tree.
    pub document: Document,
    /// Declared output method (drives [`TransformResult::to_output_string`]).
    pub method: OutputMethod,
}

impl TransformResult {
    /// Serialize per the stylesheet's `xsl:output` method.
    pub fn to_output_string(&self) -> String {
        serialize(&self.document, self.method)
    }
}

/// Run `style` against `source` with no external parameters.
pub fn transform(style: &Stylesheet, source: &Document) -> Result<TransformResult, XsltError> {
    transform_with_params(style, source, &HashMap::new())
}

/// Run `style` against `source`, overriding top-level `xsl:param`s.
pub fn transform_with_params(
    style: &Stylesheet,
    source: &Document,
    params: &HashMap<String, Value>,
) -> Result<TransformResult, XsltError> {
    run_with_dispatch(style, source, params, Some(style.dispatch_index()))
}

/// [`transform_with_params`] through `dispatch`; `None` is the reference
/// linear scan over every rule, which only this crate's tests run.
fn run_with_dispatch<'a>(
    style: &'a Stylesheet,
    source: &'a Document,
    params: &HashMap<String, Value>,
    dispatch: Option<&'a DispatchIndex>,
) -> Result<TransformResult, XsltError> {
    let keys: Arc<KeyTables<'_>> = Arc::new(KeyTables::new(source, &style.keys));
    let proto = Ctx::new(source, source.document_node())
        .with_cache(Arc::new(ScanCache::new()))
        .with_keys(Arc::clone(&keys) as Arc<dyn KeyResolver + '_>);
    let mut runtime = Runtime { style, source, builder: Builder::new(), depth: 0, dispatch, proto };
    // Caller override beats default; later declarations see earlier
    // bindings.
    for (name, default) in &style.global_params {
        let v = match params.get(name) {
            Some(v) => v.clone(),
            None => match default {
                Some(vs) => {
                    let ctx = runtime.proto.clone();
                    runtime.eval_value_source(vs, &ctx)?
                }
                None => Value::Str(String::new()),
            },
        };
        runtime.proto.bind_var(name.clone(), v);
    }

    let root = XNode::Node(source.document_node());
    runtime.apply_templates_to(&[root], &[])?;
    Ok(TransformResult { document: runtime.builder.finish(), method: style.output })
}

/// Recursion guard: template application depth. Kept conservative because
/// each level costs several stack frames in the interpreter; CN stylesheets
/// recurse only over document nesting depth and small counters.
const MAX_DEPTH: usize = 128;

struct Runtime<'a> {
    style: &'a Stylesheet,
    source: &'a Document,
    builder: Builder,
    depth: usize,
    /// Name-keyed template dispatch index, or `None` to force the reference
    /// linear scan over every rule.
    dispatch: Option<&'a DispatchIndex>,
    /// Prototype evaluation context: positioned at the document node, with
    /// global bindings, the shared whole-document scan cache, and the lazily
    /// built `xsl:key` tables. Per-node contexts derive from it via
    /// [`Ctx::at`] — an `Arc` refcount bump, not a variable-map copy.
    proto: Ctx<'a>,
}

/// One built key index: key value → matching nodes.
type KeyTable = HashMap<String, Vec<XNode>>;

/// Lazily-built index tables for the stylesheet's `xsl:key` declarations:
/// on the first `key('k', ...)` call, every node matching `k`'s pattern is
/// indexed by the string value of its `use` expression.
struct KeyTables<'d> {
    doc: &'d Document,
    defs: Vec<KeyDef>,
    tables: Mutex<HashMap<String, Arc<KeyTable>>>,
}

impl<'d> KeyTables<'d> {
    fn new(doc: &'d Document, defs: &[KeyDef]) -> Self {
        KeyTables { doc, defs: defs.to_vec(), tables: Mutex::new(HashMap::new()) }
    }

    fn table_for(&self, name: &str) -> Result<Arc<KeyTable>, EvalError> {
        if let Some(hit) = self.tables.lock().get(name) {
            return Ok(Arc::clone(hit));
        }
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| EvalError::new(format!("no xsl:key named {name:?}")))?;
        let ctx = Ctx::new(self.doc, self.doc.document_node());
        let mut table = KeyTable::new();
        for node in self.doc.descendants(self.doc.document_node()) {
            let xnode = XNode::Node(node);
            if def.pattern.matches(self.doc, xnode) {
                let sub = ctx.at(xnode, 1);
                match sub.eval(&def.use_expr)? {
                    // A node-set `use` indexes the node under each value.
                    Value::NodeSet(ns) => {
                        for v in ns {
                            table.entry(v.string_value(self.doc)).or_default().push(xnode);
                        }
                    }
                    other => table.entry(other.to_string_value(self.doc)).or_default().push(xnode),
                }
            }
        }
        let arc = Arc::new(table);
        self.tables.lock().insert(name.to_string(), Arc::clone(&arc));
        Ok(arc)
    }
}

impl KeyResolver for KeyTables<'_> {
    fn lookup(&self, name: &str, value: &str) -> Result<Vec<XNode>, EvalError> {
        Ok(self.table_for(name)?.get(value).cloned().unwrap_or_default())
    }
}

impl<'a> Runtime<'a> {
    fn eval_value_source(&mut self, vs: &ValueSource, ctx: &Ctx<'a>) -> Result<Value, XsltError> {
        match vs {
            ValueSource::Expr(e) => Ok(ctx.eval(e)?),
            ValueSource::Body(body) => {
                // Result-tree fragment → string (the only coercion the CN
                // stylesheets need). The fragment body sees the caller's
                // full variable scope; its own bindings stay local.
                let saved = std::mem::take(&mut self.builder);
                let mut inner = ctx.clone();
                self.run_body(body, &mut inner)?;
                let fragment = std::mem::replace(&mut self.builder, saved);
                Ok(Value::Str(fragment.text_value()))
            }
        }
    }

    /// Find the best template rule for `node`.
    ///
    /// With the dispatch index, only rules bucketed under the node's name
    /// atom are pattern-tested; without it, every rule is. Both paths see
    /// candidates in declaration order, so conflict resolution is identical.
    fn best_rule(&self, node: XNode) -> Option<&'a Template> {
        let style = self.style;
        match self.dispatch {
            Some(ix) => {
                let atom = node.qname(self.source).map(|q| q.atom());
                self.pick_best(node, ix.candidates(atom).iter().map(|&i| &style.templates[i]))
            }
            None => self.pick_best(node, style.match_rules()),
        }
    }

    fn pick_best(
        &self,
        node: XNode,
        rules: impl Iterator<Item = &'a Template>,
    ) -> Option<&'a Template> {
        let mut best: Option<(&'a Template, f64)> = None;
        for t in rules {
            let Some(pattern) = t.pattern.as_ref() else { continue };
            if pattern.matches(self.source, node) {
                let prio = pattern.default_priority();
                // Later declaration wins ties (XSLT recovery behaviour).
                if best.is_none_or(|(bt, bp)| prio > bp || (prio == bp && t.order > bt.order)) {
                    best = Some((t, prio));
                }
            }
        }
        best.map(|(t, _)| t)
    }

    /// Apply templates to a node list (built-in rules as fallback).
    fn apply_templates_to(
        &mut self,
        nodes: &[XNode],
        with_params: &[(String, Value)],
    ) -> Result<(), XsltError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(XsltError::new("template recursion depth exceeded"));
        }
        for (i, &node) in nodes.iter().enumerate() {
            match self.best_rule(node) {
                Some(t) => {
                    let mut ctx = self.proto.at(node, i + 1);
                    // Bind declared params: passed value, else default.
                    // Defaults see earlier params (accumulating scope).
                    for (pname, pdefault) in &t.params {
                        let passed = with_params.iter().find(|(n, _)| n == pname);
                        let v = match passed {
                            Some((_, v)) => v.clone(),
                            None => match pdefault {
                                Some(vs) => self.eval_value_source(vs, &ctx)?,
                                None => Value::Str(String::new()),
                            },
                        };
                        ctx.bind_var(pname.clone(), v);
                    }
                    self.run_body(&t.body, &mut ctx)?;
                }
                None => self.builtin_rule(node)?,
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// XSLT built-in rules: recurse through elements/document, copy text
    /// and attribute values, skip comments/PIs.
    fn builtin_rule(&mut self, node: XNode) -> Result<(), XsltError> {
        match node {
            XNode::Node(n) => match self.source.kind(n) {
                cn_xml::NodeKind::Document | cn_xml::NodeKind::Element { .. } => {
                    let children: Vec<XNode> =
                        self.source.children(n).iter().map(|&c| XNode::Node(c)).collect();
                    self.apply_templates_to(&children, &[])
                }
                cn_xml::NodeKind::Text(t) => {
                    self.builder.text(t);
                    Ok(())
                }
                cn_xml::NodeKind::Comment(_) | cn_xml::NodeKind::ProcessingInstruction { .. } => {
                    Ok(())
                }
            },
            XNode::Attr { .. } => {
                self.builder.text(&node.string_value(self.source));
                Ok(())
            }
        }
    }

    /// Execute an instruction body. `xsl:variable` bindings accumulate
    /// directly in `ctx` (copy-on-write: nested scopes clone the `Ctx`,
    /// which shares the variable map until a binding diverges).
    fn run_body(&mut self, body: &[Instruction], ctx: &mut Ctx<'a>) -> Result<(), XsltError> {
        for inst in body {
            match inst {
                Instruction::Text(t) => self.builder.text(t),
                Instruction::ValueOf(e) => {
                    let s = ctx.eval(e)?.to_string_value(self.source);
                    self.builder.text(&s);
                }
                Instruction::ApplyTemplates { select, with_params } => {
                    let nodes = ctx.eval(select)?.into_nodeset().ok_or_else(|| {
                        XsltError::new("apply-templates select= must be a node-set")
                    })?;
                    let mut params = Vec::new();
                    for (n, vs) in with_params {
                        params.push((n.clone(), self.eval_value_source(vs, ctx)?));
                    }
                    self.apply_templates_to(&nodes, &params)?;
                }
                Instruction::CallTemplate { name, with_params } => {
                    let style = self.style;
                    let &idx = style
                        .named
                        .get(name)
                        .ok_or_else(|| XsltError::new(format!("no template named {name:?}")))?;
                    let t = &style.templates[idx];
                    let mut params = Vec::new();
                    for (n, vs) in with_params {
                        params.push((n.clone(), self.eval_value_source(vs, ctx)?));
                    }
                    // The callee scope starts from globals (not the caller's
                    // locals) at the caller's context position.
                    let mut call_ctx = self.proto.at(ctx.node, ctx.position);
                    for (pname, pdefault) in &t.params {
                        let v = match params.iter().find(|(n, _)| n == pname) {
                            Some((_, v)) => v.clone(),
                            None => match pdefault {
                                Some(vs) => self.eval_value_source(vs, ctx)?,
                                None => Value::Str(String::new()),
                            },
                        };
                        call_ctx.bind_var(pname.clone(), v);
                    }
                    self.depth += 1;
                    if self.depth > MAX_DEPTH {
                        self.depth -= 1;
                        return Err(XsltError::new("template recursion depth exceeded"));
                    }
                    self.run_body(&t.body, &mut call_ctx)?;
                    self.depth -= 1;
                }
                Instruction::ForEach { select, body } => {
                    let nodes = ctx
                        .eval(select)?
                        .into_nodeset()
                        .ok_or_else(|| XsltError::new("for-each select= must be a node-set"))?;
                    for (i, node) in nodes.into_iter().enumerate() {
                        let mut inner = ctx.at(node, i + 1);
                        self.run_body(body, &mut inner)?;
                    }
                }
                Instruction::If { test, body } => {
                    if ctx.eval_bool(test)? {
                        let mut inner = ctx.clone();
                        self.run_body(body, &mut inner)?;
                    }
                }
                Instruction::Choose { whens, otherwise } => {
                    let mut taken = false;
                    for (test, body) in whens {
                        if ctx.eval_bool(test)? {
                            let mut inner = ctx.clone();
                            self.run_body(body, &mut inner)?;
                            taken = true;
                            break;
                        }
                    }
                    if !taken && !otherwise.is_empty() {
                        let mut inner = ctx.clone();
                        self.run_body(otherwise, &mut inner)?;
                    }
                }
                Instruction::Attribute { name, body } => {
                    // Evaluate the body into text.
                    let saved = std::mem::take(&mut self.builder);
                    let mut inner = ctx.clone();
                    self.run_body(body, &mut inner)?;
                    let fragment = std::mem::replace(&mut self.builder, saved);
                    if !self.builder.attribute(name, &fragment.text_value()) {
                        return Err(XsltError::new(format!(
                            "xsl:attribute name={name:?} used outside an element"
                        )));
                    }
                }
                Instruction::LiteralElement { name, attrs, body } => {
                    self.builder.start_element(name.as_str());
                    for (an, v) in attrs {
                        self.builder.attribute(an.as_str(), v);
                    }
                    let mut inner = ctx.clone();
                    self.run_body(body, &mut inner)?;
                    self.builder.end_element();
                }
                Instruction::Variable { name, value } => {
                    let v = self.eval_value_source(value, ctx)?;
                    ctx.bind_var(name.clone(), v);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stylesheet::Stylesheet;

    const NS: &str = r#"xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0""#;

    fn compile(style_body: &str) -> Result<Stylesheet, XsltError> {
        Stylesheet::parse(&format!("<xsl:stylesheet {NS}>{style_body}</xsl:stylesheet>"))
    }

    fn run(style_body: &str, doc_src: &str) -> String {
        let style = compile(style_body).unwrap();
        let doc = cn_xml::parse(doc_src).unwrap();
        transform(&style, &doc).unwrap().to_output_string()
    }

    /// The code the stylesheet `style_body` is refused with.
    fn refused(style_body: &str) -> ErrorCode {
        compile(style_body).unwrap_err().code()
    }

    mod dispatch {
        use super::NS;
        use crate::stylesheet::Stylesheet;
        use proptest::prelude::*;
        use std::collections::HashMap;

        include!("../tests/common/dispatch_fixture.rs");

        fn run(style: &Stylesheet, doc: &cn_xml::Document, indexed: bool) -> String {
            let dispatch = indexed.then(|| style.dispatch_index());
            let result = super::super::run_with_dispatch(style, doc, &HashMap::new(), dispatch)
                .expect("transform succeeds");
            result.to_output_string()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Indexed dispatch is byte-identical to the linear template scan on
            /// arbitrary documents.
            #[test]
            fn indexed_dispatch_matches_linear_scan(script in proptest::collection::vec(any::<u8>(), 0..48)) {
                let style = Stylesheet::parse(&style_src()).expect("stylesheet compiles");
                let doc = cn_xml::parse(&build_doc(&script)).expect("generated doc parses");
                prop_assert_eq!(run(&style, &doc, true), run(&style, &doc, false));
            }
        }
    }

    #[test]
    fn value_of_and_text() {
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="/"><xsl:value-of select="//b"/><xsl:text>!</xsl:text></xsl:template>"#,
            "<a><b>hi</b></a>",
        );
        assert_eq!(out, "hi!");
    }

    #[test]
    fn literal_elements_with_avts() {
        // Literal attributes are fixed text; a `{…}` hole is refused.
        let out = run(
            r#"<xsl:output method="xml"/>
               <xsl:template match="/"><out v="2"><xsl:value-of select="/r/@n"/></out></xsl:template>"#,
            "<r n='r1'/>",
        );
        assert_eq!(out, r#"<?xml version="1.0"?><out v="2">r1</out>"#);
        let body = r#"<xsl:template match="/"><out v="{count(//x)}"/></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XPST0003);
    }

    #[test]
    fn for_each_iterates_in_document_order() {
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="/">
                 <xsl:for-each select="//t"><xsl:value-of select="@n"/>,</xsl:for-each>
               </xsl:template>"#,
            "<r><t n='a'/><t n='b'/><t n='c'/></r>",
        );
        assert_eq!(out, "a,b,c,");
    }

    #[test]
    fn for_each_with_sort() {
        let body = r#"<xsl:template match="/">
                 <xsl:for-each select="//t"><xsl:sort select="@n"/><xsl:value-of select="@n"/></xsl:for-each>
               </xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0010);
    }

    #[test]
    fn template_rule_dispatch_and_builtins() {
        // Explicit rule for <b>; built-ins walk everything else and copy text.
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="b">[B]</xsl:template>"#,
            "<a>x<b>ignored</b>y</a>",
        );
        assert_eq!(out, "x[B]y");
    }

    #[test]
    fn modes_select_different_rules() {
        let body = r#"<xsl:template match="/"><xsl:apply-templates select="//t"/></xsl:template>
               <xsl:template match="t" mode="alt">alt</xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0090);
    }

    #[test]
    fn priority_and_order_conflict_resolution() {
        // job/task (0.5) beats task (0.0); among equals the later wins.
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="task">name</xsl:template>
               <xsl:template match="job/task">qualified</xsl:template>"#,
            "<job><task/></job>",
        );
        assert_eq!(out, "qualified");
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="task">first</xsl:template>
               <xsl:template match="task">second</xsl:template>"#,
            "<job><task/></job>",
        );
        assert_eq!(out, "second");
        // An explicit priority is refused rather than ignored.
        let body = r#"<xsl:template match="task" priority="10">boosted</xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0090);
    }

    #[test]
    fn call_template_with_params() {
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="/">
                 <xsl:call-template name="greet">
                   <xsl:with-param name="who" select="'cluster'"/>
                 </xsl:call-template>
               </xsl:template>
               <xsl:template name="greet">
                 <xsl:param name="who"/>
                 <xsl:param name="greeting" select="'hello'"/>
                 <xsl:value-of select="concat($greeting, ' ', $who)"/>
               </xsl:template>"#,
            "<r/>",
        );
        assert_eq!(out, "hello cluster");
    }

    #[test]
    fn apply_templates_with_params() {
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="/">
                 <xsl:apply-templates select="//t">
                   <xsl:with-param name="k" select="7"/>
                 </xsl:apply-templates>
               </xsl:template>
               <xsl:template match="t">
                 <xsl:param name="k" select="0"/>
                 <xsl:value-of select="$k"/>
               </xsl:template>"#,
            "<r><t/></r>",
        );
        assert_eq!(out, "7");
    }

    #[test]
    fn variables_global_and_local() {
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:param name="g" select="'G'"/>
               <xsl:template match="/">
                 <xsl:variable name="l" select="concat($g, 'L')"/>
                 <xsl:value-of select="$l"/>
               </xsl:template>"#,
            "<r/>",
        );
        assert_eq!(out, "GL");
        // A top-level variable is not a declaration the engine runs.
        assert_eq!(refused(r#"<xsl:variable name="g" select="'G'"/>"#), ErrorCode::XTSE0010);
    }

    #[test]
    fn variable_from_body_is_rtf_string() {
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="/">
                 <xsl:variable name="v">abc<xsl:value-of select="1+1"/></xsl:variable>
                 <xsl:value-of select="$v"/>
               </xsl:template>"#,
            "<r/>",
        );
        assert_eq!(out, "abc2");
    }

    #[test]
    fn if_and_choose() {
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="t">
                 <xsl:if test="@x != 1">big </xsl:if>
                 <xsl:choose>
                   <xsl:when test="@x = 1">one</xsl:when>
                   <xsl:when test="@x = 2">two</xsl:when>
                   <xsl:otherwise>many</xsl:otherwise>
                 </xsl:choose>,</xsl:template>
               <xsl:template match="/"><xsl:apply-templates select="//t"/></xsl:template>"#,
            "<r><t x='1'/><t x='2'/><t x='3'/></r>",
        );
        assert_eq!(out, "one,big two,big many,");
    }

    #[test]
    fn element_and_attribute_instructions() {
        let out = run(
            r#"<xsl:output method="xml"/>
               <xsl:template match="/">
                 <task><xsl:attribute name="memory"><xsl:value-of select="500+500"/></xsl:attribute></task>
               </xsl:template>"#,
            "<r/>",
        );
        assert_eq!(out, r#"<?xml version="1.0"?><task memory="1000"/>"#);
        // xsl:element is not run, and an attribute's name is fixed text.
        let body = r#"<xsl:template match="/"><xsl:element name="task"/></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0010);
        let body = r#"<xsl:template match="/"><t><xsl:attribute name="m{1}"/></t></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XPST0003);
    }

    #[test]
    fn copy_builds_identity_transforms() {
        let body = r#"<xsl:template match="r"><xsl:copy><xsl:apply-templates select="x"/></xsl:copy></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0010);
    }

    #[test]
    fn copy_of_deep_copies_nodes() {
        let body =
            r#"<xsl:template match="/"><wrap><xsl:copy-of select="//b"/></wrap></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0010);
    }

    #[test]
    fn messages_are_collected() {
        let body =
            r#"<xsl:template match="/"><xsl:message>checkpoint</xsl:message></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0010);
    }

    #[test]
    fn message_terminate_aborts() {
        // Refused when the stylesheet compiles, so nothing runs.
        let body = r#"<xsl:template match="/"><xsl:message terminate="yes">boom</xsl:message></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0010);
    }

    #[test]
    fn external_params_override_defaults() {
        let style = compile(
            r#"<xsl:output method="text"/>
               <xsl:param name="workers" select="5"/>
               <xsl:template match="/"><xsl:value-of select="$workers"/></xsl:template>"#,
        )
        .unwrap();
        let doc = cn_xml::parse("<r/>").unwrap();
        assert_eq!(transform(&style, &doc).unwrap().to_output_string(), "5");
        let mut params = HashMap::new();
        params.insert("workers".to_string(), Value::Number(9.0));
        let out = transform_with_params(&style, &doc, &params).unwrap().to_output_string();
        assert_eq!(out, "9");
    }

    #[test]
    fn infinite_recursion_is_caught() {
        let style = compile(
            r#"<xsl:template match="/"><xsl:call-template name="loop"/></xsl:template>
               <xsl:template name="loop"><xsl:call-template name="loop"/></xsl:template>"#,
        )
        .unwrap();
        let doc = cn_xml::parse("<r/>").unwrap();
        let err = transform(&style, &doc).unwrap_err();
        assert!(err.msg.contains("recursion"));
        assert_eq!(err.code(), ErrorCode::Other);
    }

    #[test]
    fn recursive_named_template_terminates() {
        // A bounded recursive countdown — the classic XSLT 1.0 loop idiom.
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="/">
                 <xsl:call-template name="count">
                   <xsl:with-param name="n" select="3"/>
                 </xsl:call-template>
               </xsl:template>
               <xsl:template name="count">
                 <xsl:param name="n"/>
                 <xsl:if test="$n != 0">
                   <xsl:value-of select="$n"/>
                   <xsl:call-template name="count">
                     <xsl:with-param name="n" select="$n - 1"/>
                   </xsl:call-template>
                 </xsl:if>
               </xsl:template>"#,
            "<r/>",
        );
        assert_eq!(out, "321");
    }

    #[test]
    fn xsl_key_resolves_idrefs() {
        // The XMI idiom: resolve an idref through a declared key.
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:key name="def" match="definition" use="@id"/>
               <xsl:template match="/">
                 <xsl:for-each select="//use">
                   <xsl:value-of select="key('def', @ref)/@name"/>
                   <xsl:text>;</xsl:text>
                 </xsl:for-each>
               </xsl:template>"#,
            "<doc>
               <definition id='d1' name='jar'/>
               <definition id='d2' name='class'/>
               <use ref='d2'/><use ref='d1'/><use ref='d2'/>
             </doc>",
        );
        assert_eq!(out, "class;jar;class;");
    }

    #[test]
    fn xsl_key_with_nodeset_use_and_missing_values() {
        // One `.` per node the lookup returns.
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:key name="by-kind" match="item" use="tag"/>
               <xsl:template match="/">
                 <xsl:for-each select="key('by-kind', 'x')">.</xsl:for-each>
                 <xsl:text>/</xsl:text>
                 <xsl:for-each select="key('by-kind', 'nothing')">.</xsl:for-each>
               </xsl:template>"#,
            "<doc>
               <item><tag>x</tag><tag>y</tag></item>
               <item><tag>x</tag></item>
             </doc>",
        );
        // Nodeset `use` indexes an item once per tag value.
        assert_eq!(out, "../");
    }

    #[test]
    fn unknown_key_is_an_error() {
        let style = compile(
            r#"<xsl:template match="/"><xsl:value-of select="key('nope', 'x')"/></xsl:template>"#,
        )
        .unwrap();
        let doc = cn_xml::parse("<r/>").unwrap();
        let err = transform(&style, &doc).unwrap_err();
        assert!(err.msg.contains("no xsl:key"), "{err}");
    }

    #[test]
    fn fragment_bodies_see_enclosing_scope() {
        // Regression: a variable defined from a body (result-tree fragment)
        // must see params and variables of the enclosing template.
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="/">
                 <xsl:call-template name="t">
                   <xsl:with-param name="p" select="'seen'"/>
                 </xsl:call-template>
               </xsl:template>
               <xsl:template name="t">
                 <xsl:param name="p"/>
                 <xsl:variable name="v">[<xsl:value-of select="$p"/>]</xsl:variable>
                 <xsl:value-of select="$v"/>
               </xsl:template>"#,
            "<r/>",
        );
        assert_eq!(out, "[seen]");
    }

    #[test]
    fn comment_instruction() {
        let body =
            r#"<xsl:template match="/"><r><xsl:comment>gen</xsl:comment></r></xsl:template>"#;
        assert_eq!(refused(body), ErrorCode::XTSE0010);
    }
}
