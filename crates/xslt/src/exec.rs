//! Transform execution.

use std::collections::HashMap;
use std::fmt;

use std::sync::Arc;

use cn_xml::Document;
use cn_xpath::eval::{KeyResolver, ScanCache};
use cn_xpath::{Ctx, EvalError, Value, XNode};

use parking_lot::Mutex;

use crate::dispatch::DispatchIndex;
use crate::output::{serialize, Builder, OutputMethod};
use crate::stylesheet::{
    Avt, AvtPart, Instruction, KeyDef, SortKey, Stylesheet, Template, ValueSource,
};

/// Anything that can go wrong parsing or running a stylesheet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XsltError {
    pub msg: String,
}

impl XsltError {
    pub fn new(msg: impl Into<String>) -> Self {
        XsltError { msg: msg.into() }
    }
}

impl fmt::Display for XsltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XSLT error: {}", self.msg)
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
    /// Text collected from `xsl:message` instructions.
    pub messages: Vec<String>,
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
    let mut runtime = Runtime {
        style,
        source,
        builder: Builder::new(),
        messages: Vec::new(),
        depth: 0,
        dispatch,
        proto,
    };
    // Global params first (caller override beats default), then globals;
    // later declarations see earlier bindings.
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
    for (name, vs) in &style.globals {
        let ctx = runtime.proto.clone();
        let v = runtime.eval_value_source(vs, &ctx)?;
        runtime.proto.bind_var(name.clone(), v);
    }

    let root = XNode::Node(source.document_node());
    runtime.apply_templates_to(&[root], None, &[])?;
    Ok(TransformResult {
        document: runtime.builder.finish(),
        method: style.output,
        messages: runtime.messages,
    })
}

/// Recursion guard: template application depth. Kept conservative because
/// each level costs several stack frames in the interpreter; CN stylesheets
/// recurse only over document nesting depth and small counters.
const MAX_DEPTH: usize = 128;

struct Runtime<'a> {
    style: &'a Stylesheet,
    source: &'a Document,
    builder: Builder,
    messages: Vec<String>,
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

/// Lazily-built index tables for the stylesheet's `xsl:key` declarations:
/// on the first `key('k', ...)` call, every node matching `k`'s pattern is
/// indexed by the string value of its `use` expression.
/// One built key index: key value → matching nodes.
type KeyTable = HashMap<String, Vec<XNode>>;

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
            if def.pattern.matches(&ctx, xnode)? {
                let sub = ctx.at(xnode, 1, 1);
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

    /// Find the best template rule for `node` in `mode`.
    ///
    /// With the dispatch index, only rules bucketed under the node's name
    /// atom (plus the mode's catch-alls) are pattern-tested; without it,
    /// every rule in the mode is. Both paths see candidates in declaration
    /// order, so conflict resolution is identical.
    fn best_rule(
        &self,
        node: XNode,
        mode: Option<&str>,
    ) -> Result<Option<&'a Template>, XsltError> {
        let style = self.style;
        match self.dispatch {
            Some(ix) => {
                let atom = node.qname(self.source).map(|q| q.atom());
                self.pick_best(node, ix.candidates(mode, atom).map(|i| &style.templates[i]))
            }
            None => self.pick_best(node, style.rules_for_mode(mode)),
        }
    }

    fn pick_best(
        &self,
        node: XNode,
        rules: impl Iterator<Item = &'a Template>,
    ) -> Result<Option<&'a Template>, XsltError> {
        let mut best: Option<(&'a Template, f64)> = None;
        for t in rules {
            let pattern = t.pattern.as_ref().expect("dispatch yields match templates");
            if let Some(default_prio) = pattern.matching_priority(&self.proto, node)? {
                let prio = t.priority.unwrap_or(default_prio);
                let better = match best {
                    None => true,
                    // Later declaration wins ties (XSLT recovery behaviour).
                    Some((bt, bp)) => prio > bp || (prio == bp && t.order > bt.order),
                };
                if better {
                    best = Some((t, prio));
                }
            }
        }
        Ok(best.map(|(t, _)| t))
    }

    /// Apply templates to a node list (built-in rules as fallback).
    fn apply_templates_to(
        &mut self,
        nodes: &[XNode],
        mode: Option<&str>,
        with_params: &[(String, Value)],
    ) -> Result<(), XsltError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(XsltError::new("template recursion depth exceeded"));
        }
        let size = nodes.len();
        for (i, &node) in nodes.iter().enumerate() {
            match self.best_rule(node, mode)? {
                Some(t) => {
                    let mut ctx = self.proto.at(node, i + 1, size);
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
                None => self.builtin_rule(node, mode, i + 1, size)?,
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// XSLT built-in rules: recurse through elements/document, copy text
    /// and attribute values, skip comments/PIs.
    fn builtin_rule(
        &mut self,
        node: XNode,
        mode: Option<&str>,
        _position: usize,
        _size: usize,
    ) -> Result<(), XsltError> {
        match node {
            XNode::Node(n) => match self.source.kind(n) {
                cn_xml::NodeKind::Document | cn_xml::NodeKind::Element { .. } => {
                    let children: Vec<XNode> =
                        self.source.children(n).iter().map(|&c| XNode::Node(c)).collect();
                    self.apply_templates_to(&children, mode, &[])
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

    fn eval_avt(&mut self, avt: &Avt, ctx: &Ctx<'a>) -> Result<String, XsltError> {
        let mut out = String::new();
        for part in &avt.parts {
            match part {
                AvtPart::Text(t) => out.push_str(t),
                AvtPart::Expr(e) => out.push_str(&ctx.eval(e)?.to_string_value(self.source)),
            }
        }
        Ok(out)
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
                Instruction::ApplyTemplates { select, mode, with_params, sorts } => {
                    let nodes = match select {
                        Some(e) => ctx.eval(e)?.into_nodeset().ok_or_else(|| {
                            XsltError::new("apply-templates select= must be a node-set")
                        })?,
                        None => match ctx.node {
                            XNode::Node(n) => {
                                self.source.children(n).iter().map(|&c| XNode::Node(c)).collect()
                            }
                            XNode::Attr { .. } => Vec::new(),
                        },
                    };
                    let nodes = self.sorted(nodes, sorts, ctx)?;
                    let mut params = Vec::new();
                    for (n, vs) in with_params {
                        params.push((n.clone(), self.eval_value_source(vs, ctx)?));
                    }
                    self.apply_templates_to(&nodes, mode.as_deref(), &params)?;
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
                    let mut call_ctx = self.proto.at(ctx.node, ctx.position, ctx.size);
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
                Instruction::ForEach { select, sorts, body } => {
                    let nodes = ctx
                        .eval(select)?
                        .into_nodeset()
                        .ok_or_else(|| XsltError::new("for-each select= must be a node-set"))?;
                    let nodes = self.sorted(nodes, sorts, ctx)?;
                    let size = nodes.len();
                    for (i, node) in nodes.into_iter().enumerate() {
                        let mut inner = ctx.at(node, i + 1, size);
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
                Instruction::Element { name, body } => {
                    let n = self.eval_avt(name, ctx)?;
                    self.builder.start_element(&n);
                    let mut inner = ctx.clone();
                    self.run_body(body, &mut inner)?;
                    self.builder.end_element();
                }
                Instruction::Attribute { name, body } => {
                    let n = self.eval_avt(name, ctx)?;
                    // Evaluate the body into text.
                    let saved = std::mem::take(&mut self.builder);
                    let mut inner = ctx.clone();
                    self.run_body(body, &mut inner)?;
                    let fragment = std::mem::replace(&mut self.builder, saved);
                    if !self.builder.attribute(&n, &fragment.text_value()) {
                        return Err(XsltError::new(format!(
                            "xsl:attribute name={n:?} used outside an element"
                        )));
                    }
                }
                Instruction::Comment { body } => {
                    let saved = std::mem::take(&mut self.builder);
                    let mut inner = ctx.clone();
                    self.run_body(body, &mut inner)?;
                    let fragment = std::mem::replace(&mut self.builder, saved);
                    self.builder.comment(&fragment.text_value());
                }
                Instruction::LiteralElement { name, attrs, body } => {
                    self.builder.start_element(name.as_str());
                    for (an, avt) in attrs {
                        let v = self.eval_avt(avt, ctx)?;
                        self.builder.attribute(an.as_str(), &v);
                    }
                    let mut inner = ctx.clone();
                    self.run_body(body, &mut inner)?;
                    self.builder.end_element();
                }
                Instruction::Variable { name, value } => {
                    let v = self.eval_value_source(value, ctx)?;
                    ctx.bind_var(name.clone(), v);
                }
                Instruction::Copy { body } => {
                    // Shallow copy of the context node; for elements the
                    // body runs inside the copy (attributes are NOT copied,
                    // per the spec — use xsl:copy-of or xsl:attribute).
                    match ctx.node {
                        XNode::Node(n) => match self.source.kind(n) {
                            cn_xml::NodeKind::Element { name, .. } => {
                                let name = name.as_str();
                                self.builder.start_element(name);
                                let mut inner = ctx.clone();
                                self.run_body(body, &mut inner)?;
                                self.builder.end_element();
                            }
                            cn_xml::NodeKind::Text(t) => self.builder.text(t),
                            cn_xml::NodeKind::Comment(c) => self.builder.comment(c),
                            cn_xml::NodeKind::Document
                            | cn_xml::NodeKind::ProcessingInstruction { .. } => {
                                let mut inner = ctx.clone();
                                self.run_body(body, &mut inner)?;
                            }
                        },
                        XNode::Attr { .. } => {
                            let name = ctx.node.name(self.source).to_string();
                            let value = ctx.node.string_value(self.source);
                            self.builder.attribute(&name, &value);
                        }
                    }
                }
                Instruction::CopyOf(e) => match ctx.eval(e)? {
                    Value::NodeSet(ns) => {
                        for n in ns {
                            match n {
                                XNode::Node(id) => self.builder.copy_subtree(self.source, id),
                                XNode::Attr { .. } => {
                                    let v = n.string_value(self.source);
                                    let name = n.name(self.source).to_string();
                                    self.builder.attribute(&name, &v);
                                }
                            }
                        }
                    }
                    other => self.builder.text(&other.to_string_value(self.source)),
                },
                Instruction::Message { body, terminate } => {
                    let saved = std::mem::take(&mut self.builder);
                    let mut inner = ctx.clone();
                    self.run_body(body, &mut inner)?;
                    let fragment = std::mem::replace(&mut self.builder, saved);
                    let msg = fragment.text_value();
                    self.messages.push(msg.clone());
                    if *terminate {
                        return Err(XsltError::new(format!("xsl:message terminate: {msg}")));
                    }
                }
            }
        }
        Ok(())
    }

    /// Apply sort keys (stable, multi-key).
    fn sorted(
        &mut self,
        nodes: Vec<XNode>,
        sorts: &[SortKey],
        ctx: &Ctx<'a>,
    ) -> Result<Vec<XNode>, XsltError> {
        if sorts.is_empty() {
            return Ok(nodes);
        }
        // Precompute key tuples.
        let mut keyed: Vec<(Vec<SortVal>, XNode)> = Vec::with_capacity(nodes.len());
        let size = nodes.len();
        for (i, &n) in nodes.iter().enumerate() {
            let sub = ctx.at(n, i + 1, size);
            let mut keys = Vec::with_capacity(sorts.len());
            for s in sorts {
                let v = sub.eval(&s.select)?;
                keys.push(if s.numeric {
                    SortVal::Num(v.to_number(self.source))
                } else {
                    SortVal::Str(v.to_string_value(self.source))
                });
            }
            keyed.push((keys, n));
        }
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, s) in sorts.iter().enumerate() {
                let ord = ka[i].cmp(&kb[i]);
                let ord = if s.ascending { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(keyed.into_iter().map(|(_, n)| n).collect())
    }
}

#[derive(PartialEq)]
enum SortVal {
    Str(String),
    Num(f64),
}

impl Eq for SortVal {}

impl Ord for SortVal {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (SortVal::Str(a), SortVal::Str(b)) => a.cmp(b),
            (SortVal::Num(a), SortVal::Num(b)) => a.partial_cmp(b).unwrap_or_else(|| {
                // NaN sorts first, per "NaN before all" convention.
                match (a.is_nan(), b.is_nan()) {
                    (true, true) => std::cmp::Ordering::Equal,
                    (true, false) => std::cmp::Ordering::Less,
                    (false, true) => std::cmp::Ordering::Greater,
                    _ => unreachable!("partial_cmp only fails on NaN"),
                }
            }),
            // Mixed keys cannot occur (a key is uniformly typed).
            (SortVal::Str(_), SortVal::Num(_)) => std::cmp::Ordering::Greater,
            (SortVal::Num(_), SortVal::Str(_)) => std::cmp::Ordering::Less,
        }
    }
}

impl PartialOrd for SortVal {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stylesheet::Stylesheet;

    const NS: &str = r#"xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0""#;

    fn run(style_body: &str, doc_src: &str) -> String {
        let style =
            Stylesheet::parse(&format!("<xsl:stylesheet {NS}>{style_body}</xsl:stylesheet>"))
                .unwrap();
        let doc = cn_xml::parse(doc_src).unwrap();
        transform(&style, &doc).unwrap().to_output_string()
    }

    mod dispatch {
        use super::NS;
        use crate::stylesheet::Stylesheet;
        use proptest::prelude::*;
        use std::collections::HashMap;

        include!("../tests/common/dispatch_fixture.rs");

        fn run(style: &Stylesheet, doc: &cn_xml::Document, indexed: bool) -> (String, Vec<String>) {
            let dispatch = indexed.then(|| style.dispatch_index());
            let result = super::super::run_with_dispatch(style, doc, &HashMap::new(), dispatch)
                .expect("transform succeeds");
            (result.to_output_string(), result.messages.clone())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Indexed dispatch is byte-identical to the linear template scan on
            /// arbitrary documents.
            #[test]
            fn indexed_dispatch_matches_linear_scan(script in proptest::collection::vec(any::<u8>(), 0..48)) {
                let style = Stylesheet::parse(&style_src()).expect("stylesheet compiles");
                let doc = cn_xml::parse(&build_doc(&script)).expect("generated doc parses");
                let (fast, fast_msgs) = run(&style, &doc, true);
                let (slow, slow_msgs) = run(&style, &doc, false);
                prop_assert_eq!(fast, slow);
                prop_assert_eq!(fast_msgs, slow_msgs);
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
        let out = run(
            r#"<xsl:output method="xml" omit-xml-declaration="yes"/>
               <xsl:template match="/">
                 <out v="{count(//x)}"><xsl:value-of select="name(/*)"/></out>
               </xsl:template>"#,
            "<r><x/><x/></r>",
        );
        assert_eq!(out, r#"<out v="2">r</out>"#);
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
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="/">
                 <xsl:for-each select="//t">
                   <xsl:sort select="@n" data-type="number" order="descending"/>
                   <xsl:value-of select="@n"/>,</xsl:for-each>
               </xsl:template>"#,
            "<r><t n='2'/><t n='10'/><t n='1'/></r>",
        );
        assert_eq!(out, "10,2,1,");
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
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="/">
                 <xsl:apply-templates select="//t"/>|<xsl:apply-templates select="//t" mode="alt"/>
               </xsl:template>
               <xsl:template match="t">plain</xsl:template>
               <xsl:template match="t" mode="alt">alt</xsl:template>"#,
            "<r><t/></r>",
        );
        assert_eq!(out, "plain|alt");
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
        // Explicit priority overrides defaults.
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:template match="task" priority="10">boosted</xsl:template>
               <xsl:template match="job/task">qualified</xsl:template>"#,
            "<job><task/></job>",
        );
        assert_eq!(out, "boosted");
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
               <xsl:variable name="g" select="'G'"/>
               <xsl:template match="/">
                 <xsl:variable name="l" select="concat($g, 'L')"/>
                 <xsl:value-of select="$l"/>
               </xsl:template>"#,
            "<r/>",
        );
        assert_eq!(out, "GL");
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
                 <xsl:if test="@x &gt; 1">big </xsl:if>
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
            r#"<xsl:output method="xml" omit-xml-declaration="yes"/>
               <xsl:template match="/">
                 <xsl:element name="task{1+1}">
                   <xsl:attribute name="memory"><xsl:value-of select="500*2"/></xsl:attribute>
                 </xsl:element>
               </xsl:template>"#,
            "<r/>",
        );
        assert_eq!(out, r#"<task2 memory="1000"/>"#);
    }

    #[test]
    fn copy_builds_identity_transforms() {
        // The classic XSLT identity transform, minus attribute copying
        // (attributes are re-emitted through copy-of on @*).
        let out = run(
            r#"<xsl:output method="xml" omit-xml-declaration="yes"/>
               <xsl:template match="node()">
                 <xsl:copy><xsl:copy-of select="@*"/><xsl:apply-templates/></xsl:copy>
               </xsl:template>"#,
            "<a x='1'><b>t</b><c/></a>",
        );
        assert_eq!(out, r#"<a x="1"><b>t</b><c/></a>"#);
    }

    #[test]
    fn copy_of_deep_copies_nodes() {
        let out = run(
            r#"<xsl:output method="xml" omit-xml-declaration="yes"/>
               <xsl:template match="/"><wrap><xsl:copy-of select="//b"/></wrap></xsl:template>"#,
            "<a><b k='1'><c/></b><b k='2'/></a>",
        );
        assert_eq!(out, r#"<wrap><b k="1"><c/></b><b k="2"/></wrap>"#);
    }

    #[test]
    fn messages_are_collected() {
        let style = Stylesheet::parse(&format!(
            r#"<xsl:stylesheet {NS}>
                 <xsl:template match="/">
                   <xsl:message>checkpoint <xsl:value-of select="count(//x)"/></xsl:message>
                   <done/>
                 </xsl:template>
               </xsl:stylesheet>"#
        ))
        .unwrap();
        let doc = cn_xml::parse("<r><x/><x/></r>").unwrap();
        let result = transform(&style, &doc).unwrap();
        assert_eq!(result.messages, vec!["checkpoint 2"]);
    }

    #[test]
    fn message_terminate_aborts() {
        let style = Stylesheet::parse(&format!(
            r#"<xsl:stylesheet {NS}>
                 <xsl:template match="/">
                   <xsl:message terminate="yes">boom</xsl:message>
                 </xsl:template>
               </xsl:stylesheet>"#
        ))
        .unwrap();
        let doc = cn_xml::parse("<r/>").unwrap();
        assert!(transform(&style, &doc).is_err());
    }

    #[test]
    fn external_params_override_defaults() {
        let style = Stylesheet::parse(&format!(
            r#"<xsl:stylesheet {NS}>
                 <xsl:output method="text"/>
                 <xsl:param name="workers" select="5"/>
                 <xsl:template match="/"><xsl:value-of select="$workers"/></xsl:template>
               </xsl:stylesheet>"#
        ))
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
        let style = Stylesheet::parse(&format!(
            r#"<xsl:stylesheet {NS}>
                 <xsl:template match="/"><xsl:call-template name="loop"/></xsl:template>
                 <xsl:template name="loop"><xsl:call-template name="loop"/></xsl:template>
               </xsl:stylesheet>"#
        ))
        .unwrap();
        let doc = cn_xml::parse("<r/>").unwrap();
        let err = transform(&style, &doc).unwrap_err();
        assert!(err.msg.contains("recursion"));
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
                 <xsl:if test="$n &gt; 0">
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
        let out = run(
            r#"<xsl:output method="text"/>
               <xsl:key name="by-kind" match="item" use="tag"/>
               <xsl:template match="/">
                 <xsl:value-of select="count(key('by-kind', 'x'))"/>
                 <xsl:text>/</xsl:text>
                 <xsl:value-of select="count(key('by-kind', 'nothing'))"/>
               </xsl:template>"#,
            "<doc>
               <item><tag>x</tag><tag>y</tag></item>
               <item><tag>x</tag></item>
             </doc>",
        );
        // Nodeset `use` indexes an item once per tag value.
        assert_eq!(out, "2/0");
    }

    #[test]
    fn unknown_key_is_an_error() {
        let style = Stylesheet::parse(&format!(
            r#"<xsl:stylesheet {NS}>
                 <xsl:template match="/"><xsl:value-of select="count(key('nope', 'x'))"/></xsl:template>
               </xsl:stylesheet>"#
        ))
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
        let out = run(
            r#"<xsl:output method="xml" omit-xml-declaration="yes"/>
               <xsl:template match="/"><r><xsl:comment>gen</xsl:comment></r></xsl:template>"#,
            "<x/>",
        );
        assert_eq!(out, "<r><!--gen--></r>");
    }
}
