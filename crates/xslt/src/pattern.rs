//! XSLT match patterns.
//!
//! A pattern is a restricted XPath expression: a `|`-separated union of
//! location-path alternatives using only the `child` and `attribute` axes
//! (with `//` allowed as a separator) plus predicates. A node matches an
//! alternative if the alternative, read right-to-left, can be satisfied by
//! walking up the ancestor chain.

use cn_xml::Document;
use cn_xpath::ast::{Axis, Expr, NodeTest, PathExpr, Step};
use cn_xpath::{Ctx, EvalError, Value, XNode};

use crate::exec::XsltError;

/// How a pattern step connects to the one on its left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// `/` — the left step must match the immediate parent.
    Direct,
    /// `//` — the left step must match some ancestor.
    Anywhere,
}

/// One step of a pattern alternative.
#[derive(Debug, Clone)]
pub struct PatternStep {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicates: Vec<Expr>,
    /// Connection towards the step on the left (ignored on the leftmost).
    pub link: Link,
}

/// One `|` alternative.
#[derive(Debug, Clone)]
pub struct Alternative {
    /// Pattern is anchored at the document node (`/a/b` vs `a/b`).
    pub absolute: bool,
    /// Empty + absolute = the pattern `/` (matches the document node).
    pub steps: Vec<PatternStep>,
}

impl Alternative {
    /// Default priority per XSLT 1.0 §5.5.
    pub fn default_priority(&self) -> f64 {
        if self.steps.len() != 1 || self.absolute {
            return 0.5;
        }
        let step = &self.steps[0];
        if !step.predicates.is_empty() {
            return 0.5;
        }
        match &step.test {
            NodeTest::Name(_) => 0.0,
            NodeTest::PrefixAny(_) => -0.25,
            NodeTest::Any | NodeTest::Text | NodeTest::Node | NodeTest::Comment => -0.5,
        }
    }
}

/// A compiled match pattern.
#[derive(Debug, Clone)]
pub struct Pattern {
    pub alternatives: Vec<Alternative>,
    /// Original source text, for diagnostics.
    pub source: String,
}

impl Pattern {
    /// Compile a pattern from its source text.
    pub fn parse(src: &str) -> Result<Pattern, XsltError> {
        let expr = cn_xpath::parse_expr(src)
            .map_err(|e| XsltError::new(format!("bad pattern {src:?}: {e}")))?;
        let mut alternatives = Vec::new();
        collect_alternatives(&expr, src, &mut alternatives)?;
        Ok(Pattern { alternatives, source: src.to_string() })
    }

    /// If `node` matches, return the default priority of the best matching
    /// alternative.
    pub fn matching_priority(&self, ctx: &Ctx<'_>, node: XNode) -> Result<Option<f64>, EvalError> {
        let mut best: Option<f64> = None;
        for alt in &self.alternatives {
            if matches_alternative(ctx, node, alt)? {
                let p = alt.default_priority();
                best = Some(best.map_or(p, |b: f64| b.max(p)));
            }
        }
        Ok(best)
    }

    /// Does `node` match this pattern?
    pub fn matches(&self, ctx: &Ctx<'_>, node: XNode) -> Result<bool, EvalError> {
        Ok(self.matching_priority(ctx, node)?.is_some())
    }
}

fn collect_alternatives(
    expr: &Expr,
    src: &str,
    out: &mut Vec<Alternative>,
) -> Result<(), XsltError> {
    match expr {
        Expr::Union(a, b) => {
            collect_alternatives(a, src, out)?;
            collect_alternatives(b, src, out)?;
            Ok(())
        }
        Expr::Path(p) => {
            out.push(path_to_alternative(p, src)?);
            Ok(())
        }
        _ => Err(XsltError::new(format!("pattern {src:?} is not a location path"))),
    }
}

fn path_to_alternative(path: &PathExpr, src: &str) -> Result<Alternative, XsltError> {
    let mut steps: Vec<PatternStep> = Vec::new();
    let mut pending_link = Link::Direct;
    for step in &path.steps {
        match step {
            // `//` parses as descendant-or-self::node(); in a pattern it is
            // a separator, not a step.
            Step { axis: Axis::DescendantOrSelf, test: NodeTest::Node, predicates }
                if predicates.is_empty() =>
            {
                pending_link = Link::Anywhere;
            }
            Step { axis: Axis::Child | Axis::Attribute, test, predicates } => {
                steps.push(PatternStep {
                    axis: step.axis,
                    test: test.clone(),
                    predicates: predicates.clone(),
                    link: pending_link,
                });
                pending_link = Link::Direct;
            }
            other => {
                return Err(XsltError::new(format!(
                    "pattern {src:?}: axis {} not allowed in match patterns",
                    other.axis.name()
                )))
            }
        }
    }
    // An absolute path starting with `//` gives the first real step an
    // Anywhere link to the (virtual) root.
    Ok(Alternative { absolute: path.absolute, steps })
}

fn matches_alternative(ctx: &Ctx<'_>, node: XNode, alt: &Alternative) -> Result<bool, EvalError> {
    if alt.steps.is_empty() {
        // Pattern "/": matches only the document node.
        return Ok(alt.absolute && matches!(node, XNode::Node(n) if n == ctx.doc.document_node()));
    }
    matches_from(ctx, node, alt, alt.steps.len() - 1)
}

/// Match `alt.steps[..=idx]` with `node` bound to step `idx`, recursing up
/// the ancestor chain.
fn matches_from(
    ctx: &Ctx<'_>,
    node: XNode,
    alt: &Alternative,
    idx: usize,
) -> Result<bool, EvalError> {
    let step = &alt.steps[idx];
    if !step_matches_node(ctx, node, step)? {
        return Ok(false);
    }
    let parent = node.parent(ctx.doc);
    if idx == 0 {
        return match step.link {
            // Leftmost step of an absolute pattern must hang directly off
            // the document node (or anywhere below it for `//a`).
            Link::Direct if alt.absolute => Ok(matches!(
                parent,
                Some(XNode::Node(p)) if p == ctx.doc.document_node()
            )),
            _ => Ok(true),
        };
    }
    let prev = idx - 1;
    match step.link {
        Link::Direct => match parent {
            Some(p) => matches_from(ctx, p, alt, prev),
            None => Ok(false),
        },
        Link::Anywhere => {
            let mut cur = parent;
            while let Some(p) = cur {
                if matches_from(ctx, p, alt, prev)? {
                    return Ok(true);
                }
                cur = p.parent(ctx.doc);
            }
            Ok(false)
        }
    }
}

/// Node test + predicates for a single pattern step.
fn step_matches_node(ctx: &Ctx<'_>, node: XNode, step: &PatternStep) -> Result<bool, EvalError> {
    if !ctx.test_node(node, &step.test, step.axis) {
        return Ok(false);
    }
    if step.predicates.is_empty() {
        return Ok(true);
    }
    // Predicates are evaluated with position among like-matching siblings.
    let (position, size) = sibling_position(ctx.doc, node, step, ctx)?;
    let sub = ctx.at(node, position, size);
    for pred in &step.predicates {
        let v = sub.eval(pred)?;
        let ok = match v {
            Value::Number(n) => n == position as f64,
            other => other.as_bool(),
        };
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

/// 1-based position of `node` among its siblings that pass the step's node
/// test, and the count of such siblings.
fn sibling_position(
    doc: &Document,
    node: XNode,
    step: &PatternStep,
    ctx: &Ctx<'_>,
) -> Result<(usize, usize), EvalError> {
    let XNode::Node(n) = node else { return Ok((1, 1)) };
    let Some(parent) = doc.parent(n) else { return Ok((1, 1)) };
    let mut position = 0;
    let mut size = 0;
    for &sib in doc.children(parent) {
        if ctx.test_node(XNode::Node(sib), &step.test, step.axis) {
            size += 1;
            if sib == n {
                position = size;
            }
        }
    }
    Ok((position.max(1), size.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(pattern: &str, doc_src: &str, path_name: &str) -> bool {
        let doc = cn_xml::parse(doc_src).unwrap();
        let p = Pattern::parse(pattern).unwrap();
        let node = doc.find(doc.document_node(), path_name).unwrap();
        let ctx = Ctx::new(&doc, doc.document_node());
        p.matches(&ctx, XNode::Node(node)).unwrap()
    }

    #[test]
    fn name_pattern() {
        assert!(check("task", "<job><task/></job>", "task"));
        assert!(!check("job", "<job><task/></job>", "task"));
    }

    #[test]
    fn parent_child_pattern() {
        assert!(check("job/task", "<job><task/></job>", "task"));
        assert!(!check("client/task", "<job><task/></job>", "task"));
    }

    #[test]
    fn anywhere_pattern() {
        assert!(check("cn2//param", "<cn2><job><task><param/></task></job></cn2>", "param"));
        assert!(!check("job//memory", "<cn2><job><task><param/></task></job></cn2>", "param"));
    }

    #[test]
    fn absolute_patterns() {
        assert!(check("/cn2/client", "<cn2><client/></cn2>", "client"));
        assert!(!check("/client", "<cn2><client/></cn2>", "client"));
        assert!(check("//client", "<cn2><client/></cn2>", "client"));
    }

    #[test]
    fn root_pattern_matches_document_node() {
        let doc = cn_xml::parse("<a/>").unwrap();
        let p = Pattern::parse("/").unwrap();
        let ctx = Ctx::new(&doc, doc.document_node());
        assert!(p.matches(&ctx, XNode::Node(doc.document_node())).unwrap());
        assert!(!p.matches(&ctx, XNode::Node(doc.root_element().unwrap())).unwrap());
    }

    #[test]
    fn union_pattern() {
        assert!(check("task|job", "<job><task/></job>", "task"));
        assert!(check("task|job", "<job><task/></job>", "job"));
        assert!(!check("task|job", "<job><x/></job>", "x"));
    }

    #[test]
    fn predicate_pattern() {
        assert!(check("task[@name='t0']", "<job><task name='t0'/><task name='t1'/></job>", "task"));
        let doc = cn_xml::parse("<job><task name='t0'/><task name='t1'/></job>").unwrap();
        let p = Pattern::parse("task[2]").unwrap();
        let ctx = Ctx::new(&doc, doc.document_node());
        let tasks = doc.find_all(doc.document_node(), "task");
        assert!(!p.matches(&ctx, XNode::Node(tasks[0])).unwrap());
        assert!(p.matches(&ctx, XNode::Node(tasks[1])).unwrap());
    }

    #[test]
    fn wildcard_and_prefix_patterns() {
        assert!(check("*", "<a><b/></a>", "b"));
        assert!(check("UML:*", "<m><UML:ActionState/></m>", "UML:ActionState"));
        assert!(!check("UML:*", "<m><Other:Thing/></m>", "Other:Thing"));
    }

    #[test]
    fn attribute_pattern() {
        let doc = cn_xml::parse("<t name='x'/>").unwrap();
        let t = doc.root_element().unwrap();
        let p = Pattern::parse("@name").unwrap();
        let ctx = Ctx::new(&doc, doc.document_node());
        assert!(p.matches(&ctx, XNode::Attr { owner: t, index: 0 }).unwrap());
        assert!(!p.matches(&ctx, XNode::Node(t)).unwrap());
    }

    #[test]
    fn text_pattern() {
        let doc = cn_xml::parse("<a>hi</a>").unwrap();
        let a = doc.root_element().unwrap();
        let text = doc.children(a)[0];
        let p = Pattern::parse("text()").unwrap();
        let ctx = Ctx::new(&doc, doc.document_node());
        assert!(p.matches(&ctx, XNode::Node(text)).unwrap());
    }

    #[test]
    fn default_priorities() {
        let doc = cn_xml::parse(r#"<job><task x="1"/><UML:Model/></job>"#).unwrap();
        let job = doc.root_element().unwrap();
        let (task, uml) = (XNode::Node(doc.children(job)[0]), XNode::Node(doc.children(job)[1]));
        let ctx = Ctx::new(&doc, doc.document_node());
        let priority = |src: &str, node| {
            Pattern::parse(src).unwrap().matching_priority(&ctx, node).unwrap().unwrap()
        };
        assert_eq!(priority("task", task), 0.0);
        assert_eq!(priority("UML:*", uml), -0.25);
        assert_eq!(priority("*", task), -0.5);
        assert_eq!(priority("node()", task), -0.5);
        assert_eq!(priority("job/task", task), 0.5);
        assert_eq!(priority("task[@x]", task), 0.5);
        // A union takes the best of the alternatives that match.
        assert_eq!(priority("* | task", task), 0.0);
        assert_eq!(priority("* | task", uml), -0.5);
    }

    #[test]
    fn rejects_non_path_patterns() {
        assert!(Pattern::parse("1 + 1").is_err());
        assert!(Pattern::parse("ancestor::a").is_err());
    }
}
