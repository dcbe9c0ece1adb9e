//! XSLT match patterns.
//!
//! A pattern is `/` (the document node) or element names joined by `/` on
//! the child axis (`task`, `cn2/client`). A node matches if the names, read
//! right-to-left, match it and its ancestors. Unions, `//`, absolute name
//! paths, predicates, attribute steps and every other XPath form are refused
//! with `XPST0003`.

use cn_xml::{Document, QName};
use cn_xpath::ast::{Axis, Expr, NodeTest, Step};
use cn_xpath::{ErrorCode, XNode};

use crate::exec::XsltError;

/// A compiled match pattern.
#[derive(Debug, Clone)]
pub struct Pattern {
    /// Element names, leftmost first; none for `/`.
    pub steps: Vec<QName>,
}

impl Pattern {
    /// Compile a pattern from its source text.
    pub fn parse(src: &str) -> Result<Pattern, XsltError> {
        let expr = cn_xpath::parse_expr(src).map_err(|e| XsltError::parse(src, "pattern", e))?;
        let outside = || {
            let msg = format!("pattern {src:?}: only `/` and element names joined by `/` match");
            XsltError::coded(ErrorCode::XPST0003, msg)
        };
        // `/` is the one absolute path, and it has no steps.
        let Expr::Path(path) = expr else { return Err(outside()) };
        if path.absolute != path.steps.is_empty() {
            return Err(outside());
        }
        let steps = path
            .steps
            .into_iter()
            .map(|step| match step {
                Step { axis: Axis::Child, test: NodeTest::Name(name), predicates }
                    if predicates.is_empty() =>
                {
                    Ok(name)
                }
                _ => Err(outside()),
            })
            .collect::<Result<_, _>>()?;
        Ok(Pattern { steps })
    }

    /// Default priority per XSLT 1.0 §5.5: 0 for a lone name, 0.5 for a
    /// path or `/`.
    pub fn default_priority(&self) -> f64 {
        if self.steps.len() == 1 {
            0.0
        } else {
            0.5
        }
    }

    /// Does `node` match this pattern?
    pub fn matches(&self, doc: &Document, node: XNode) -> bool {
        if self.steps.is_empty() {
            return node == XNode::Node(doc.document_node());
        }
        let mut at = Some(node);
        for want in self.steps.iter().rev() {
            match at {
                Some(XNode::Node(n)) if doc.name(n).is_some_and(|q| q.atom() == want.atom()) => {
                    at = doc.parent(n).map(XNode::Node);
                }
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(pattern: &str, doc_src: &str, path_name: &str) -> bool {
        let doc = cn_xml::parse(doc_src).unwrap();
        let p = Pattern::parse(pattern).unwrap();
        let node = doc.find(doc.document_node(), path_name).unwrap();
        p.matches(&doc, XNode::Node(node))
    }

    /// The code `pattern` is refused with.
    fn refused(pattern: &str) -> ErrorCode {
        Pattern::parse(pattern).unwrap_err().code()
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
        assert!(!check("job/task", "<task/>", "task"));
    }

    #[test]
    fn anywhere_pattern() {
        assert_eq!(refused("cn2//param"), ErrorCode::XPST0003);
    }

    #[test]
    fn absolute_patterns() {
        // `/` is the one absolute pattern.
        assert_eq!(refused("/cn2/client"), ErrorCode::XPST0003);
        assert_eq!(refused("//client"), ErrorCode::XPST0003);
    }

    #[test]
    fn root_pattern_matches_document_node() {
        let doc = cn_xml::parse("<a/>").unwrap();
        let p = Pattern::parse("/").unwrap();
        assert!(p.matches(&doc, XNode::Node(doc.document_node())));
        assert!(!p.matches(&doc, XNode::Node(doc.root_element().unwrap())));
    }

    #[test]
    fn union_pattern() {
        assert_eq!(refused("task|job"), ErrorCode::XPST0003);
    }

    #[test]
    fn predicate_pattern() {
        assert_eq!(refused("task[@name='t0']"), ErrorCode::XPST0003);
        assert_eq!(refused("task[2]"), ErrorCode::XPST0003);
    }

    #[test]
    fn wildcard_and_prefix_patterns() {
        assert_eq!(refused("*"), ErrorCode::XPST0003);
        assert_eq!(refused("UML:*"), ErrorCode::XPST0003);
        assert!(check("UML:ActionState", "<m><UML:ActionState/></m>", "UML:ActionState"));
    }

    #[test]
    fn attribute_pattern() {
        assert_eq!(refused("@name"), ErrorCode::XPST0003);
        // A name pattern matches elements only, never an attribute of that
        // name.
        let doc = cn_xml::parse("<t name='x'/>").unwrap();
        let t = doc.root_element().unwrap();
        let p = Pattern::parse("name").unwrap();
        assert!(!p.matches(&doc, XNode::Attr { owner: t, index: 0 }));
    }

    #[test]
    fn text_pattern() {
        assert_eq!(refused("text()"), ErrorCode::XPST0003);
        assert_eq!(refused("node()"), ErrorCode::XPST0003);
        let doc = cn_xml::parse("<a>hi</a>").unwrap();
        let text = doc.children(doc.root_element().unwrap())[0];
        assert!(!Pattern::parse("a").unwrap().matches(&doc, XNode::Node(text)));
    }

    #[test]
    fn default_priorities() {
        let priority = |src: &str| Pattern::parse(src).unwrap().default_priority();
        assert_eq!(priority("task"), 0.0);
        assert_eq!(priority("UML:ActionState"), 0.0);
        assert_eq!(priority("job/task"), 0.5);
        assert_eq!(priority("/"), 0.5);
    }

    #[test]
    fn rejects_non_path_patterns() {
        assert_eq!(refused("1 + 1"), ErrorCode::XPST0003);
        assert_eq!(refused("ancestor::a"), ErrorCode::XPST0003);
        assert_eq!(refused("concat('a')"), ErrorCode::XPST0017);
        assert_eq!(refused("."), ErrorCode::XPST0003);
    }
}
