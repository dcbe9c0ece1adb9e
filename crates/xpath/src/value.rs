//! XPath value types and conversions.

use cn_xml::{Document, NodeId, NodeKind};

/// A node reference as seen by XPath: either a tree node or an attribute
/// (our DOM stores attributes inline on elements, so attribute "nodes" are
/// addressed as owner + index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XNode {
    Node(NodeId),
    Attr { owner: NodeId, index: usize },
}

impl XNode {
    /// Sort key giving document order. Attributes order directly after their
    /// owner element and before its children (children have strictly larger
    /// arena indices, so the first component already separates them).
    pub fn order_key(&self, doc: &Document) -> (u32, u32) {
        match *self {
            XNode::Node(n) => (doc.doc_order(n), 0),
            XNode::Attr { owner, index } => (doc.doc_order(owner), index as u32 + 1),
        }
    }

    /// The XPath string-value of this node.
    pub fn string_value(&self, doc: &Document) -> String {
        match *self {
            XNode::Node(n) => match doc.kind(n) {
                NodeKind::Comment(c) => c.clone(),
                NodeKind::ProcessingInstruction { data, .. } => data.clone(),
                _ => doc.text_content(n),
            },
            XNode::Attr { owner, index } => {
                doc.attrs(owner).get(index).map(|(_, v)| v.clone()).unwrap_or_default()
            }
        }
    }

    /// The element/attribute [`QName`], if this node has one. Comparing the
    /// returned name's atom against a query atom is the integer fast path
    /// used by node tests.
    pub fn qname(&self, doc: &Document) -> Option<cn_xml::QName> {
        match *self {
            XNode::Node(n) => match doc.kind(n) {
                NodeKind::Element { name, .. } => Some(*name),
                _ => None,
            },
            XNode::Attr { owner, index } => doc.attrs(owner).get(index).map(|(n, _)| *n),
        }
    }

    /// The parent node (attributes report their owner element).
    pub fn parent(&self, doc: &Document) -> Option<XNode> {
        match *self {
            XNode::Node(n) => doc.parent(n).map(XNode::Node),
            XNode::Attr { owner, .. } => Some(XNode::Node(owner)),
        }
    }
}

/// An XPath 1.0 value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    NodeSet(Vec<XNode>),
    Number(f64),
    Str(String),
    Bool(bool),
}

impl Value {
    /// XPath `boolean()` conversion.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::NodeSet(ns) => !ns.is_empty(),
            Value::Number(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Bool(b) => *b,
        }
    }

    /// XPath `number()` conversion (without a document; node-sets need
    /// [`Value::to_number`]).
    pub fn as_number(&self) -> f64 {
        match self {
            Value::Number(n) => *n,
            Value::Str(s) => str_to_number(s),
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::NodeSet(_) => f64::NAN,
        }
    }

    /// `number()` with document access for node-sets.
    pub fn to_number(&self, doc: &Document) -> f64 {
        match self {
            Value::NodeSet(_) => str_to_number(&self.to_string_value(doc)),
            other => other.as_number(),
        }
    }

    /// XPath `string()` conversion (without a document).
    pub fn as_string(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Number(n) => number_to_string(*n),
            Value::Bool(b) => b.to_string(),
            Value::NodeSet(_) => String::new(),
        }
    }

    /// `string()` with document access: a node-set converts to the
    /// string-value of its *first* node in document order.
    pub fn to_string_value(&self, doc: &Document) -> String {
        match self {
            Value::NodeSet(ns) => ns.first().map(|n| n.string_value(doc)).unwrap_or_default(),
            other => other.as_string(),
        }
    }

    /// Take the node-set out, if that's what this is.
    pub fn into_nodeset(self) -> Option<Vec<XNode>> {
        match self {
            Value::NodeSet(ns) => Some(ns),
            _ => None,
        }
    }
}

/// XPath string→number: optional whitespace, optional minus, digits with
/// optional fraction; anything else is NaN.
pub fn str_to_number(s: &str) -> f64 {
    let t = s.trim();
    if t.is_empty() {
        return f64::NAN;
    }
    // Rust's f64 parser accepts forms XPath rejects ("inf", "1e3", "+1");
    // filter those out.
    if t.chars().any(|c| !matches!(c, '0'..='9' | '.' | '-')) || t.starts_with("--") {
        return f64::NAN;
    }
    t.parse::<f64>().unwrap_or(f64::NAN)
}

/// XPath number→string: integers render without a decimal point; NaN and
/// infinities use the spec spellings.
pub fn number_to_string(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 {
            "Infinity".to_string()
        } else {
            "-Infinity".to_string()
        }
    } else if n == n.trunc() && n.abs() < 1e15 {
        // -0 renders as "0".
        format!("{}", n.trunc() as i64)
    } else {
        format!("{n}")
    }
}

/// Sort a node-set into document order and remove duplicates.
pub fn sort_dedup(doc: &Document, ns: &mut Vec<XNode>) {
    ns.sort_by_key(|n| n.order_key(doc));
    ns.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_conversions() {
        assert!(Value::Number(1.0).as_bool());
        assert!(!Value::Number(0.0).as_bool());
        assert!(!Value::Number(f64::NAN).as_bool());
        assert!(Value::Str("x".into()).as_bool());
        assert!(!Value::Str("".into()).as_bool());
        assert!(!Value::NodeSet(Vec::new()).as_bool());
    }

    #[test]
    fn number_conversions() {
        assert_eq!(Value::Str("  42 ".into()).as_number(), 42.0);
        assert_eq!(Value::Str("-3.5".into()).as_number(), -3.5);
        assert!(Value::Str("abc".into()).as_number().is_nan());
        assert!(Value::Str("1e3".into()).as_number().is_nan());
        assert!(Value::Str("".into()).as_number().is_nan());
        assert_eq!(Value::Bool(true).as_number(), 1.0);
    }

    #[test]
    fn number_to_string_spec_forms() {
        assert_eq!(number_to_string(5.0), "5");
        assert_eq!(number_to_string(-5.0), "-5");
        assert_eq!(number_to_string(0.0), "0");
        assert_eq!(number_to_string(-0.0), "0");
        assert_eq!(number_to_string(2.5), "2.5");
        assert_eq!(number_to_string(f64::NAN), "NaN");
        assert_eq!(number_to_string(f64::INFINITY), "Infinity");
        assert_eq!(number_to_string(f64::NEG_INFINITY), "-Infinity");
    }

    #[test]
    fn nodeset_string_value_is_first_node() {
        let doc = cn_xml::parse("<a><b>first</b><b>second</b></a>").unwrap();
        let root = doc.root_element().unwrap();
        let bs: Vec<XNode> = doc.child_elements(root).map(XNode::Node).collect();
        let v = Value::NodeSet(bs);
        assert_eq!(v.to_string_value(&doc), "first");
    }

    #[test]
    fn attr_nodes_have_values_and_names() {
        let doc = cn_xml::parse("<t name='tctask0' jar='tasksplit.jar'/>").unwrap();
        let t = doc.root_element().unwrap();
        let attr = XNode::Attr { owner: t, index: 1 };
        assert_eq!(attr.string_value(&doc), "tasksplit.jar");
        assert_eq!(attr.qname(&doc).unwrap().as_str(), "jar");
        assert_eq!(attr.parent(&doc), Some(XNode::Node(t)));
    }

    #[test]
    fn order_keys_interleave_attrs_before_children() {
        let doc = cn_xml::parse("<a x='1'><b/></a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.children(a)[0];
        let ka = XNode::Node(a).order_key(&doc);
        let kx = XNode::Attr { owner: a, index: 0 }.order_key(&doc);
        let kb = XNode::Node(b).order_key(&doc);
        assert!(ka < kx && kx < kb);
    }

    #[test]
    fn sort_dedup_orders_and_removes() {
        let doc = cn_xml::parse("<a><b/><c/></a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.children(a)[0];
        let c = doc.children(a)[1];
        let mut ns = vec![XNode::Node(c), XNode::Node(b), XNode::Node(c)];
        sort_dedup(&doc, &mut ns);
        assert_eq!(ns, vec![XNode::Node(b), XNode::Node(c)]);
    }

    #[test]
    fn local_name_of_prefixed() {
        let doc = cn_xml::parse("<UML:ActionState/>").unwrap();
        let n = XNode::Node(doc.root_element().unwrap());
        let name = n.qname(&doc).unwrap();
        assert_eq!(name.as_str(), "UML:ActionState");
        assert_eq!(name.local(), "ActionState");
    }
}
