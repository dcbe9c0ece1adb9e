//! Arena-backed DOM tree.
//!
//! Nodes live in a flat `Vec` inside [`Document`] and reference each other by
//! [`NodeId`]. Because the builder appends nodes in parse order, `NodeId`
//! order coincides with document order for parsed documents — a property the
//! XPath evaluator relies on when sorting node-sets. Programmatic mutation
//! preserves this property as long as nodes are appended (the only mutation
//! the tool chain performs).

use crate::error::{Pos, XmlError, XmlErrorKind};
use crate::name::{Atom, QName};
use crate::reader::{Event, Reader};

/// Index of a node in its document's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The payload of a node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// The document root (not an element; has the root element among its
    /// children, alongside top-level comments/PIs).
    Document,
    Element {
        name: QName,
        attrs: Vec<(QName, String)>,
    },
    Text(String),
    Comment(String),
    ProcessingInstruction {
        target: String,
        data: String,
    },
}

/// A node: payload plus tree links.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    /// Source position of the construct that produced this node. Nodes built
    /// programmatically (rather than parsed) sit at `Pos::start()`.
    pub(crate) pos: Pos,
}

/// An XML document as a tree.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    /// Declared encoding, if the source had an XML declaration.
    pub encoding: Option<String>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Create an empty document containing only the document node.
    pub fn new() -> Self {
        Document {
            nodes: vec![Node {
                kind: NodeKind::Document,
                parent: None,
                children: Vec::new(),
                pos: Pos::start(),
            }],
            encoding: None,
        }
    }

    /// The document node.
    pub fn document_node(&self) -> NodeId {
        NodeId(0)
    }

    /// Parse a complete document.
    pub fn parse(input: &str) -> Result<Document, XmlError> {
        let mut doc = Document::new();
        let mut reader = Reader::new(input);
        let mut stack = vec![NodeId(0)];
        loop {
            let pos = reader.pos();
            match reader.next_event()? {
                Event::XmlDecl { encoding, .. } => doc.encoding = encoding,
                Event::StartTag { name, attrs, self_closing } => {
                    let parent = *stack.last().expect("stack never empty");
                    if parent == NodeId(0) && doc.root_element().is_some() {
                        return Err(XmlError::new(
                            XmlErrorKind::Structure("multiple root elements".into()),
                            pos,
                        ));
                    }
                    let id = doc.push_node_at(
                        NodeKind::Element {
                            name,
                            attrs: attrs
                                .into_iter()
                                .map(|a| (a.name, a.value.into_owned()))
                                .collect(),
                        },
                        Some(parent),
                        pos,
                    );
                    if !self_closing {
                        stack.push(id);
                    }
                }
                Event::EndTag { .. } => {
                    stack.pop();
                }
                Event::Text(t) => {
                    let parent = *stack.last().unwrap();
                    if parent != NodeId(0) {
                        doc.push_node_at(NodeKind::Text(t.into_owned()), Some(parent), pos);
                    }
                }
                Event::CData(t) => {
                    let parent = *stack.last().unwrap();
                    if parent != NodeId(0) {
                        doc.push_node_at(NodeKind::Text(t.to_string()), Some(parent), pos);
                    }
                }
                Event::Comment(c) => {
                    let parent = *stack.last().unwrap();
                    doc.push_node_at(NodeKind::Comment(c.to_string()), Some(parent), pos);
                }
                Event::ProcessingInstruction { target, data } => {
                    let parent = *stack.last().unwrap();
                    doc.push_node_at(
                        NodeKind::ProcessingInstruction { target, data: data.to_string() },
                        Some(parent),
                        pos,
                    );
                }
                Event::Doctype(_) => {}
                Event::Eof => break,
            }
        }
        if doc.root_element().is_none() {
            return Err(XmlError::new(
                XmlErrorKind::Structure("document has no root element".into()),
                Pos::start(),
            ));
        }
        Ok(doc)
    }

    fn push_node(&mut self, kind: NodeKind, parent: Option<NodeId>) -> NodeId {
        self.push_node_at(kind, parent, Pos::start())
    }

    fn push_node_at(&mut self, kind: NodeKind, parent: Option<NodeId>, pos: Pos) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, parent, children: Vec::new(), pos });
        if let Some(p) = parent {
            self.nodes[p.index()].children.push(id);
        }
        id
    }

    // ---- construction API -------------------------------------------------

    /// Append a new element under `parent` (use the document node for the
    /// root element) and return its id.
    pub fn add_element(&mut self, parent: NodeId, name: impl Into<QName>) -> NodeId {
        self.push_node(NodeKind::Element { name: name.into(), attrs: Vec::new() }, Some(parent))
    }

    /// Append a text node under `parent`.
    pub fn add_text(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        self.push_node(NodeKind::Text(text.into()), Some(parent))
    }

    /// Append a comment node under `parent`.
    pub fn add_comment(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        self.push_node(NodeKind::Comment(text.into()), Some(parent))
    }

    /// Set (or replace) an attribute on an element.
    ///
    /// # Panics
    /// Panics if `el` is not an element.
    pub fn set_attr(&mut self, el: NodeId, name: impl Into<QName>, value: impl Into<String>) {
        let name = name.into();
        match &mut self.nodes[el.index()].kind {
            NodeKind::Element { attrs, .. } => {
                let value = value.into();
                if let Some(slot) = attrs.iter_mut().find(|(n, _)| *n == name) {
                    slot.1 = value;
                } else {
                    attrs.push((name, value));
                }
            }
            other => panic!("set_attr on non-element node {other:?}"),
        }
    }

    // ---- accessors ---------------------------------------------------------

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    /// Source position of a node. For parsed documents this is where the
    /// node's construct starts in the input; programmatically built nodes
    /// report `Pos::start()`.
    pub fn node_pos(&self, id: NodeId) -> Pos {
        self.nodes[id.index()].pos
    }

    /// Number of nodes (including the document node).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The root element, if present.
    pub fn root_element(&self) -> Option<NodeId> {
        self.nodes[0].children.iter().copied().find(|&c| self.is_element(c))
    }

    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.kind(id), NodeKind::Element { .. })
    }

    /// Element name, if `id` is an element.
    pub fn name(&self, id: NodeId) -> Option<&QName> {
        match self.kind(id) {
            NodeKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Child elements only.
    pub fn child_elements<'a>(&'a self, id: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.children(id).iter().copied().filter(move |&c| self.is_element(c))
    }

    /// Non-inserting atom lookup for query-side names. A `None` means the
    /// name was never interned, so no parsed node or attribute can bear it.
    fn query_atom(name: &str) -> Option<Atom> {
        Atom::lookup(name)
    }

    /// First child element with the given full lexical name.
    pub fn first_child_named(&self, id: NodeId, name: &str) -> Option<NodeId> {
        let atom = Self::query_atom(name)?;
        self.child_elements(id).find(|&c| self.name(c).is_some_and(|n| n.atom() == atom))
    }

    /// All child elements with the given full lexical name.
    pub fn children_named<'a>(
        &'a self,
        id: NodeId,
        name: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let atom = Self::query_atom(name);
        self.child_elements(id)
            .filter(move |&c| atom.is_some_and(|a| self.name(c).is_some_and(|n| n.atom() == a)))
    }

    /// Attribute value by full lexical name. The name is resolved to an
    /// interned atom once; the scan over the attribute list is then integer
    /// compares.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        match self.kind(id) {
            NodeKind::Element { attrs, .. } => {
                let atom = Self::query_atom(name)?;
                attrs.iter().find(|(n, _)| n.atom() == atom).map(|(_, v)| v.as_str())
            }
            _ => None,
        }
    }

    /// All attributes of an element.
    pub fn attrs(&self, id: NodeId) -> &[(QName, String)] {
        match self.kind(id) {
            NodeKind::Element { attrs, .. } => attrs,
            _ => &[],
        }
    }

    /// Concatenated descendant text (the XPath `string()` value of a node).
    pub fn text_content(&self, id: NodeId) -> String {
        // Common shapes first, with no intermediate buffer growth: a text
        // node itself, or an element whose only child is one text node
        // (`<memory>1000</memory>`).
        match self.kind(id) {
            NodeKind::Text(t) => return t.clone(),
            NodeKind::Document | NodeKind::Element { .. } => {
                if let [only] = self.children(id)[..] {
                    if let NodeKind::Text(t) = self.kind(only) {
                        return t.clone();
                    }
                }
            }
            NodeKind::Comment(_) | NodeKind::ProcessingInstruction { .. } => return String::new(),
        }
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match self.kind(id) {
            NodeKind::Text(t) => out.push_str(t),
            NodeKind::Comment(_) | NodeKind::ProcessingInstruction { .. } => {}
            NodeKind::Document | NodeKind::Element { .. } => {
                for &c in self.children(id) {
                    self.collect_text(c, out);
                }
            }
        }
    }

    /// Depth-first pre-order traversal from `id` (inclusive) — document order.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants { doc: self, stack: vec![id] }
    }

    /// Find the first descendant element (in document order) with the given
    /// full lexical name.
    pub fn find(&self, from: NodeId, name: &str) -> Option<NodeId> {
        let atom = Self::query_atom(name)?;
        self.descendants(from).find(|&n| self.name(n).is_some_and(|q| q.atom() == atom))
    }

    /// All descendant elements with the given full lexical name, in document
    /// order.
    pub fn find_all(&self, from: NodeId, name: &str) -> Vec<NodeId> {
        let Some(atom) = Self::query_atom(name) else { return Vec::new() };
        self.descendants(from).filter(|&n| self.name(n).is_some_and(|q| q.atom() == atom)).collect()
    }

    /// Document-order position of every node, used for node-set sorting.
    /// For parsed or append-only documents this is just the arena index.
    pub fn doc_order(&self, id: NodeId) -> u32 {
        id.0
    }
}

/// Iterator over a subtree in document order.
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let next = self.stack.pop()?;
        let children = self.doc.children(next);
        self.stack.extend(children.iter().rev());
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CNX_SNIPPET: &str = r#"<?xml version="1.0"?>
<cn2>
  <client class="TransClosure" port="5666">
    <job>
      <task name="tctask0" jar="tasksplit.jar" depends="">
        <task-req><memory>1000</memory></task-req>
        <param type="String">matrix.txt</param>
      </task>
      <task name="tctask1" jar="tctask.jar" depends="tctask0"/>
    </job>
  </client>
</cn2>"#;

    #[test]
    fn parses_nested_structure() {
        let doc = Document::parse(CNX_SNIPPET).unwrap();
        let root = doc.root_element().unwrap();
        assert!(doc.name(root).unwrap().is("cn2"));
        let client = doc.first_child_named(root, "client").unwrap();
        assert_eq!(doc.attr(client, "class"), Some("TransClosure"));
        let job = doc.first_child_named(client, "job").unwrap();
        let tasks: Vec<_> = doc.children_named(job, "task").collect();
        assert_eq!(tasks.len(), 2);
        assert_eq!(doc.attr(tasks[0], "name"), Some("tctask0"));
        assert_eq!(doc.attr(tasks[1], "depends"), Some("tctask0"));
    }

    #[test]
    fn text_content_concatenates() {
        let doc = Document::parse(CNX_SNIPPET).unwrap();
        let root = doc.root_element().unwrap();
        let param = doc.find(root, "param").unwrap();
        assert_eq!(doc.text_content(param), "matrix.txt");
        let memory = doc.find(root, "memory").unwrap();
        assert_eq!(doc.text_content(memory), "1000");
    }

    #[test]
    fn descendants_in_document_order() {
        let doc = Document::parse("<a><b><c/></b><d/></a>").unwrap();
        let names: Vec<String> = doc
            .descendants(doc.document_node())
            .filter_map(|n| doc.name(n).map(|q| q.as_str().to_string()))
            .collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
    }

    #[test]
    fn doc_order_matches_traversal() {
        let doc = Document::parse("<a><b><c/></b><d/></a>").unwrap();
        let order: Vec<u32> =
            doc.descendants(doc.document_node()).map(|n| doc.doc_order(n)).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn construction_api_builds_trees() {
        let mut doc = Document::new();
        let root = doc.add_element(doc.document_node(), "cn2");
        let client = doc.add_element(root, "client");
        doc.set_attr(client, "class", "TransClosure");
        doc.set_attr(client, "port", "5666");
        doc.set_attr(client, "port", "7000"); // replace
        let t = doc.add_text(client, "hello");
        assert_eq!(doc.attr(client, "port"), Some("7000"));
        assert_eq!(doc.parent(t), Some(client));
        assert_eq!(doc.root_element(), Some(root));
    }

    #[test]
    fn multiple_roots_rejected() {
        assert!(Document::parse("<a/><b/>").is_err());
    }

    #[test]
    fn empty_document_rejected() {
        assert!(Document::parse("").is_err());
        assert!(Document::parse("<!-- only a comment -->").is_err());
    }

    #[test]
    fn find_all_returns_document_order() {
        let doc = Document::parse("<j><t n='0'/><x><t n='1'/></x><t n='2'/></j>").unwrap();
        let all = doc.find_all(doc.document_node(), "t");
        let ns: Vec<_> = all.iter().map(|&t| doc.attr(t, "n").unwrap()).collect();
        assert_eq!(ns, ["0", "1", "2"]);
    }

    #[test]
    fn parsed_nodes_carry_positions() {
        let doc = Document::parse(CNX_SNIPPET).unwrap();
        let root = doc.root_element().unwrap();
        // <cn2> opens on line 2 of the snippet (line 1 is the XML decl).
        assert_eq!(doc.node_pos(root).line, 2);
        let tasks = doc.find_all(root, "task");
        assert_eq!(doc.node_pos(tasks[0]).line, 5);
        assert_eq!(doc.node_pos(tasks[1]).line, 9);
        assert!(doc.node_pos(tasks[1]).offset > doc.node_pos(tasks[0]).offset);
    }

    #[test]
    fn constructed_nodes_sit_at_start() {
        let mut doc = Document::new();
        let root = doc.add_element(doc.document_node(), "cn2");
        assert_eq!(doc.node_pos(root), Pos::start());
    }

    #[test]
    fn cdata_becomes_text() {
        let doc = Document::parse("<a><![CDATA[x < y]]></a>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.text_content(root), "x < y");
    }

    #[test]
    fn comments_preserved_but_not_text() {
        let doc = Document::parse("<a><!--note-->v</a>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.text_content(root), "v");
        assert_eq!(doc.children(root).len(), 2);
    }
}
