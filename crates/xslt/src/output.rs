//! Result-tree construction and serialization.

use cn_xml::{Document, NodeId, WriteOptions};

/// Serialization method declared by `xsl:output`. XML output always
/// starts with an XML declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMethod {
    Xml { indent: bool },
    Text,
}

/// Incremental builder for the result tree.
///
/// XSLT output is a sequence of events (start element, attribute, text...)
/// produced by instruction execution; this builder folds them into a
/// [`Document`]. Top-level text (outside any element) is stored directly
/// under the document node, preserving event order — legal for
/// `method="text"` output and for result-tree fragments.
pub struct Builder {
    doc: Document,
    /// Open element stack; empty means "at top level".
    stack: Vec<NodeId>,
}

impl Default for Builder {
    fn default() -> Self {
        Self::new()
    }
}

impl Builder {
    pub fn new() -> Builder {
        Builder { doc: Document::new(), stack: Vec::new() }
    }

    fn parent(&self) -> NodeId {
        self.stack.last().copied().unwrap_or_else(|| self.doc.document_node())
    }

    /// Open a new element.
    pub fn start_element(&mut self, name: &str) {
        let id = self.doc.add_element(self.parent(), name);
        self.stack.push(id);
    }

    /// Close the innermost element.
    pub fn end_element(&mut self) {
        self.stack.pop();
    }

    /// Add an attribute to the innermost open element. Returns false (and
    /// does nothing) at top level — matching XSLT's rule that
    /// `xsl:attribute` outside an element is an error we report upstream.
    pub fn attribute(&mut self, name: &str, value: &str) -> bool {
        match self.stack.last() {
            Some(&el) => {
                self.doc.set_attr(el, name, value);
                true
            }
            None => false,
        }
    }

    /// Append text.
    pub fn text(&mut self, s: &str) {
        if !s.is_empty() {
            self.doc.add_text(self.parent(), s);
        }
    }

    /// Finish building.
    pub fn finish(self) -> Document {
        self.doc
    }

    /// Collected text content of everything built so far (for
    /// `method="text"` and result-tree-fragment→string coercion).
    pub fn text_value(&self) -> String {
        self.doc.text_content(self.doc.document_node())
    }
}

/// Serialize a result document per the output method.
pub fn serialize(doc: &Document, method: OutputMethod) -> String {
    match method {
        OutputMethod::Text => doc.text_content(doc.document_node()),
        OutputMethod::Xml { indent } => {
            let opts = WriteOptions {
                declaration: true,
                indent: if indent { Some(2) } else { None },
                single_quotes: false,
            };
            cn_xml::write_document(doc, &opts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_elements() {
        let mut b = Builder::new();
        b.start_element("cn2");
        b.start_element("client");
        b.attribute("class", "TC");
        b.text("x");
        b.end_element();
        b.end_element();
        let doc = b.finish();
        let out = serialize(&doc, OutputMethod::Xml { indent: false });
        assert_eq!(out, r#"<?xml version="1.0"?><cn2><client class="TC">x</client></cn2>"#);
    }

    #[test]
    fn attribute_at_top_level_rejected() {
        let mut b = Builder::new();
        assert!(!b.attribute("x", "1"));
        b.start_element("a");
        assert!(b.attribute("x", "1"));
    }

    #[test]
    fn text_method_preserves_order() {
        let mut b = Builder::new();
        b.text("head ");
        b.start_element("a");
        b.text("inner");
        b.end_element();
        b.text(" tail");
        let doc = b.finish();
        assert_eq!(serialize(&doc, OutputMethod::Text), "head inner tail");
    }

    #[test]
    fn text_value_snapshot() {
        let mut b = Builder::new();
        b.start_element("a");
        b.text("x");
        b.end_element();
        b.text("y");
        assert_eq!(b.text_value(), "xy");
    }
}
