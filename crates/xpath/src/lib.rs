//! XPath 1.0 subset evaluator over the [`cn_xml`] DOM.
//!
//! The paper's generative step is driven by XSLT stylesheets (`XMI2CNX`,
//! `CNX2Java`), and XSLT is in turn driven by XPath: template `match`
//! patterns and `select`/`test` expressions. This crate implements what
//! the three stylesheets the tool chain runs (XMI2CNX, CNX2Java, CNX2Rust)
//! write, and no more:
//!
//! * location paths through the abbreviations only: `@`, `.`, `..`, `/`
//!   and `//`, with name tests and predicates;
//! * filter expressions (`(expr)[pred]/path`), variables (`$var`, supplied
//!   through the evaluation context), literals and numbers;
//! * the operators `=`, `!=`, `+` and `-`, over the four value types
//!   (node-set, string, number, boolean) with the spec's conversion and
//!   comparison rules;
//! * twelve functions ([`Function`]), resolved when the expression is
//!   parsed.
//!
//! Anything else is refused by [`parse_expr`] with an [`ErrorCode`]:
//! `XPST0003` for syntax outside the grammar (an explicit axis, `*`,
//! `text()`, `|`, `and`, `<`, `div`, unary minus, ...), `XPST0017` for an
//! unknown function or a wrong arity.
//!
//! Node-sets are kept in document order and deduplicated, matching the
//! behaviour XSLT relies on (e.g. `apply-templates` processing order).

pub mod ast;
pub mod eval;
pub mod functions;
pub mod parser;
pub mod value;

pub use ast::{Axis, Expr, NodeTest, PathExpr, Step};
pub use eval::{Ctx, EvalError, ScanCache};
pub use functions::Function;
pub use parser::{parse as parse_expr, ErrorCode, ParseError};
pub use value::{Value, XNode};

use cn_xml::Document;

/// Parse and evaluate an expression against `node` with an empty variable
/// environment. Convenience entry point for tests and simple callers.
pub fn eval_str(
    doc: &Document,
    node: cn_xml::NodeId,
    expr: &str,
) -> Result<Value, Box<dyn std::error::Error>> {
    let parsed = parse_expr(expr)?;
    let ctx = Ctx::new(doc, node);
    Ok(ctx.eval(&parsed)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_eval() {
        let doc = cn_xml::parse("<a><b x='1'/><b x='2'/></a>").unwrap();
        let v = eval_str(&doc, doc.document_node(), "/a/b").unwrap();
        assert_eq!(v.into_nodeset().map(|ns| ns.len()), Some(2));
        let v = eval_str(&doc, doc.document_node(), "/a/b[2]/@x").unwrap();
        assert_eq!(v.to_string_value(&doc), "2");
    }
}
