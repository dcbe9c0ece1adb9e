//! XSLT 1.0 subset engine.
//!
//! The paper's tool chain is *generative*: `XMI2CNX` and `CNX2Java` are XSL
//! Transformations (paper Section 5, Figure 6). Because no XSLT crate exists
//! in the offline dependency set (and the repro guidance flags Rust XSLT as
//! immature), this crate implements the slice of XSLT 1.0 those stylesheets
//! need, on top of [`cn_xml`] and [`cn_xpath`]:
//!
//! * template rules with `match` patterns, modes, explicit/default
//!   priorities and document-order conflict resolution,
//! * `apply-templates` (with `select`, `mode`, `with-param`, `sort`),
//!   `call-template`, built-in rules,
//! * `for-each` (+ `sort`), `if`, `choose`/`when`/`otherwise`,
//! * `value-of`, `text`, `element`, `attribute`, `comment`, `copy-of`,
//!   literal result elements with attribute value templates,
//! * `variable` / `param` (global and local),
//! * `output method="xml"|"text"` with optional indentation,
//! * `message` (collected into the transform result).
//!
//! Entry point: parse a stylesheet with [`Stylesheet::parse`], run it with
//! [`transform`].

pub mod cache;
pub mod dispatch;
pub mod exec;
pub mod output;
pub mod parse;
pub mod pattern;
pub mod stylesheet;

pub use cache::compile_cached;
pub use dispatch::DispatchIndex;
pub use exec::{transform, transform_with_params, TransformResult, XsltError};
pub use output::OutputMethod;
pub use pattern::Pattern;
pub use stylesheet::{Instruction, Stylesheet, Template};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_identityish_transform() {
        let style = Stylesheet::parse(
            r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
                 <xsl:output method="text"/>
                 <xsl:template match="/">
                   <xsl:for-each select="//task">
                     <xsl:value-of select="@name"/><xsl:text>,</xsl:text>
                   </xsl:for-each>
                 </xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let doc = cn_xml::parse("<job><task name='a'/><task name='b'/></job>").unwrap();
        let result = transform(&style, &doc).unwrap();
        assert_eq!(result.to_output_string(), "a,b,");
    }
}
