//! XSLT 1.0 subset engine.
//!
//! The paper's tool chain is *generative*: `XMI2CNX` and `CNX2Java` are XSL
//! Transformations (paper Section 5, Figure 6). Because no XSLT crate exists
//! in the offline dependency set (and the repro guidance flags Rust XSLT as
//! immature), this crate implements what the three stylesheets the tool
//! chain runs (XMI2CNX, CNX2Java, CNX2Rust) need, on top of [`cn_xml`] and
//! [`cn_xpath`], and no more (`tests/golden/xslt_surface.txt` lists it):
//!
//! * template rules matching `/` or element names joined by `/`, with
//!   default priorities and document-order conflict resolution, and the
//!   built-in rules;
//! * `apply-templates select=` and `call-template`, both with `with-param`;
//! * `for-each`, `if`, `choose`/`when`/`otherwise`;
//! * `value-of`, `text`, `attribute` and literal result elements, both with
//!   fixed-text names and attribute values;
//! * local `variable`s and template `param`s, top-level `param`s the caller
//!   overrides, and `key` declarations served through `key()`;
//! * `output method="xml"|"text"`, XML optionally indented.
//!
//! Everything else is refused when the stylesheet compiles, with an
//! [`ErrorCode`] (see [`parse`]).
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
pub use cn_xpath::ErrorCode;
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
