//! Differential property tests for the transform fast paths.
//!
//! The indexed template dispatch ([`cn_xslt::DispatchIndex`]) and the
//! compiled-stylesheet cache ([`cn_xslt::compile_cached`]) are pure
//! optimizations: for every document they must produce byte-identical output
//! (and identical `xsl:message` streams) to the unindexed linear scan and to
//! a fresh compile. These tests generate arbitrary small documents over a
//! vocabulary the stylesheet knows (plus names it does not) and compare the
//! fast path against the reference path.

use proptest::prelude::*;

use cn_xslt::{transform_with_options, Stylesheet, TransformOptions};

const NS: &str = r#"xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0""#;

/// A stylesheet that exercises every dispatch bucket shape: plain-name
/// templates (indexed), a `*` template and a `text()` template (catch-all
/// bucket), a second mode, priorities that override declaration order, a key
/// table, and templates for names the generated documents may not contain.
fn style_src() -> String {
    format!(
        r#"<xsl:stylesheet {NS}>
  <xsl:output method="xml" omit-xml-declaration="yes"/>
  <xsl:key name="by-id" match="task" use="@id"/>
  <xsl:template match="/">
    <out><xsl:apply-templates/>|<xsl:apply-templates select="//task" mode="alt"/></out>
  </xsl:template>
  <xsl:template match="job">
    <J><xsl:apply-templates/></J>
  </xsl:template>
  <xsl:template match="task">
    <T id="{{@id}}" same="{{count(key('by-id', @id))}}"><xsl:apply-templates/></T>
  </xsl:template>
  <xsl:template match="dep" priority="2">
    <D2/>
  </xsl:template>
  <xsl:template match="dep">
    <D1-should-lose-to-priority/>
  </xsl:template>
  <xsl:template match="*">
    <any n="{{name()}}"><xsl:apply-templates/></any>
  </xsl:template>
  <xsl:template match="text()">
    <xsl:value-of select="."/>
  </xsl:template>
  <xsl:template match="task" mode="alt">
    <alt id="{{@id}}"/>
  </xsl:template>
  <xsl:template match="never-generated">
    <unreached/>
  </xsl:template>
</xsl:stylesheet>"#
    )
}

/// Deterministically grow a small well-formed document from a byte script.
/// Each byte either opens an element (name and attribute chosen from the
/// byte), emits text, or closes the innermost open element; everything still
/// open is closed at the end.
fn build_doc(script: &[u8]) -> String {
    const NAMES: [&str; 6] = ["job", "task", "dep", "meta", "task", "unmatched-name"];
    let mut out = String::from("<root>");
    let mut open: Vec<&str> = Vec::new();
    for &b in script {
        match b % 4 {
            0 | 1 => {
                let name = NAMES[(b as usize / 4) % NAMES.len()];
                out.push_str(&format!("<{name} id=\"i{}\">", b % 5));
                open.push(name);
            }
            2 => out.push_str(&format!("t{} ", b / 4)),
            _ => {
                if let Some(name) = open.pop() {
                    out.push_str(&format!("</{name}>"));
                }
            }
        }
    }
    while let Some(name) = open.pop() {
        out.push_str(&format!("</{name}>"));
    }
    out.push_str("</root>");
    out
}

fn run(style: &Stylesheet, doc: &cn_xml::Document, indexed: bool) -> (String, Vec<String>) {
    let result = transform_with_options(
        style,
        doc,
        &std::collections::HashMap::new(),
        &TransformOptions { indexed_dispatch: indexed },
    )
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

    /// A cache-compiled stylesheet behaves exactly like a freshly parsed one
    /// — including its pre-warmed dispatch index — on arbitrary documents.
    #[test]
    fn compile_cached_matches_fresh_compile(script in proptest::collection::vec(any::<u8>(), 0..48)) {
        let src = style_src();
        let cached = cn_xslt::compile_cached(&src).expect("cached compile");
        let fresh = Stylesheet::parse(&src).expect("fresh compile");
        let doc = cn_xml::parse(&build_doc(&script)).expect("generated doc parses");
        let (from_cache, cache_msgs) = run(&cached, &doc, true);
        let (from_fresh, fresh_msgs) = run(&fresh, &doc, true);
        prop_assert_eq!(from_cache, from_fresh);
        prop_assert_eq!(cache_msgs, fresh_msgs);
    }
}
