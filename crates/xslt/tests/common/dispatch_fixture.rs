// The differential fixture the dispatch property tests share: the
// `indexed_dispatch_matches_linear_scan` unit test in `src/exec.rs` and the
// integration tests in `tests/proptests.rs` both `include!` it, each beside
// its own `NS` constant.

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
