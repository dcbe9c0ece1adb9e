// The differential fixture the dispatch property tests share: the
// `indexed_dispatch_matches_linear_scan` unit test in `src/exec.rs` and the
// integration tests in `tests/proptests.rs` both `include!` it, each beside
// its own `NS` constant.

/// A stylesheet that exercises every dispatch bucket: the `/` rule (the
/// nameless bucket), name rules, a `job/task` rule that beats the `task`
/// rule under a job (0.5 against 0), two `dep` rules of equal priority (the
/// later must win), a key table, names no rule matches (the built-in rules,
/// which also copy text), and a rule for a name the generated documents
/// never contain.
fn style_src() -> String {
    format!(
        r#"<xsl:stylesheet {NS}>
  <xsl:output method="xml"/>
  <xsl:key name="by-id" match="task" use="@id"/>
  <xsl:template match="/">
    <out><xsl:apply-templates select="root"/></out>
  </xsl:template>
  <xsl:template match="job">
    <J><xsl:call-template name="children"/></J>
  </xsl:template>
  <xsl:template match="task">
    <T>
      <xsl:attribute name="id"><xsl:value-of select="@id"/></xsl:attribute>
      <xsl:attribute name="same"><xsl:for-each select="key('by-id', @id)">+</xsl:for-each></xsl:attribute>
      <xsl:call-template name="children"/>
    </T>
  </xsl:template>
  <xsl:template match="job/task">
    <JT><xsl:call-template name="children"/></JT>
  </xsl:template>
  <xsl:template match="dep">
    <D-should-lose-to-the-later-rule/>
  </xsl:template>
  <xsl:template match="dep">
    <D><xsl:call-template name="children"/></D>
  </xsl:template>
  <xsl:template match="never-generated">
    <unreached/>
  </xsl:template>
  <xsl:template name="children">
    <xsl:apply-templates select="job"/>
    <xsl:apply-templates select="task"/>
    <xsl:apply-templates select="dep"/>
    <xsl:apply-templates select="meta"/>
    <xsl:apply-templates select="unmatched-name"/>
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
