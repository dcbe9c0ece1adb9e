//! CNX2Java — "an XSLT that translates CNX to compilable JAVA code"
//! (paper Figure 1), with `method="text"` output. There is no JDK to
//! compile it with, so its output is checked as text:
//! `tests/golden/fig2_client.java` is what it writes for Figure 2.

use cn_xslt::XsltError;

/// The CNX→Java stylesheet, one template per descriptor level.
pub const CNX2JAVA_XSLT: &str = r#"<xsl:stylesheet version="1.0"
    xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="text"/>

  <!-- Only the client is read: no whitespace between elements is output. -->
  <xsl:template match="/"><xsl:apply-templates select="cn2/client"/></xsl:template>

  <xsl:template match="cn2/client">
    <xsl:text>// CN client program for "</xsl:text>
    <xsl:value-of select="@class"/>
    <xsl:text>".&#10;</xsl:text>
    <xsl:text>// GENERATED by CNX2Java from a CNX client descriptor -- do not edit.&#10;&#10;</xsl:text>
    <xsl:text>import org.jhpc.cn2.*;&#10;&#10;</xsl:text>
    <xsl:text>public class </xsl:text>
    <xsl:value-of select="@class"/>
    <xsl:text> {&#10;</xsl:text>
    <xsl:text>    public static void main(String[] args) throws Exception {&#10;</xsl:text>
    <xsl:text>        CNAPI cn = CNAPIFactory.getInstance();&#10;</xsl:text>
    <xsl:if test="@port != ''">
      <xsl:text>        cn.setClientPort(</xsl:text>
      <xsl:value-of select="@port"/>
      <xsl:text>);&#10;</xsl:text>
    </xsl:if>
    <xsl:if test="@log != ''">
      <xsl:text>        cn.setLogFile("</xsl:text>
      <xsl:value-of select="@log"/>
      <xsl:text>");&#10;</xsl:text>
    </xsl:if>
    <xsl:apply-templates select="job"/>
    <xsl:text>        cn.shutdown();&#10;</xsl:text>
    <xsl:text>    }&#10;</xsl:text>
    <xsl:text>}&#10;</xsl:text>
  </xsl:template>

  <xsl:template match="job">
    <xsl:variable name="jobvar" select="concat('job', position() - 1)"/>
    <xsl:text>&#10;        // --- job </xsl:text>
    <xsl:value-of select="position() - 1"/>
    <xsl:text> ---&#10;</xsl:text>
    <xsl:text>        Job </xsl:text>
    <xsl:value-of select="$jobvar"/>
    <xsl:text> = cn.createJob();&#10;</xsl:text>
    <xsl:apply-templates select="task">
      <xsl:with-param name="jobvar" select="$jobvar"/>
    </xsl:apply-templates>
    <xsl:text>        </xsl:text>
    <xsl:value-of select="$jobvar"/>
    <xsl:text>.startTasks();&#10;</xsl:text>
    <xsl:text>        </xsl:text>
    <xsl:value-of select="$jobvar"/>
    <xsl:text>.waitForCompletion();&#10;</xsl:text>
  </xsl:template>

  <xsl:template match="task">
    <xsl:param name="jobvar"/>
    <xsl:text>        Task </xsl:text>
    <xsl:value-of select="@name"/>
    <xsl:text> = </xsl:text>
    <xsl:value-of select="$jobvar"/>
    <xsl:text>.createTask("</xsl:text>
    <xsl:value-of select="@name"/>
    <xsl:text>", "</xsl:text>
    <xsl:value-of select="@jar"/>
    <xsl:text>", "</xsl:text>
    <xsl:value-of select="@class"/>
    <xsl:text>");&#10;</xsl:text>
    <xsl:text>        </xsl:text>
    <xsl:value-of select="@name"/>
    <xsl:text>.setMemory(</xsl:text>
    <xsl:value-of select="task-req/memory"/>
    <xsl:text>);&#10;</xsl:text>
    <xsl:text>        </xsl:text>
    <xsl:value-of select="@name"/>
    <xsl:text>.setRunModel(RunModel.</xsl:text>
    <xsl:value-of select="task-req/runmodel"/>
    <xsl:text>);&#10;</xsl:text>
    <xsl:call-template name="deps">
      <xsl:with-param name="task" select="@name"/>
      <xsl:with-param name="list" select="@depends"/>
    </xsl:call-template>
    <xsl:for-each select="param">
      <xsl:text>        </xsl:text>
      <xsl:value-of select="../@name"/>
      <xsl:text>.addParameter("java.lang.</xsl:text>
      <xsl:value-of select="@type"/>
      <xsl:text>", "</xsl:text>
      <xsl:value-of select="."/>
      <xsl:text>");&#10;</xsl:text>
    </xsl:for-each>
    <xsl:text>&#10;</xsl:text>
  </xsl:template>

  <!-- Split the comma-separated depends list recursively. -->
  <xsl:template name="deps">
    <xsl:param name="task"/>
    <xsl:param name="list"/>
    <xsl:variable name="head" select="substring-before(concat($list, ','), ',')"/>
    <xsl:if test="$head != ''">
      <xsl:text>        </xsl:text>
      <xsl:value-of select="$task"/>
      <xsl:text>.addDependency("</xsl:text>
      <xsl:value-of select="$head"/>
      <xsl:text>");&#10;</xsl:text>
    </xsl:if>
    <xsl:if test="contains($list, ',')">
      <xsl:call-template name="deps">
        <xsl:with-param name="task" select="$task"/>
        <xsl:with-param name="list" select="substring-after($list, ',')"/>
      </xsl:call-template>
    </xsl:if>
  </xsl:template>
</xsl:stylesheet>
"#;

/// Run the stylesheet: CNX text → Java source text.
pub fn cnx_to_java_xslt(cnx_text: &str) -> Result<String, XsltError> {
    crate::apply_text_stylesheet(CNX2JAVA_XSLT, cnx_text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_cnx::ast::figure2_descriptor;
    use cn_cnx::write_cnx;

    #[test]
    fn xslt_emits_compilable_shape() {
        let cnx = write_cnx(&figure2_descriptor(3));
        let java = cnx_to_java_xslt(&cnx).unwrap();
        assert!(java.contains("public class TransClosure {"));
        assert!(java.contains("public static void main(String[] args) throws Exception {"));
        assert!(java.contains("CNAPI cn = CNAPIFactory.getInstance();"));
        assert!(java.contains(
            "Task tctask0 = job0.createTask(\"tctask0\", \"tasksplit.jar\", \"org.jhpc.cn2.transcloser.TaskSplit\");"
        ));
        assert!(java.contains("tctask999.addDependency(\"tctask2\");"));
        assert!(java.contains("addParameter(\"java.lang.Integer\", \"3\")"));
        assert_eq!(java.matches('{').count(), java.matches('}').count());
    }

    /// The Java the deleted native backend wrote, kept as an independent
    /// oracle for the stylesheet (no escaping: Figure 2 has nothing to
    /// escape).
    fn native_java(doc: &cn_cnx::CnxDocument) -> String {
        let client = &doc.client;
        let mut out = vec![
            format!("// CN client program for {:?}.", client.class),
            "// GENERATED by CNX2Java from a CNX client descriptor -- do not edit.".into(),
            "import org.jhpc.cn2.*;".into(),
            format!("public class {} {{", client.class),
            "public static void main(String[] args) throws Exception {".into(),
            "CNAPI cn = CNAPIFactory.getInstance();".into(),
        ];
        out.extend(client.port.map(|port| format!("cn.setClientPort({port});")));
        out.extend(client.log.as_ref().map(|log| format!("cn.setLogFile(\"{log}\");")));
        for (j, job) in client.jobs.iter().enumerate() {
            out.push(format!("// --- job {j} ---"));
            out.push(format!("Job job{j} = cn.createJob();"));
            for t in &job.tasks {
                let var = &t.name;
                out.push(format!(
                    "Task {var} = job{j}.createTask(\"{var}\", \"{}\", \"{}\");",
                    t.jar, t.class
                ));
                out.push(format!("{var}.setMemory({});", t.req.memory_mb));
                out.push(format!("{var}.setRunModel(RunModel.{});", t.req.runmodel.as_str()));
                out.extend(t.depends.iter().map(|d| format!("{var}.addDependency(\"{d}\");")));
                out.extend(t.params.iter().map(|p| {
                    format!("{var}.addParameter(\"java.lang.{}\", \"{}\");", p.ty.as_str(), p.value)
                }));
            }
            out.push(format!("job{j}.startTasks();"));
            out.push(format!("job{j}.waitForCompletion();"));
        }
        out.extend(["cn.shutdown();".into(), "}".into(), "}".into()]);
        out.join("\n")
    }

    #[test]
    fn xslt_matches_native_backend_modulo_whitespace() {
        let doc = figure2_descriptor(4);
        let via_xslt = cnx_to_java_xslt(&write_cnx(&doc)).unwrap();
        let lines = |s: &str| -> Vec<String> {
            s.lines().map(str::trim).filter(|l| !l.is_empty()).map(str::to_string).collect()
        };
        assert_eq!(lines(&via_xslt), lines(&native_java(&doc)));
    }

    #[test]
    fn depends_split_handles_many_entries() {
        let cnx = write_cnx(&figure2_descriptor(5));
        let java = cnx_to_java_xslt(&cnx).unwrap();
        for i in 1..=5 {
            assert!(java.contains(&format!("tctask999.addDependency(\"tctask{i}\");")));
        }
    }

    #[test]
    fn no_port_means_no_set_port_call() {
        let mut doc = figure2_descriptor(1);
        doc.client.port = None;
        doc.client.log = None;
        let java = cnx_to_java_xslt(&write_cnx(&doc)).unwrap();
        assert!(!java.contains("setClientPort"));
        assert!(!java.contains("setLogFile"));
    }
}
