//! CNX2Rust — the paper's step 5 with Rust as the target language: an XSLT
//! (`method="text"`) from CNX to a Rust client that compiles and runs.
//! `examples/generated/fig2_client.rs` is its output for Figure 2.

use cn_xslt::XsltError;

/// The CNX→Rust stylesheet. `jobs()` spells out each `TaskSpec` field by
/// field; `run` makes `cn_core::execute_with_api_seeded`'s calls in its
/// order. Dynamic tasks are emitted as declared, unexpanded.
pub const CNX2RUST_XSLT: &str = r#"<xsl:stylesheet version="1.0"
    xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="text"/>

  <!-- Only the client is read: no whitespace between elements is output. -->
  <xsl:template match="/"><xsl:apply-templates select="cn2/client"/></xsl:template>

  <xsl:template match="cn2/client">
    <xsl:text>//! CN client program for "</xsl:text>
    <xsl:value-of select="@class"/>
    <xsl:text>".
//! GENERATED by CNX2Rust from a CNX client descriptor -- do not edit.

use std::time::Duration;

use cn_cluster::NodeSpec;
use cn_core::{ClientError, CnApi, JobReport, JobRequirements, Neighborhood, TaskSpec};

/// Each job's tasks, in declaration order.
pub fn jobs() -> Vec&lt;Vec&lt;TaskSpec&gt;&gt; {
    let mut jobs = Vec::new();
</xsl:text>
    <xsl:apply-templates select="job"/>
    <xsl:text>    jobs
}

/// Run the client on `api`. Per job: create it, create its tasks in one
/// burst, seed its input, start it and wait for its results. A job whose
/// tasks cannot all be placed, or whose input cannot be seeded, is
/// cancelled.
pub fn run(
    api: &amp;CnApi,
    digraph_seed: u64,
    timeout: Duration,
) -> Result&lt;Vec&lt;JobReport&gt;, ClientError&gt; {
    let mut reports = Vec::new();
    for tasks in jobs() {
        let mut job = api.create_job(&amp;JobRequirements::default())?;
        let placed = job
            .add_tasks(tasks)
            .and_then(|()| job.seed(|job| cn_tasks::seed_transitive_closure(job, digraph_seed)));
        if let Err(e) = placed {
            let _ = job.cancel(timeout);
            return Err(e);
        }
        job.start()?;
        reports.push(job.wait(timeout)?);
    }
    Ok(reports)
}

fn main() {
    // A simulated three-node neighborhood with the built-in task archives;
    // the transitive-closure input is the digraph of seed 1.
    let neighborhood = Neighborhood::deploy(NodeSpec::fleet(3, 8192, 16));
    cn_tasks::publish_all_archives(neighborhood.registry());
    let api = CnApi::initialize(&amp;neighborhood);
    let reports = run(&amp;api, 1, Duration::from_secs(60)).expect("client run");
    for report in &amp;reports {
        for (task, result) in &amp;report.results {
            println!("{task}: {result:?}");
        }
    }
    neighborhood.shutdown();
}
</xsl:text>
  </xsl:template>

  <xsl:template match="job">
    <xsl:text>
    // --- job </xsl:text>
    <xsl:value-of select="position() - 1"/>
    <xsl:text> ---
    let mut tasks = Vec::new();
</xsl:text>
    <xsl:apply-templates select="task"/>
    <xsl:text>    jobs.push(tasks);
</xsl:text>
  </xsl:template>

  <xsl:template match="task">
    <xsl:text>
    let mut t = TaskSpec::new("</xsl:text>
    <xsl:call-template name="str"><xsl:with-param name="s" select="@name"/></xsl:call-template>
    <xsl:text>", "</xsl:text>
    <xsl:call-template name="str"><xsl:with-param name="s" select="@jar"/></xsl:call-template>
    <xsl:text>", "</xsl:text>
    <xsl:call-template name="str"><xsl:with-param name="s" select="@class"/></xsl:call-template>
    <xsl:text>");
</xsl:text>
    <xsl:call-template name="depends">
      <xsl:with-param name="list" select="@depends"/>
    </xsl:call-template>
    <xsl:if test="normalize-space(task-req/memory) != ''">
      <xsl:text>    t.memory_mb = </xsl:text>
      <xsl:value-of select="normalize-space(task-req/memory)"/>
      <xsl:text>;
</xsl:text>
    </xsl:if>
    <xsl:for-each select="param">
      <xsl:text>    t.params.push(cn_cnx::Param::new(cn_cnx::ParamType::parse("</xsl:text>
      <xsl:call-template name="str"><xsl:with-param name="s" select="@type"/></xsl:call-template>
      <xsl:if test="not(@type)">String</xsl:if>
      <xsl:text>"), "</xsl:text>
      <xsl:call-template name="str"><xsl:with-param name="s" select="."/></xsl:call-template>
      <xsl:text>"));
</xsl:text>
    </xsl:for-each>
    <xsl:text>    tasks.push(t);
</xsl:text>
  </xsl:template>

  <!-- One `depends` push per entry of the comma-separated list; blank
       entries are skipped, as the CNX parser skips them. -->
  <xsl:template name="depends">
    <xsl:param name="list"/>
    <xsl:variable name="head" select="normalize-space(substring-before(concat($list, ','), ','))"/>
    <xsl:if test="$head != ''">
      <xsl:text>    t.depends.push("</xsl:text>
      <xsl:call-template name="str"><xsl:with-param name="s" select="$head"/></xsl:call-template>
      <xsl:text>".into());
</xsl:text>
    </xsl:if>
    <xsl:if test="contains($list, ',')">
      <xsl:call-template name="depends">
        <xsl:with-param name="list" select="substring-after($list, ',')"/>
      </xsl:call-template>
    </xsl:if>
  </xsl:template>

  <!-- The body of a Rust string literal: `"` and `\` become `\"` and `\\`.
       `$c` is the first of the two in `$s`, or empty. -->
  <xsl:template name="str">
    <xsl:param name="s"/>
    <xsl:variable name="c"
                  select="substring(translate($s, translate($s, '&quot;\', ''), ''), 1, 1)"/>
    <xsl:choose>
      <xsl:when test="$c = ''"><xsl:value-of select="$s"/></xsl:when>
      <xsl:otherwise>
        <xsl:value-of select="substring-before($s, $c)"/>
        <xsl:text>\</xsl:text>
        <xsl:value-of select="$c"/>
        <xsl:call-template name="str">
          <xsl:with-param name="s" select="substring-after($s, $c)"/>
        </xsl:call-template>
      </xsl:otherwise>
    </xsl:choose>
  </xsl:template>
</xsl:stylesheet>
"#;

/// Run the stylesheet: CNX text → Rust source text.
pub fn cnx_to_rust_xslt(cnx_text: &str) -> Result<String, XsltError> {
    crate::apply_text_stylesheet(CNX2RUST_XSLT, cnx_text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_cnx::ast::figure2_descriptor;
    use cn_cnx::{write_cnx, Param, ParamType};

    #[test]
    fn string_literals_are_escaped() {
        let mut doc = figure2_descriptor(1);
        doc.client.jobs[0].tasks[0].params[0] = Param::string(r#"C:\in "a".txt"#);
        let rust = cnx_to_rust_xslt(&write_cnx(&doc)).unwrap();
        assert!(rust.contains(r#"ParamType::parse("String"), "C:\\in \"a\".txt"));"#), "{rust}");
    }

    #[test]
    fn blank_depends_entries_and_default_runmodel_emit_nothing() {
        let cnx =
            write_cnx(&figure2_descriptor(2)).replace("tctask1,tctask2", " tctask1 ,, tctask2,");
        let rust = cnx_to_rust_xslt(&cnx).unwrap();
        assert_eq!(rust.matches("t.depends.push(").count(), 4, "{rust}");
        assert!(rust.contains(
            "    t.depends.push(\"tctask1\".into());\n    t.depends.push(\"tctask2\".into());\n"
        ));
        assert!(!rust.contains("t.runmodel"));
    }

    #[test]
    fn an_untyped_param_is_spelled_out_and_a_process_runmodel_is_not() {
        // Every task runs on a TaskManager pool thread, so a `TaskSpec`
        // carries no run model and the client spells none.
        let mut doc = figure2_descriptor(1);
        doc.client.jobs[0].tasks[0].req.runmodel = cn_cnx::RunModel::RunAsProcess;
        doc.client.jobs[0].tasks[0].params[0] = Param::new(ParamType::Long, "7");
        let cnx = write_cnx(&doc).replace(r#"<param type="Integer">"#, "<param>");
        let rust = cnx_to_rust_xslt(&cnx).unwrap();
        assert!(!rust.contains("runmodel"), "{rust}");
        assert!(rust.contains(r#"ParamType::parse("Long"), "7"));"#));
        assert!(rust.contains(r#"ParamType::parse("String"), "1"));"#), "{rust}");
    }
}
