//! XMI2CNX — "an XSLT that translates UML model in XMI format to CNX"
//! (paper Figure 1).
//!
//! Two implementations are provided and differential-tested against each
//! other:
//!
//! * [`xmi_to_cnx_xslt`] runs the real stylesheet [`XMI2CNX_XSLT`] through
//!   the [`cn_xslt`] engine — the paper's mechanism, reproduced faithfully;
//! * [`xmi_to_cnx_native`] imports the XMI into a [`cn_model`] activity
//!   graph and converts it structurally ([`model_to_cnx`]).

use std::collections::HashMap;

use cn_cnx::{Client, CnxDocument, Job, Param, ParamType, RunModel, Task};
use cn_model::{ActivityGraph, NodeId};
use cn_xpath::Value;
use cn_xslt::{compile_cached, XsltError};

/// The XMI→CNX stylesheet. Walks `UML:ActionState` elements,
/// resolves tagged values through `UML:TagDefinition` idrefs (paper Figure
/// 7) via `xsl:key` indexes, and reconstructs `depends=` by chasing
/// transitions backwards *through* fork/join pseudostates with a recursive
/// named template over the `trans-by-target` key.
pub const XMI2CNX_XSLT: &str = r#"<xsl:stylesheet version="1.0"
    xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="xml" indent="yes"/>
  <xsl:param name="client-class" select="'GeneratedClient'"/>
  <xsl:param name="client-port" select="''"/>
  <xsl:param name="client-log" select="''"/>

  <xsl:key name="tagdef" match="UML:TagDefinition" use="@xmi.id"/>
  <xsl:key name="trans-by-target" match="UML:Transition"
           use="UML:Transition.target/UML:StateVertex/@xmi.idref"/>
  <xsl:key name="action-by-id" match="UML:ActionState" use="@xmi.id"/>
  <xsl:key name="pseudo-by-id" match="UML:Pseudostate" use="@xmi.id"/>

  <xsl:template match="/">
    <cn2>
      <client>
        <xsl:attribute name="class"><xsl:value-of select="$client-class"/></xsl:attribute>
        <xsl:if test="$client-log != ''">
          <xsl:attribute name="log"><xsl:value-of select="$client-log"/></xsl:attribute>
        </xsl:if>
        <xsl:if test="$client-port != ''">
          <xsl:attribute name="port"><xsl:value-of select="$client-port"/></xsl:attribute>
        </xsl:if>
        <xsl:apply-templates select="//UML:ActivityGraph"/>
      </client>
    </cn2>
  </xsl:template>

  <xsl:template match="UML:ActivityGraph">
    <job>
      <xsl:apply-templates select=".//UML:ActionState"/>
    </job>
  </xsl:template>

  <xsl:template match="UML:ActionState">
    <xsl:variable name="id" select="@xmi.id"/>
    <task>
      <xsl:attribute name="name"><xsl:value-of select="@name"/></xsl:attribute>
      <xsl:attribute name="jar">
        <xsl:call-template name="tagval"><xsl:with-param name="tag" select="'jar'"/></xsl:call-template>
      </xsl:attribute>
      <xsl:attribute name="class">
        <xsl:call-template name="tagval"><xsl:with-param name="tag" select="'class'"/></xsl:call-template>
      </xsl:attribute>
      <xsl:attribute name="depends">
        <xsl:variable name="deps">
          <xsl:call-template name="deps-of"><xsl:with-param name="vertex" select="$id"/></xsl:call-template>
        </xsl:variable>
        <!-- deps-of emits a trailing separator; trim it. -->
        <xsl:choose>
          <xsl:when test="substring($deps, string-length($deps)) = ','">
            <xsl:value-of select="substring($deps, 1, string-length($deps) - 1)"/>
          </xsl:when>
          <xsl:otherwise><xsl:value-of select="$deps"/></xsl:otherwise>
        </xsl:choose>
      </xsl:attribute>
      <xsl:if test="@isDynamic = 'true'">
        <xsl:attribute name="multiplicity"><xsl:value-of select="@dynamicMultiplicity"/></xsl:attribute>
      </xsl:if>
      <task-req>
        <xsl:variable name="mem">
          <xsl:call-template name="tagval"><xsl:with-param name="tag" select="'memory'"/></xsl:call-template>
        </xsl:variable>
        <memory><xsl:choose>
          <xsl:when test="$mem != ''"><xsl:value-of select="$mem"/></xsl:when>
          <xsl:otherwise>1000</xsl:otherwise>
        </xsl:choose></memory>
        <xsl:variable name="rm">
          <xsl:call-template name="tagval"><xsl:with-param name="tag" select="'runmodel'"/></xsl:call-template>
        </xsl:variable>
        <runmodel><xsl:choose>
          <xsl:when test="$rm != ''"><xsl:value-of select="$rm"/></xsl:when>
          <xsl:otherwise>RUN_AS_THREAD_IN_TM</xsl:otherwise>
        </xsl:choose></runmodel>
      </task-req>
      <xsl:call-template name="params"><xsl:with-param name="i" select="0"/></xsl:call-template>
    </task>
  </xsl:template>

  <!-- Value of the tagged value named $tag on the context action state. -->
  <xsl:template name="tagval">
    <xsl:param name="tag"/>
    <xsl:for-each select="UML:ModelElement.taggedValue/UML:TaggedValue">
      <xsl:variable name="ref" select="UML:TaggedValue.type/UML:TagDefinition/@xmi.idref"/>
      <xsl:if test="key('tagdef', $ref)/@name = $tag">
        <xsl:value-of select="@dataValue"/>
      </xsl:if>
    </xsl:for-each>
  </xsl:template>

  <!-- Comma-joined names of the action states the vertex depends on,
       looking through fork/join/decision/merge pseudostates. -->
  <xsl:template name="deps-of">
    <xsl:param name="vertex"/>
    <xsl:for-each select="key('trans-by-target', $vertex)">
      <xsl:variable name="src" select="UML:Transition.source/UML:StateVertex/@xmi.idref"/>
      <xsl:variable name="srcAction" select="key('action-by-id', $src)"/>
      <xsl:choose>
        <xsl:when test="$srcAction">
          <xsl:value-of select="$srcAction/@name"/>
          <xsl:text>,</xsl:text>
        </xsl:when>
        <xsl:otherwise>
          <xsl:if test="key('pseudo-by-id', $src)[@kind != 'initial']">
            <xsl:call-template name="deps-of">
              <xsl:with-param name="vertex" select="$src"/>
            </xsl:call-template>
          </xsl:if>
        </xsl:otherwise>
      </xsl:choose>
    </xsl:for-each>
  </xsl:template>

  <!-- Emit <param> elements for ptype0/pvalue0, ptype1/pvalue1, ... -->
  <xsl:template name="params">
    <xsl:param name="i"/>
    <xsl:variable name="ty">
      <xsl:call-template name="tagval"><xsl:with-param name="tag" select="concat('ptype', $i)"/></xsl:call-template>
    </xsl:variable>
    <xsl:if test="$ty != ''">
      <xsl:variable name="val">
        <xsl:call-template name="tagval"><xsl:with-param name="tag" select="concat('pvalue', $i)"/></xsl:call-template>
      </xsl:variable>
      <param>
        <xsl:attribute name="type">
          <xsl:choose>
            <xsl:when test="starts-with($ty, 'java.lang.')">
              <xsl:value-of select="substring-after($ty, 'java.lang.')"/>
            </xsl:when>
            <xsl:otherwise><xsl:value-of select="$ty"/></xsl:otherwise>
          </xsl:choose>
        </xsl:attribute>
        <xsl:value-of select="$val"/>
      </param>
      <xsl:call-template name="params">
        <xsl:with-param name="i" select="$i + 1"/>
      </xsl:call-template>
    </xsl:if>
  </xsl:template>
</xsl:stylesheet>
"#;

/// Client-level settings not present in the UML model, passed to the
/// stylesheet as top-level parameters.
#[derive(Debug, Clone, Default)]
pub struct ClientSettings {
    pub class: Option<String>,
    pub port: Option<u16>,
    pub log: Option<String>,
}

impl ClientSettings {
    pub(crate) fn params(&self) -> HashMap<String, Value> {
        let mut params = HashMap::new();
        if let Some(c) = &self.class {
            params.insert("client-class".to_string(), Value::Str(c.clone()));
        }
        if let Some(p) = self.port {
            params.insert("client-port".to_string(), Value::Str(p.to_string()));
        }
        if let Some(l) = &self.log {
            params.insert("client-log".to_string(), Value::Str(l.clone()));
        }
        params
    }
}

/// Run the XSLT path: XMI text → CNX text.
pub fn xmi_to_cnx_xslt(xmi_text: &str, settings: &ClientSettings) -> Result<String, XsltError> {
    let style = compile_cached(XMI2CNX_XSLT)?;
    let doc = cn_xml::parse(xmi_text).map_err(|e| XsltError::new(e.to_string()))?;
    // Guard against non-XMI input: the stylesheet would "succeed" with an
    // empty client, which is never what the caller meant.
    if doc.find(doc.document_node(), "UML:ActivityGraph").is_none() {
        return Err(XsltError::new(
            "input does not look like an XMI activity model (no UML:ActivityGraph element)",
        ));
    }
    let result = cn_xslt::exec::transform_with_params(&style, &doc, &settings.params())?;
    Ok(result.to_output_string())
}

/// The native path: XMI text → model import → structural conversion.
pub fn xmi_to_cnx_native(xmi_text: &str, settings: &ClientSettings) -> Result<CnxDocument, String> {
    let doc = cn_xml::parse(xmi_text).map_err(|e| e.to_string())?;
    let graph = cn_model::import_xmi(&doc).map_err(|e| e.to_string())?;
    Ok(model_to_cnx(&graph, settings))
}

/// Convert an activity graph directly to a CNX descriptor (the structural
/// core both paths implement).
pub fn model_to_cnx(graph: &ActivityGraph, settings: &ClientSettings) -> CnxDocument {
    let mut job = Job::default();
    let deps: Vec<(NodeId, Vec<NodeId>)> = graph.task_dependencies();
    let dep_names = |id: NodeId| -> Vec<String> {
        deps.iter()
            .find(|(n, _)| *n == id)
            .map(|(_, ds)| {
                ds.iter()
                    .filter_map(|d| match &graph.node(*d).kind {
                        cn_model::NodeKind::Action(a) => Some(a.name.clone()),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    for (id, action) in graph.action_states() {
        let mut task = Task::new(
            action.name.clone(),
            action.tags.jar().unwrap_or("").to_string(),
            action.tags.class().unwrap_or("").to_string(),
        );
        task.depends = dep_names(id);
        task.req.memory_mb = action.tags.memory().unwrap_or(1000);
        task.req.runmodel =
            action.tags.runmodel().and_then(|r| r.parse::<RunModel>().ok()).unwrap_or_default();
        for (ty, value) in action.tags.params() {
            task.params.push(Param::new(ParamType::parse(&ty), value));
        }
        if action.dynamic {
            task.multiplicity = action.multiplicity.clone();
        }
        job.tasks.push(task);
    }
    let mut client =
        Client::new(settings.class.clone().unwrap_or_else(|| "GeneratedClient".into()));
    client.port = settings.port;
    client.log = settings.log.clone();
    client.jobs.push(job);
    CnxDocument::new(client)
}

/// Normalize a descriptor for cross-path comparison: the XSLT path emits
/// `depends` in transition document order, the native path in node-id
/// order — semantically identical sets.
pub fn normalized(mut doc: CnxDocument) -> CnxDocument {
    for job in &mut doc.client.jobs {
        for task in &mut job.tasks {
            task.depends.sort();
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_model::{export_xmi, transitive_closure_dynamic_model, transitive_closure_model};
    use cn_xml::WriteOptions;

    fn settings() -> ClientSettings {
        ClientSettings {
            class: Some("TransClosure".into()),
            port: Some(5666),
            log: Some("CN_Client1047909210005.log".into()),
        }
    }

    fn xmi_text(workers: usize) -> String {
        cn_xml::write_document(
            &export_xmi(&transitive_closure_model(workers)),
            &WriteOptions::xmi(),
        )
    }

    #[test]
    fn xslt_path_produces_valid_cnx() {
        let cnx_text = xmi_to_cnx_xslt(&xmi_text(3), &settings()).unwrap();
        let doc = cn_cnx::parse_cnx(&cnx_text).unwrap();
        cn_cnx::validate(&doc).unwrap();
        assert_eq!(doc.client.class, "TransClosure");
        assert_eq!(doc.client.port, Some(5666));
        assert_eq!(doc.task_count(), 5);
    }

    #[test]
    fn xslt_resolves_tagged_values_via_idrefs() {
        let cnx_text = xmi_to_cnx_xslt(&xmi_text(2), &settings()).unwrap();
        let doc = cn_cnx::parse_cnx(&cnx_text).unwrap();
        let job = &doc.client.jobs[0];
        let worker = job.task("TCTask2").unwrap();
        assert_eq!(worker.jar, "tctask.jar");
        assert_eq!(worker.class, "org.jhpc.cn2.trnsclsrtask.TCTask");
        assert_eq!(worker.req.memory_mb, 1000);
        assert_eq!(worker.req.runmodel, RunModel::RunAsThreadInTm);
        assert_eq!(worker.params, vec![Param::new(ParamType::Integer, "2")]);
    }

    #[test]
    fn xslt_reconstructs_dependencies_through_fork_join() {
        let cnx_text = xmi_to_cnx_xslt(&xmi_text(3), &settings()).unwrap();
        let doc = cn_cnx::parse_cnx(&cnx_text).unwrap();
        let job = &doc.client.jobs[0];
        assert!(job.task("TaskSplit").unwrap().depends.is_empty());
        for i in 1..=3 {
            assert_eq!(job.task(&format!("TCTask{i}")).unwrap().depends, vec!["TaskSplit"]);
        }
        let mut join_deps = job.task("TCJoin").unwrap().depends.clone();
        join_deps.sort();
        assert_eq!(join_deps, vec!["TCTask1", "TCTask2", "TCTask3"]);
    }

    #[test]
    fn xslt_and_native_paths_agree() {
        for workers in [1, 2, 5] {
            let xmi = xmi_text(workers);
            let via_xslt = cn_cnx::parse_cnx(&xmi_to_cnx_xslt(&xmi, &settings()).unwrap()).unwrap();
            let via_native = xmi_to_cnx_native(&xmi, &settings()).unwrap();
            assert_eq!(
                normalized(via_xslt),
                normalized(via_native),
                "paths diverge at {workers} workers"
            );
        }
    }

    #[test]
    fn dynamic_multiplicity_survives_both_paths() {
        let xmi = cn_xml::write_document(
            &export_xmi(&transitive_closure_dynamic_model()),
            &WriteOptions::xmi(),
        );
        let via_xslt = cn_cnx::parse_cnx(&xmi_to_cnx_xslt(&xmi, &settings()).unwrap()).unwrap();
        let via_native = xmi_to_cnx_native(&xmi, &settings()).unwrap();
        let t = via_xslt.client.jobs[0].task("TCTask").unwrap();
        assert_eq!(t.multiplicity.as_deref(), Some("*"));
        assert_eq!(normalized(via_xslt.clone()), normalized(via_native));
    }

    #[test]
    fn non_xmi_input_is_rejected() {
        let cnx = cn_cnx::write_cnx(&cn_cnx::ast::figure2_descriptor(2));
        let err = xmi_to_cnx_xslt(&cnx, &ClientSettings::default()).unwrap_err();
        assert!(err.msg.contains("UML:ActivityGraph"), "{err}");
    }

    #[test]
    fn defaults_apply_without_settings() {
        let cnx_text = xmi_to_cnx_xslt(&xmi_text(1), &ClientSettings::default()).unwrap();
        let doc = cn_cnx::parse_cnx(&cnx_text).unwrap();
        assert_eq!(doc.client.class, "GeneratedClient");
        assert_eq!(doc.client.port, None);
        assert_eq!(doc.client.log, None);
    }

    #[test]
    fn java_type_names_shortened() {
        let cnx_text = xmi_to_cnx_xslt(&xmi_text(1), &settings()).unwrap();
        assert!(cnx_text.contains(r#"type="Integer""#), "{cnx_text}");
        assert!(cnx_text.contains(r#"type="String""#));
        assert!(!cnx_text.contains("java.lang."));
    }
}
