//! The six-step pipeline of paper Figure 6: model → XMI → (XSLT) → CNX →
//! (XSLT) → client program → deploy → execute.

use std::time::{Duration, Instant};

use cn_cnx::CnxDocument;
use cn_core::{ClientError, DynamicArgs, JobHandle, JobReport, Neighborhood};
use cn_model::ActivityGraph;
use cn_xml::WriteOptions;

use crate::cnx2java::cnx_to_java_xslt;
use crate::cnx2rust::cnx_to_rust_xslt;
use crate::xmi2cnx::{xmi_to_cnx_xslt, ClientSettings};

/// Per-stage wall-clock timing.
#[derive(Debug, Clone)]
pub struct StageTiming {
    pub stage: &'static str,
    pub elapsed: Duration,
}

/// Everything a pipeline run produces.
#[derive(Debug)]
pub struct PipelineRun {
    /// Stage 2 artifact: the exported XMI document text.
    pub xmi_text: String,
    /// Stage 3 artifact: the CNX client descriptor text (via XSLT).
    pub cnx_text: String,
    /// Parsed + validated descriptor.
    pub descriptor: CnxDocument,
    /// Stage 4 artifacts: generated client programs.
    pub rust_source: String,
    pub java_source: String,
    /// Stage 6 results (one per job), present when execution was requested.
    pub reports: Vec<JobReport>,
    pub timings: Vec<StageTiming>,
}

impl PipelineRun {
    pub fn timing(&self, stage: &str) -> Option<Duration> {
        self.timings.iter().find(|t| t.stage == stage).map(|t| t.elapsed)
    }
}

/// Pipeline configuration.
pub struct PipelineOptions {
    pub settings: ClientSettings,
    /// Run-time argument lists for dynamic tasks (Figure 5).
    pub dynamic: DynamicArgs,
    /// Job execution timeout.
    pub timeout: Duration,
    /// Seeding hook run between task creation and start (the generated
    /// client's input setup — e.g. depositing `matrix.txt`). An error
    /// cancels the job and fails the `execute` stage.
    #[allow(clippy::type_complexity)]
    pub seed: Option<Box<dyn FnMut(&mut JobHandle) -> Result<(), ClientError>>>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            settings: ClientSettings::default(),
            dynamic: DynamicArgs::new(),
            timeout: Duration::from_secs(60),
            seed: None,
        }
    }
}

/// The Figure 6 pipeline, bound to a deployed neighborhood.
pub struct Pipeline<'n> {
    neighborhood: &'n Neighborhood,
}

impl<'n> Pipeline<'n> {
    pub fn new(neighborhood: &'n Neighborhood) -> Self {
        Pipeline { neighborhood }
    }

    /// Run all six steps for `model`. Fails fast on validation or
    /// transformation problems at any stage.
    ///
    /// When the neighborhood carries an enabled [`cn_observe::Recorder`], a
    /// `pipeline` span with one `stage` child per step is recorded; the
    /// `execute` stage nests the job/task spans the runtime emits.
    pub fn run(
        &self,
        model: &ActivityGraph,
        options: PipelineOptions,
    ) -> Result<PipelineRun, String> {
        let rec = self.neighborhood.recorder().clone();
        let root = rec.span_start("pipeline", "pipeline", None);
        let result = self.run_stages(model, options, &rec, root);
        rec.span_end(root);
        result
    }

    fn run_stages(
        &self,
        model: &ActivityGraph,
        mut options: PipelineOptions,
        rec: &cn_observe::Recorder,
        root: Option<cn_observe::SpanId>,
    ) -> Result<PipelineRun, String> {
        let mut timings = Vec::new();
        // Each step gets a wall-clock timing entry and (when recording) a
        // `stage` span; the span closes even when the step errors out.
        macro_rules! staged {
            ($name:literal, $body:expr) => {{
                let t = Instant::now();
                let span = rec.span_start("stage", $name, root);
                let out = $body;
                rec.span_end(span);
                timings.push(StageTiming { stage: $name, elapsed: t.elapsed() });
                out
            }};
        }

        // Step 1: the model itself (validate it).
        staged!("validate-model", cn_model::validate(model))
            .map_err(|e| format!("model validation: {e}"))?;

        // Step 2: export as XMI.
        let xmi_text = staged!("export-xmi", {
            let xmi_doc = cn_model::export_xmi(model);
            cn_xml::write_document(&xmi_doc, &WriteOptions::xmi())
        });

        // Step 3: XMI → CNX via XSLT.
        let cnx_text = staged!("xmi2cnx-xslt", xmi_to_cnx_xslt(&xmi_text, &options.settings))
            .map_err(|e| format!("XMI2CNX: {e}"))?;

        // Dynamic tasks carry multiplicity that only expands at execution;
        // validate the expanded form below, but check the static shape now.
        let descriptor = staged!("validate-cnx", {
            cn_cnx::parse_cnx(&cnx_text).map_err(|e| format!("CNX parse: {e}")).and_then(|d| {
                cn_cnx::validate(&d).map_err(|e| format!("CNX validation: {e}"))?;
                Ok(d)
            })
        })?;

        // Step 4: CNX → client programs, both via XSLT.
        let (rust_source, java_source) = staged!("codegen", {
            cnx_to_rust_xslt(&cnx_text).map_err(|e| format!("CNX2Rust: {e}")).and_then(|rust| {
                let java = cnx_to_java_xslt(&cnx_text).map_err(|e| format!("CNX2Java: {e}"))?;
                Ok((rust, java))
            })
        })?;

        // Steps 5+6: deploy to the CN servers and execute. The generated
        // client's call sequence is executed through the interpreted path
        // (identical API calls; see cn_core::exec).
        let mut seed = options.seed.take();
        let reports = staged!("execute", {
            cn_core::execute_descriptor_seeded(
                self.neighborhood,
                &descriptor,
                &options.dynamic,
                options.timeout,
                |job| seed.as_mut().map_or(Ok(()), |hook| hook(job)),
            )
        })
        .map_err(|e| format!("execution: {e}"))?;

        Ok(PipelineRun {
            xmi_text,
            cnx_text,
            descriptor,
            rust_source,
            java_source,
            reports,
            timings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{figure2_model, figure2_settings};
    use cn_cluster::NodeSpec;
    use cn_tasks::{floyd_sequential, random_digraph, seed_input, Matrix};

    fn tc_options(input: Matrix, workers: usize) -> PipelineOptions {
        let worker_names: Vec<String> = (1..=workers).map(|i| format!("tctask{i}")).collect();
        PipelineOptions {
            settings: figure2_settings(),
            dynamic: DynamicArgs::new(),
            timeout: Duration::from_secs(60),
            seed: Some(Box::new(move |job| {
                seed_input(job, "matrix.txt", &input, &worker_names, "tctask999")
            })),
        }
    }

    #[test]
    fn full_pipeline_model_to_results() {
        let nb = Neighborhood::deploy(NodeSpec::fleet(3, 8000, 16));
        cn_tasks::publish_all_archives(nb.registry());
        let model = figure2_model(4);
        let input = random_digraph(16, 0.25, 1..9, 21);
        let run = Pipeline::new(&nb).run(&model, tc_options(input.clone(), 4)).unwrap();

        // Stage artifacts all present.
        assert!(run.xmi_text.contains("UML:ActionState"));
        assert!(run.cnx_text.contains("<cn2>"));
        assert!(run.rust_source.contains("fn main"));
        assert!(run.java_source.contains("public class TransClosure"));
        assert_eq!(run.timings.len(), 6);
        assert!(run.timing("execute").is_some());

        // Stage 6: the executed job computed the right answer.
        let result = Matrix::from_userdata(run.reports[0].result("tctask999").unwrap()).unwrap();
        assert_eq!(result, floyd_sequential(&input));
        nb.shutdown();
    }

    #[test]
    fn pipeline_rejects_invalid_models() {
        let nb = Neighborhood::deploy(NodeSpec::fleet(1, 1000, 2));
        let model = cn_model::ActivityGraph::new("empty");
        let err = Pipeline::new(&nb).run(&model, PipelineOptions::default()).unwrap_err();
        assert!(err.contains("model validation"), "{err}");
        nb.shutdown();
    }
}
