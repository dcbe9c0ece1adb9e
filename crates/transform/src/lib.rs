//! The model-driven, generative tool chain (paper Section 5, Figure 6).
//!
//! 1. The UML model for the CN computation is created (an activity diagram,
//!    [`cn_model`]).
//! 2. The model is exported as an XMI document.
//! 3. The XMI document is transformed, **using XSLT**, to a CNX client
//!    descriptor — [`xmi2cnx`], executed by our own [`cn_xslt`] engine, with
//!    a native Rust transform differential-tested against it.
//! 4. The CNX descriptor is transformed, using XSLT, to a client program in
//!    the target language — [`cnx2rust`] (a Rust client that runs) and
//!    [`cnx2java`] (paper-faithful Java text).
//! 5. The client program is deployed to a CN server along with the archives.
//! 6. The client computation is executed by the CN server.
//!
//! [`pipeline`] wires all six steps end-to-end against the simulated
//! cluster.

pub mod batch;
pub mod cnx2java;
pub mod cnx2model;
pub mod cnx2rust;
pub use figures::{figure2_model, figure2_settings};
pub mod figures;
pub mod pipeline;
pub mod roundtrip;
pub mod xmi2cnx;

pub use batch::BatchTransformer;
pub use cnx2model::cnx_to_models;
pub use pipeline::{Pipeline, PipelineOptions, PipelineRun, StageTiming};
pub use roundtrip::{cnx_roundtrip_drift, model_roundtrip_drift, Drift};
pub use xmi2cnx::{model_to_cnx, xmi_to_cnx_native, xmi_to_cnx_xslt, XMI2CNX_XSLT};

/// Apply a `method="text"` stylesheet (CNX2Rust, CNX2Java) to CNX text.
fn apply_text_stylesheet(stylesheet: &str, cnx_text: &str) -> Result<String, cn_xslt::XsltError> {
    let style = cn_xslt::compile_cached(stylesheet)?;
    let doc = cn_xml::parse(cnx_text).map_err(|e| cn_xslt::XsltError::new(e.to_string()))?;
    Ok(cn_xslt::transform(&style, &doc)?.to_output_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stylesheet_constant_parses() {
        cn_xslt::Stylesheet::parse(XMI2CNX_XSLT).expect("XMI2CNX stylesheet must compile");
        cn_xslt::Stylesheet::parse(cnx2java::CNX2JAVA_XSLT)
            .expect("CNX2Java stylesheet must compile");
        cn_xslt::Stylesheet::parse(cnx2rust::CNX2RUST_XSLT)
            .expect("CNX2Rust stylesheet must compile");
    }

    #[test]
    fn both_backends_generate_nonempty_programs() {
        let doc = cn_cnx::write_cnx(&cn_cnx::ast::figure2_descriptor(3));
        let rust = cnx2rust::cnx_to_rust_xslt(&doc).unwrap();
        let java = cnx2java::cnx_to_java_xslt(&doc).unwrap();
        assert!(rust.contains("fn main"));
        assert!(java.contains("public static void main"));
    }
}

/// The layout both stylesheets give their output.
#[cfg(test)]
mod emit {
    /// Blocks indent by four: a line ending in `{` opens a block whose
    /// first line is four deeper, nothing inside it is shallower, and the
    /// `}` that closes it is level with the opening line.
    fn check_block_indentation(src: &str) -> Result<(), String> {
        let mut open: Vec<usize> = Vec::new();
        let mut first_in_block = false;
        for (n, line) in src.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let indent = line.len() - line.trim_start().len();
            let body = line.trim();
            let outer = open.last().copied();
            if body.starts_with('}') {
                if open.pop() != Some(indent) {
                    return Err(format!("line {}: `}}` not level with its block", n + 1));
                }
            } else if let Some(outer) = outer {
                if indent < outer + 4 || (first_in_block && indent != outer + 4) {
                    return Err(format!("line {}: indented {indent} in a block at {outer}", n + 1));
                }
            }
            first_in_block = body.ends_with('{');
            if first_in_block {
                open.push(indent);
            }
        }
        if open.is_empty() {
            Ok(())
        } else {
            Err(format!("{} block(s) left open", open.len()))
        }
    }

    mod tests {
        use super::*;
        use crate::{cnx2java, cnx2rust};

        #[test]
        fn emitter_indents_blocks() {
            let nested = "fn main() {\n    let x = 1;\n    if x > 0 {\n        println!(\"hi\");\n    }\n}\n";
            assert_eq!(check_block_indentation(nested), Ok(()));
            assert!(check_block_indentation("fn main() {\n  let x = 1;\n}\n").is_err());
            assert!(check_block_indentation("fn main() {\n    let x = 1;\n  }\n").is_err());
            let cnx = cn_cnx::write_cnx(&cn_cnx::ast::figure2_descriptor(3));
            for src in [
                cnx2rust::cnx_to_rust_xslt(&cnx).unwrap(),
                cnx2java::cnx_to_java_xslt(&cnx).unwrap(),
            ] {
                assert_eq!(check_block_indentation(&src), Ok(()), "{src}");
            }
        }
    }
}

/// The Java client CNX2Java writes, held to what the native Java backend's
/// tests asked of its output.
#[cfg(test)]
mod java_client {
    fn generate_java_client(doc: &cn_cnx::CnxDocument) -> String {
        crate::cnx2java::cnx_to_java_xslt(&cn_cnx::write_cnx(doc)).expect("CNX2Java")
    }

    mod tests {
        use super::*;
        use cn_cnx::ast::figure2_descriptor;

        #[test]
        fn figure2_java_mentions_classes_and_jars() {
            let src = generate_java_client(&figure2_descriptor(5));
            assert!(src.contains("public class TransClosure"));
            assert!(src.contains("\"org.jhpc.cn2.transcloser.TaskSplit\""));
            assert!(src.contains("\"tctask.jar\""));
            assert!(src.contains("setRunModel(RunModel.RUN_AS_THREAD_IN_TM)"));
            assert!(src.contains("cn.setClientPort(5666);"));
        }

        #[test]
        fn dependencies_emitted() {
            let src = generate_java_client(&figure2_descriptor(2));
            assert!(src.contains("tctask999.addDependency(\"tctask1\");"));
            assert!(src.contains("tctask999.addDependency(\"tctask2\");"));
        }

        #[test]
        fn parameters_use_java_type_names() {
            let src = generate_java_client(&figure2_descriptor(1));
            assert!(src.contains("addParameter(\"java.lang.Integer\", \"1\")"));
            assert!(src.contains("addParameter(\"java.lang.String\", \"matrix.txt\")"));
        }

        #[test]
        fn braces_balanced() {
            let src = generate_java_client(&figure2_descriptor(3));
            assert_eq!(src.matches('{').count(), src.matches('}').count());
        }
    }
}

/// The Rust client CNX2Rust writes, held to what the native Rust backend's
/// tests asked of its output. `tests/generated_client.rs` runs it.
#[cfg(test)]
mod rust_client {
    fn generate_rust_client(doc: &cn_cnx::CnxDocument) -> String {
        crate::cnx2rust::cnx_to_rust_xslt(&cn_cnx::write_cnx(doc)).expect("CNX2Rust")
    }

    mod tests {
        use super::*;
        use cn_cnx::ast::figure2_descriptor;

        #[test]
        fn figure2_client_has_api_sequence() {
            let src = generate_rust_client(&figure2_descriptor(5));
            // The paper's CN API capabilities, in order: `main` initializes
            // the API and hands it to `run`, which drives each job.
            let (run, main) = src.split_once("fn main()").expect("main");
            let init = main.find("CnApi::initialize").expect("initialize");
            assert!(init < main.find("run(&api").expect("run the client"));
            let create_job = run.find("api.create_job").expect("create job");
            let create_tasks = run.find(".add_tasks(tasks)").expect("create tasks");
            let seed = run.find("job.seed(").expect("seed input");
            let start = run.find("job.start()").expect("start");
            let wait = run.find("job.wait(").expect("collect messages");
            assert!(create_job < create_tasks && create_tasks < seed);
            assert!(seed < start && start < wait);
        }

        #[test]
        fn figure2_client_mentions_every_task() {
            let src = generate_rust_client(&figure2_descriptor(5));
            for name in ["tctask0", "tctask1", "tctask5", "tctask999"] {
                assert!(src.contains(&format!("\"{name}\"")), "{name} missing");
            }
            assert!(src.contains("\"tasksplit.jar\""));
            assert!(src.contains("\"org.jhpc.cn2.trnsclsrtask.TCTask\""));
        }

        #[test]
        fn dependencies_and_params_emitted() {
            let src = generate_rust_client(&figure2_descriptor(2));
            assert!(src.contains(
                "    t.depends.push(\"tctask1\".into());\n    t.depends.push(\"tctask2\".into());\n"
            ));
            assert!(src.contains("cn_cnx::ParamType::parse(\"Integer\"), \"2\")"));
            assert!(src.contains("cn_cnx::ParamType::parse(\"String\"), \"matrix.txt\")"));
            assert!(src.contains(".memory_mb = 1000;"));
        }

        #[test]
        fn output_is_deterministic() {
            let doc = figure2_descriptor(3);
            assert_eq!(generate_rust_client(&doc), generate_rust_client(&doc));
        }

        #[test]
        fn generated_code_is_brace_balanced() {
            let src = generate_rust_client(&figure2_descriptor(4));
            let opens = src.matches('{').count();
            let closes = src.matches('}').count();
            assert_eq!(opens, closes, "unbalanced braces:\n{src}");
        }
    }
}
