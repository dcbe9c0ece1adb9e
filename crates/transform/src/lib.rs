//! The model-driven, generative tool chain (paper Section 5, Figure 6).
//!
//! 1. The UML model for the CN computation is created (an activity diagram,
//!    [`cn_model`]).
//! 2. The model is exported as an XMI document.
//! 3. The XMI document is transformed, **using XSLT**, to a CNX client
//!    descriptor — [`xmi2cnx`], executed by our own [`cn_xslt`] engine, with
//!    a native Rust transform differential-tested against it.
//! 4. The CNX descriptor is transformed, using XSLT, to a client program in
//!    the target language — [`cnx2java`] (paper-faithful Java text) and the
//!    native Rust backend from [`cn_codegen`].
//! 5. The client program is deployed to a CN server along with the archives.
//! 6. The client computation is executed by the CN server.
//!
//! [`pipeline`] wires all six steps end-to-end against the simulated
//! cluster.

pub mod batch;
pub mod cnx2java;
pub mod cnx2model;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stylesheet_constant_parses() {
        cn_xslt::Stylesheet::parse(XMI2CNX_XSLT).expect("XMI2CNX stylesheet must compile");
        cn_xslt::Stylesheet::parse(xmi2cnx::XMI2CNX_XSLT_NOKEYS)
            .expect("keyless XMI2CNX stylesheet must compile");
        cn_xslt::Stylesheet::parse(cnx2java::CNX2JAVA_XSLT)
            .expect("CNX2Java stylesheet must compile");
    }
}
