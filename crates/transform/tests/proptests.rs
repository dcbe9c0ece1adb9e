//! Differential property test for the batch transformer.
//!
//! [`cn_transform::BatchTransformer`] fans documents across a worker pool;
//! its contract is that the batch result is *exactly* what N sequential
//! [`cn_transform::xmi_to_cnx_xslt`] calls would produce, slot for slot, in
//! input order — including which slots fail and with what error. The test
//! generates arbitrary mixes of valid Figure-2 models (varying worker
//! counts) and malformed inputs, shuffled by the generated script, and runs
//! them at an arbitrary pool width.

use proptest::prelude::*;

use cn_transform::{figure2_model, figure2_settings, xmi_to_cnx_xslt, BatchTransformer};
use cn_xml::WriteOptions;

/// One input per script byte: mostly valid XMI exports of differently sized
/// models, with malformed and non-XMI documents mixed in.
fn build_inputs(script: &[u8]) -> Vec<String> {
    script
        .iter()
        .map(|&b| match b % 5 {
            4 => {
                if b % 2 == 0 {
                    "<notxmi/>".to_string()
                } else {
                    "<broken".to_string()
                }
            }
            _ => cn_xml::write_document(
                &cn_model::export_xmi(&figure2_model(2 + (b as usize % 4))),
                &WriteOptions::xmi(),
            ),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batch_equals_sequential_transforms_in_order(
        script in proptest::collection::vec(any::<u8>(), 0..10),
        workers in 1usize..6,
    ) {
        let inputs = build_inputs(&script);
        let settings = figure2_settings();
        let batch = BatchTransformer::xmi2cnx(workers).expect("stylesheet compiles");
        let got = batch.run_with_settings(&inputs, &settings);
        prop_assert_eq!(got.len(), inputs.len());
        for (input, slot) in inputs.iter().zip(&got) {
            match (xmi_to_cnx_xslt(input, &settings), slot) {
                (Ok(want), Ok(have)) => prop_assert_eq!(&want, have),
                (Err(want), Err(have)) => {
                    prop_assert_eq!(want.to_string(), have.to_string())
                }
                (want, have) => {
                    return Err(TestCaseError::fail(format!(
                        "sequential {want:?} vs batch {have:?}"
                    )))
                }
            }
        }
    }
}
