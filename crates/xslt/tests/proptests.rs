//! Differential property tests for the transform fast paths.
//!
//! The indexed template dispatch ([`cn_xslt::DispatchIndex`]) and the
//! compiled-stylesheet cache ([`cn_xslt::compile_cached`]) are pure
//! optimizations: for every document they must produce byte-identical output
//! to the unindexed linear scan and to a fresh compile. The first property
//! is `src/exec.rs`'s unit test `indexed_dispatch_matches_linear_scan`,
//! since the linear scan is reachable only from the crate's own tests.
//! These tests generate arbitrary small documents over a vocabulary the
//! stylesheet knows (plus names it does not) and compare the fast path
//! against the reference path.

use proptest::prelude::*;

use cn_xslt::{transform, Stylesheet};

const NS: &str = r#"xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0""#;

include!("common/dispatch_fixture.rs");

fn run(style: &Stylesheet, doc: &cn_xml::Document) -> String {
    transform(style, doc).expect("transform succeeds").to_output_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cache-compiled stylesheet behaves exactly like a freshly parsed one
    /// — including its pre-warmed dispatch index — on arbitrary documents.
    #[test]
    fn compile_cached_matches_fresh_compile(script in proptest::collection::vec(any::<u8>(), 0..48)) {
        let src = style_src();
        let cached = cn_xslt::compile_cached(&src).expect("cached compile");
        let fresh = Stylesheet::parse(&src).expect("fresh compile");
        let doc = cn_xml::parse(&build_doc(&script)).expect("generated doc parses");
        prop_assert_eq!(run(&cached, &doc), run(&fresh, &doc));
    }
}
