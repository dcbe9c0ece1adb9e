//! Template-rule dispatch index.
//!
//! `apply-templates` resolves a rule by testing every match template against
//! every node — fine for three templates, quadratic pain for generated
//! stylesheets. This index buckets match templates by the name of the
//! pattern's *rightmost step* (an interned [`Atom`]), and the `/` rules
//! under no name, so dispatch for a node named `n` only considers the `n`
//! bucket, and a nameless node (document, text) only the `/` bucket.
//!
//! Invariants (checked by the differential property test
//! `exec::tests::dispatch::indexed_dispatch_matches_linear_scan`):
//!
//! * A pattern whose rightmost step is the name `q` can only match elements
//!   named exactly `q`, and `/` only the document node, so every template
//!   lands in the one bucket of the nodes it can match.
//! * Buckets store template indices in declaration order, so XSLT conflict
//!   resolution (priority, then declaration order) sees candidates exactly
//!   as the linear scan would.

use std::collections::HashMap;

use cn_xml::Atom;

use crate::stylesheet::Stylesheet;

/// Name-keyed dispatch index over a stylesheet's match templates.
#[derive(Debug, Clone, Default)]
pub struct DispatchIndex {
    /// Template indices by the atom of the pattern's rightmost name; `None`
    /// holds the `/` rules.
    by_atom: HashMap<Option<Atom>, Vec<usize>>,
}

impl DispatchIndex {
    /// Build the index for `style`. Cheap: one pass over the templates.
    pub fn build(style: &Stylesheet) -> DispatchIndex {
        let mut ix = DispatchIndex::default();
        for (i, t) in style.templates.iter().enumerate() {
            if let Some(pattern) = &t.pattern {
                let atom = pattern.steps.last().map(|q| q.atom());
                ix.by_atom.entry(atom).or_default().push(i);
            }
        }
        ix
    }

    /// Candidate template indices for a node whose name has `atom` (`None`
    /// for nameless nodes: document, text, comment, PI), in declaration
    /// order.
    pub fn candidates(&self, atom: Option<Atom>) -> &[usize] {
        self.by_atom.get(&atom).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_xpath::ErrorCode;

    const NS: &str = r#"xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0""#;

    fn style(src: &str) -> Result<Stylesheet, crate::XsltError> {
        Stylesheet::parse(&format!(r#"<xsl:stylesheet {NS}>{src}</xsl:stylesheet>"#))
    }

    fn atom_of(name: &str) -> Atom {
        cn_xml::QName::new(name).atom()
    }

    #[test]
    fn name_patterns_bucket_by_rightmost_step() {
        let s = style(
            r#"<xsl:template match="/"/>
               <xsl:template match="job/task"/>
               <xsl:template match="task"/>
               <xsl:template name="helper"/>
               <xsl:template match="job"/>"#,
        )
        .unwrap();
        let ix = DispatchIndex::build(&s);
        // A task node sees both task rules, in declaration order.
        assert_eq!(ix.candidates(Some(atom_of("task"))), [1, 2]);
        assert_eq!(ix.candidates(Some(atom_of("job"))), [4]);
        // An unrelated element sees none; nameless nodes see the "/" rule.
        assert!(ix.candidates(Some(atom_of("zzz"))).is_empty());
        assert_eq!(ix.candidates(None), [0]);
    }

    #[test]
    fn union_alternatives_register_everywhere_they_can_match() {
        // A union pattern is refused, so each rule has one bucket.
        let err = style(r#"<xsl:template match="a | b"/>"#).unwrap_err();
        assert_eq!(err.code(), ErrorCode::XPST0003);
    }

    #[test]
    fn modes_are_disjoint() {
        // There is one mode: a `mode=` is refused rather than ignored.
        let err = style(r#"<xsl:template match="t" mode="alt"/>"#).unwrap_err();
        assert_eq!(err.code(), ErrorCode::XTSE0090);
        let err = style(
            r#"<xsl:template match="/"><xsl:apply-templates select="t" mode="alt"/></xsl:template>"#,
        )
        .unwrap_err();
        assert_eq!(err.code(), ErrorCode::XTSE0090);
    }
}
