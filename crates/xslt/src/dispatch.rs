//! Per-mode template-rule dispatch index.
//!
//! `apply-templates` resolves a rule by testing every match template against
//! every node — fine for three templates, quadratic pain for generated
//! stylesheets. This index buckets match templates by the *rightmost step's*
//! element/attribute name (an interned [`Atom`]), so dispatch for a node
//! named `n` only considers the `n` bucket plus the templates whose rightmost
//! test is not a plain name (`*`, `prefix:*`, `text()`, `node()`,
//! `comment()`, or the bare `/`).
//!
//! Invariants (checked by the differential property test
//! `exec::tests::dispatch::indexed_dispatch_matches_linear_scan`):
//!
//! * A template alternative whose rightmost step test is `Name(q)` can only
//!   match nodes whose name is exactly `q`, so omitting it from other
//!   buckets never loses a match.
//! * Every other alternative shape can match nodes of any (or no) name and
//!   lands in the catch-all bucket consulted for every node.
//! * Buckets store template indices in declaration order and the candidate
//!   iterator merges them in order, so XSLT conflict resolution (priority,
//!   then declaration order) sees candidates exactly as the linear scan
//!   would.

use std::collections::HashMap;

use cn_xml::Atom;
use cn_xpath::ast::NodeTest;

use crate::stylesheet::Stylesheet;

/// Dispatch buckets for one mode.
#[derive(Debug, Clone, Default)]
struct ModeIndex {
    /// Template indices whose pattern names the matched node exactly.
    by_atom: HashMap<Atom, Vec<usize>>,
    /// Template indices that must be considered for every node.
    other: Vec<usize>,
}

/// Name-keyed dispatch index over a stylesheet's match templates.
#[derive(Debug, Clone, Default)]
pub struct DispatchIndex {
    no_mode: ModeIndex,
    modes: HashMap<String, ModeIndex>,
}

impl DispatchIndex {
    /// Build the index for `style`. Cheap: one pass over the templates.
    pub fn build(style: &Stylesheet) -> DispatchIndex {
        let mut ix = DispatchIndex::default();
        for (i, t) in style.templates.iter().enumerate() {
            let Some(pattern) = &t.pattern else { continue };
            let mode_ix = match &t.mode {
                None => &mut ix.no_mode,
                Some(m) => ix.modes.entry(m.clone()).or_default(),
            };
            for alt in &pattern.alternatives {
                match alt.steps.last().map(|s| &s.test) {
                    Some(NodeTest::Name(q)) => {
                        let bucket = mode_ix.by_atom.entry(q.atom()).or_default();
                        if bucket.last() != Some(&i) {
                            bucket.push(i);
                        }
                    }
                    // Wildcards, prefix:*, text()/node()/comment(), and the
                    // bare "/" (no steps) can match nodes of any — or no —
                    // name: candidates for every node.
                    _ => {
                        if mode_ix.other.last() != Some(&i) {
                            mode_ix.other.push(i);
                        }
                    }
                }
            }
        }
        ix
    }

    fn mode_index(&self, mode: Option<&str>) -> Option<&ModeIndex> {
        match mode {
            None => Some(&self.no_mode),
            Some(m) => self.modes.get(m),
        }
    }

    /// Candidate template indices for a node whose name has `atom` (`None`
    /// for nameless nodes: document, text, comment, PI), in declaration
    /// order, duplicates merged. Allocation-free.
    pub fn candidates(&self, mode: Option<&str>, atom: Option<Atom>) -> Candidates<'_> {
        match self.mode_index(mode) {
            None => Candidates { named: &[], other: &[] },
            Some(m) => Candidates {
                named: atom.and_then(|a| m.by_atom.get(&a)).map(|v| v.as_slice()).unwrap_or(&[]),
                other: &m.other,
            },
        }
    }
}

/// Ordered merge of the name bucket and the catch-all bucket.
pub struct Candidates<'i> {
    named: &'i [usize],
    other: &'i [usize],
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match (self.named.first(), self.other.first()) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    self.named = &self.named[1..];
                    if x == y {
                        self.other = &self.other[1..];
                    }
                    Some(x)
                } else {
                    self.other = &self.other[1..];
                    Some(y)
                }
            }
            (Some(&x), None) => {
                self.named = &self.named[1..];
                Some(x)
            }
            (None, Some(&y)) => {
                self.other = &self.other[1..];
                Some(y)
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn style(src: &str) -> Stylesheet {
        Stylesheet::parse(&format!(
            r#"<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">{src}</xsl:stylesheet>"#
        ))
        .unwrap()
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
               <xsl:template match="*"/>"#,
        );
        let ix = DispatchIndex::build(&s);
        // A task node sees both task rules plus the wildcard and "/".
        let c: Vec<usize> = ix.candidates(None, Some(atom_of("task"))).collect();
        assert_eq!(c, vec![0, 1, 2, 3]);
        // An unrelated element only sees the catch-alls.
        let c: Vec<usize> = ix.candidates(None, Some(atom_of("job"))).collect();
        assert_eq!(c, vec![0, 3]);
        // Nameless nodes (document/text) see the catch-alls only.
        let c: Vec<usize> = ix.candidates(None, None).collect();
        assert_eq!(c, vec![0, 3]);
    }

    #[test]
    fn union_alternatives_register_everywhere_they_can_match() {
        let s = style(r#"<xsl:template match="a | text() | b"/>"#);
        let ix = DispatchIndex::build(&s);
        assert_eq!(ix.candidates(None, Some(atom_of("a"))).collect::<Vec<_>>(), vec![0]);
        assert_eq!(ix.candidates(None, Some(atom_of("b"))).collect::<Vec<_>>(), vec![0]);
        // text() lands in the catch-all, and the merge dedupes the index.
        assert_eq!(ix.candidates(None, None).collect::<Vec<_>>(), vec![0]);
        assert_eq!(ix.candidates(None, Some(atom_of("zzz"))).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn modes_are_disjoint() {
        let s = style(
            r#"<xsl:template match="t"/>
               <xsl:template match="t" mode="alt"/>"#,
        );
        let ix = DispatchIndex::build(&s);
        assert_eq!(ix.candidates(None, Some(atom_of("t"))).collect::<Vec<_>>(), vec![0]);
        assert_eq!(ix.candidates(Some("alt"), Some(atom_of("t"))).collect::<Vec<_>>(), vec![1]);
        assert!(ix.candidates(Some("missing"), Some(atom_of("t"))).next().is_none());
    }
}
