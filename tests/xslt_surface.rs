//! The XSLT/XPath surface the product runs, counted rather than assumed.
//!
//! The tool chain runs three stylesheets: XMI2CNX, CNX2Java and CNX2Rust.
//! `cn-xslt` and `cn-xpath` run what they use and refuse the rest when a
//! stylesheet compiles. This test walks the three compiled stylesheets and
//! writes one row per declaration, instruction, expression form, function,
//! operator, axis, node test and pattern shape they hold to
//! `tests/golden/xslt_surface.txt`: kind, name, and the count in XMI2CNX,
//! CNX2Java and CNX2Rust, tab-separated. The walker matches every enum of
//! the compiled form exhaustively, so a variant added to the engine does not
//! compile until it is counted here. After an intended change regenerate
//! with:
//!
//! ```text
//! REGENERATE_GOLDEN=1 cargo test --test xslt_surface
//! ```

use std::collections::BTreeMap;
use std::path::Path;

use computational_neighborhood::transform::cnx2java::CNX2JAVA_XSLT;
use computational_neighborhood::transform::cnx2rust::CNX2RUST_XSLT;
use computational_neighborhood::transform::XMI2CNX_XSLT;
use computational_neighborhood::xpath::ast::BinOp;
use computational_neighborhood::xpath::{Axis, Expr, NodeTest, PathExpr, Step};
use computational_neighborhood::xslt::stylesheet::{KeyDef, ValueSource};
use computational_neighborhood::xslt::{Instruction, OutputMethod, Pattern, Stylesheet, Template};

const STYLESHEETS: [&str; 3] = [XMI2CNX_XSLT, CNX2JAVA_XSLT, CNX2RUST_XSLT];

/// Row → its count in each stylesheet.
#[derive(Default)]
struct Surface {
    rows: BTreeMap<(&'static str, String), [usize; 3]>,
    /// The stylesheet being walked.
    at: usize,
}

impl Surface {
    fn add(&mut self, kind: &'static str, name: impl Into<String>) {
        self.rows.entry((kind, name.into())).or_default()[self.at] += 1;
    }

    fn stylesheet(&mut self, style: &Stylesheet) {
        let Stylesheet { templates, named: _, output, global_params, keys, dispatch: _ } = style;
        self.add(
            "declaration",
            match output {
                OutputMethod::Xml { indent: true } => "xsl:output method=xml indent=yes",
                OutputMethod::Xml { indent: false } => "xsl:output method=xml",
                OutputMethod::Text => "xsl:output method=text",
            },
        );
        for (_, default) in global_params {
            self.add("declaration", "xsl:param");
            if let Some(value) = default {
                self.value(value);
            }
        }
        for KeyDef { name: _, pattern, use_expr } in keys {
            self.add("declaration", "xsl:key");
            self.pattern(pattern);
            self.expr(use_expr);
        }
        for template in templates {
            self.template(template);
        }
    }

    fn template(&mut self, template: &Template) {
        let Template { pattern, name, order: _, params, body } = template;
        if let Some(pattern) = pattern {
            self.add("declaration", "xsl:template match=");
            self.pattern(pattern);
        }
        if name.is_some() {
            self.add("declaration", "xsl:template name=");
        }
        for (_, default) in params {
            self.add("instruction", "xsl:param");
            if let Some(value) = default {
                self.value(value);
            }
        }
        self.body(body);
    }

    fn pattern(&mut self, pattern: &Pattern) {
        let Pattern { steps } = pattern;
        let shape =
            if steps.is_empty() { "/".to_string() } else { vec!["name"; steps.len()].join("/") };
        self.add("pattern", shape);
    }

    fn value(&mut self, value: &ValueSource) {
        match value {
            ValueSource::Expr(e) => self.expr(e),
            ValueSource::Body(body) => self.body(body),
        }
    }

    fn with_params(&mut self, params: &[(String, ValueSource)]) {
        for (_, value) in params {
            self.add("instruction", "xsl:with-param");
            self.value(value);
        }
    }

    fn body(&mut self, body: &[Instruction]) {
        for inst in body {
            match inst {
                Instruction::Text(_) => self.add("instruction", "text"),
                Instruction::ValueOf(e) => {
                    self.add("instruction", "xsl:value-of");
                    self.expr(e);
                }
                Instruction::ApplyTemplates { select, with_params } => {
                    self.add("instruction", "xsl:apply-templates select=");
                    self.expr(select);
                    self.with_params(with_params);
                }
                Instruction::CallTemplate { name: _, with_params } => {
                    self.add("instruction", "xsl:call-template");
                    self.with_params(with_params);
                }
                Instruction::ForEach { select, body } => {
                    self.add("instruction", "xsl:for-each");
                    self.expr(select);
                    self.body(body);
                }
                Instruction::If { test, body } => {
                    self.add("instruction", "xsl:if");
                    self.expr(test);
                    self.body(body);
                }
                Instruction::Choose { whens, otherwise } => {
                    self.add("instruction", "xsl:choose");
                    for (test, body) in whens {
                        self.add("instruction", "xsl:when");
                        self.expr(test);
                        self.body(body);
                    }
                    if !otherwise.is_empty() {
                        self.add("instruction", "xsl:otherwise");
                        self.body(otherwise);
                    }
                }
                Instruction::Attribute { name: _, body } => {
                    self.add("instruction", "xsl:attribute");
                    self.body(body);
                }
                Instruction::LiteralElement { name: _, attrs, body } => {
                    self.add("instruction", "literal result element");
                    for _ in attrs {
                        self.add("instruction", "literal result attribute");
                    }
                    self.body(body);
                }
                Instruction::Variable { name: _, value } => {
                    self.add("instruction", "xsl:variable");
                    self.value(value);
                }
            }
        }
    }

    fn expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Literal(_) => self.add("expression", "literal"),
            Expr::Number(_) => self.add("expression", "number"),
            Expr::VarRef(_) => self.add("expression", "variable"),
            Expr::FnCall(f, args) => {
                self.add("function", format!("{f:?}"));
                args.iter().for_each(|a| self.expr(a));
            }
            Expr::Binary(op, a, b) => {
                let op = match op {
                    BinOp::Eq => "=",
                    BinOp::Ne => "!=",
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                };
                self.add("operator", op);
                self.expr(a);
                self.expr(b);
            }
            Expr::Path(PathExpr { absolute, steps }) => {
                self.add("expression", if *absolute { "absolute path" } else { "relative path" });
                self.steps(steps);
            }
            Expr::Filter { primary, predicates, steps } => {
                self.add("expression", "filter");
                self.expr(primary);
                self.predicates(predicates);
                self.steps(steps);
            }
        }
    }

    fn predicates(&mut self, predicates: &[Expr]) {
        for p in predicates {
            self.add("expression", "predicate");
            self.expr(p);
        }
    }

    fn steps(&mut self, steps: &[Step]) {
        for Step { axis, test, predicates } in steps {
            let axis = match axis {
                Axis::Child => "child",
                Axis::Descendant => "descendant",
                Axis::DescendantOrSelf => "descendant-or-self",
                Axis::Attribute => "attribute",
                Axis::SelfAxis => "self",
                Axis::Parent => "parent",
            };
            self.add("axis", axis);
            self.add(
                "node test",
                match test {
                    NodeTest::Name(_) => "name",
                    NodeTest::Node => "node()",
                },
            );
            self.predicates(predicates);
        }
    }
}

/// The golden's text: one tab-separated row per entry.
fn surface() -> String {
    let mut surface = Surface::default();
    for (at, src) in STYLESHEETS.iter().enumerate() {
        surface.at = at;
        surface.stylesheet(&Stylesheet::parse(src).expect("stylesheet compiles"));
    }
    surface
        .rows
        .iter()
        .map(|((kind, name), [a, b, c])| format!("{kind}\t{name}\t{a}\t{b}\t{c}\n"))
        .collect()
}

#[test]
fn the_three_stylesheets_use_what_the_golden_lists() {
    let actual = surface();
    assert_eq!(actual, surface(), "the walk is deterministic");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/xslt_surface.txt");
    if std::env::var_os("REGENERATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); rerun with REGENERATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        actual,
        expected,
        "the stylesheets' surface drifted from {}; rerun with REGENERATE_GOLDEN=1 if intended",
        path.display()
    );
}
