//! Abstract syntax of XPath expressions.

use std::fmt;

use cn_xml::QName;

/// Binary operators, in the spec's precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "div",
            BinOp::Mod => "mod",
        };
        f.write_str(s)
    }
}

/// Navigation axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    Attribute,
    SelfAxis,
    Parent,
    Ancestor,
    AncestorOrSelf,
    FollowingSibling,
    PrecedingSibling,
}

impl Axis {
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Attribute => "attribute",
            Axis::SelfAxis => "self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
        }
    }

    /// Axes that walk backwards in document order (`position()` counts from
    /// the context node outwards per the spec).
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf | Axis::PrecedingSibling
        )
    }
}

/// What kind of node a step selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// `*` — any element (or any attribute on the attribute axis).
    Any,
    /// `name` or `prefix:name` — full lexical name match. The name is
    /// interned at parse time, so evaluation compares atoms, not strings.
    Name(QName),
    /// `prefix:*`
    PrefixAny(String),
    /// `text()`
    Text,
    /// `node()`
    Node,
    /// `comment()`
    Comment,
}

/// One location step: `axis::test[pred]...`.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicates: Vec<Expr>,
}

impl Step {
    pub fn child(name: &str) -> Step {
        Step { axis: Axis::Child, test: NodeTest::Name(QName::new(name)), predicates: Vec::new() }
    }
}

/// A location path. `//a` is represented as an absolute path whose first
/// step is `descendant-or-self::node()`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathExpr {
    /// Starts with `/` (evaluated from the document node).
    pub absolute: bool,
    pub steps: Vec<Step>,
}

/// Any XPath expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `'literal'`
    Literal(String),
    /// `42` / `3.14`
    Number(f64),
    /// `$name`
    VarRef(String),
    /// `name(args...)`
    FnCall(String, Vec<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Negate(Box<Expr>),
    /// `a | b` — node-set union.
    Union(Box<Expr>, Box<Expr>),
    /// A location path.
    Path(PathExpr),
    /// `(expr)[pred]/rest` — a filtered primary expression with an optional
    /// trailing relative path.
    Filter {
        primary: Box<Expr>,
        predicates: Vec<Expr>,
        steps: Vec<Step>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_reverse_classification() {
        assert!(Axis::Parent.is_reverse());
        assert!(Axis::Ancestor.is_reverse());
        assert!(Axis::PrecedingSibling.is_reverse());
        assert!(!Axis::Child.is_reverse());
        assert!(!Axis::Descendant.is_reverse());
        assert!(!Axis::FollowingSibling.is_reverse());
    }

    #[test]
    fn binop_display() {
        assert_eq!(BinOp::Le.to_string(), "<=");
        assert_eq!(BinOp::Mod.to_string(), "mod");
    }

    #[test]
    fn step_child_helper() {
        let s = Step::child("task");
        assert_eq!(s.axis, Axis::Child);
        assert_eq!(s.test, NodeTest::Name("task".into()));
        assert!(s.predicates.is_empty());
    }
}
