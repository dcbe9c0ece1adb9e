//! Abstract syntax of XPath expressions.

use cn_xml::QName;

pub use crate::functions::Function;

/// Binary operators: comparison binds looser than arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    Ne,
    Add,
    Sub,
}

/// Navigation axes. The grammar writes them only through the
/// abbreviations (`@`, `.`, `..`, `//`); `Descendant` is reached only by
/// collapsing `//name` (see [`crate::eval`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    Attribute,
    SelfAxis,
    Parent,
}

/// What kind of node a step selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// `name` or `prefix:name` — full lexical name match. The name is
    /// interned at parse time, so evaluation compares atoms, not strings.
    Name(QName),
    /// Any node: the test of the `.`, `..` and `//` abbreviations.
    Node,
}

/// One location step: `axis::test[pred]...`.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicates: Vec<Expr>,
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
    /// `name(args...)`, the function resolved and its arity checked at
    /// parse time.
    FnCall(Function, Vec<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
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
    use crate::{parse_expr, ErrorCode};

    #[test]
    fn axis_reverse_classification() {
        // `..` is the one reverse axis left, and only as the abbreviation;
        // the explicit reverse axes are outside the grammar.
        assert!(parse_expr("../task").is_ok());
        for src in ["ancestor::a", "ancestor-or-self::a", "preceding-sibling::a", "parent::a"] {
            assert_eq!(parse_expr(src).unwrap_err().code(), ErrorCode::XPST0003, "{src}");
        }
    }
}
