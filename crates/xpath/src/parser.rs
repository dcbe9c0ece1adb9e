//! XPath expression parser: a tokenizer plus a recursive-descent grammar
//! over the subset the CN stylesheets write. Syntax outside it (explicit
//! axes, `*`, kind tests, `|`, `and`/`or`, relational and multiplicative
//! operators, unary minus) is refused with `XPST0003`, an unknown function
//! or a wrong arity with `XPST0017`.

use std::fmt;

use crate::ast::{Axis, BinOp, Expr, Function, NodeTest, PathExpr, Step};
use cn_xml::QName;

/// Why a stylesheet or an expression was refused, by the W3C's code for it
/// (XSLT 2.0 and XPath 2.0 name their static errors; XSLT 1.0 does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// An XSLT element the engine does not run, or one without an
    /// attribute the engine needs.
    XTSE0010,
    /// An attribute the engine does not read, on an XSLT element.
    XTSE0090,
    /// XPath syntax outside the engine's grammar (in a match pattern or an
    /// attribute value too).
    XPST0003,
    /// An unknown function, or a known one with the wrong number of
    /// arguments.
    XPST0017,
    /// Every other failure; its message says what went wrong.
    Other,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Parse failure with a byte offset into the expression text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub msg: String,
    pub offset: usize,
    code: ErrorCode,
}

impl ParseError {
    fn new(code: ErrorCode, msg: impl Into<String>, offset: usize) -> ParseError {
        ParseError { msg: msg.into(), offset, code }
    }

    /// `XPST0017` for a function call the library cannot make, `XPST0003`
    /// for any other refusal.
    pub fn code(&self) -> ErrorCode {
        self.code
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath parse error at offset {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Number(f64),
    Literal(String),
    /// NCName or QName.
    Name(String),
    Var(String),
    Slash,
    DoubleSlash,
    LBracket,
    RBracket,
    LParen,
    RParen,
    At,
    Dot,
    DotDot,
    Comma,
    Plus,
    Minus,
    Eq,
    Ne,
}

struct Lexer<'a> {
    src: &'a str,
    at: usize,
}

impl<'a> Lexer<'a> {
    fn run(src: &'a str) -> Result<Vec<(Tok, usize)>, ParseError> {
        let mut lx = Lexer { src, at: 0 };
        let mut toks = Vec::new();
        while let Some(tok) = lx.next_token()? {
            toks.push(tok);
        }
        Ok(toks)
    }

    fn rest(&self) -> &'a str {
        &self.src[self.at..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(ErrorCode::XPST0003, msg, self.at)
    }

    /// The next token and its offset, or `None` at the end.
    fn next_token(&mut self) -> Result<Option<(Tok, usize)>, ParseError> {
        while let Some(c) = self.peek().filter(|c| c.is_whitespace()) {
            self.at += c.len_utf8();
        }
        let start = self.at;
        let Some(c) = self.peek() else { return Ok(None) };
        let rest = self.rest();
        let (tok, len) = match c {
            '(' => (Tok::LParen, 1),
            ')' => (Tok::RParen, 1),
            '[' => (Tok::LBracket, 1),
            ']' => (Tok::RBracket, 1),
            ',' => (Tok::Comma, 1),
            '@' => (Tok::At, 1),
            '+' => (Tok::Plus, 1),
            '-' => (Tok::Minus, 1),
            '=' => (Tok::Eq, 1),
            '!' if rest.starts_with("!=") => (Tok::Ne, 2),
            '/' if rest.starts_with("//") => (Tok::DoubleSlash, 2),
            '/' => (Tok::Slash, 1),
            '.' if rest.starts_with("..") => (Tok::DotDot, 2),
            '.' if rest[1..].starts_with(|c: char| c.is_ascii_digit()) => {
                return self.number().map(Some)
            }
            '.' => (Tok::Dot, 1),
            ':' if rest.starts_with("::") => {
                return Err(self.err("explicit axes are outside the grammar"))
            }
            '"' | '\'' => {
                let end =
                    rest[1..].find(c).ok_or_else(|| self.err("unterminated string literal"))?;
                (Tok::Literal(rest[1..=end].to_string()), end + 2)
            }
            '$' => {
                self.at += 1;
                return Ok(Some((Tok::Var(self.name_token()?), start)));
            }
            '0'..='9' => return self.number().map(Some),
            c if is_name_start(c) => return Ok(Some((Tok::Name(self.name_token()?), start))),
            other => return Err(self.err(format!("{other:?} is outside the grammar"))),
        };
        self.at += len;
        Ok(Some((tok, start)))
    }

    fn number(&mut self) -> Result<(Tok, usize), ParseError> {
        let start = self.at;
        let mut seen_dot = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || (c == '.' && !seen_dot) {
                seen_dot |= c == '.';
                self.at += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.at];
        text.parse::<f64>()
            .map(|n| (Tok::Number(n), start))
            .map_err(|_| self.err("malformed number"))
    }

    /// Read a QName. A single ':' joins parts; '::' does not.
    fn name_token(&mut self) -> Result<String, ParseError> {
        let start = self.at;
        match self.peek() {
            Some(c) if is_name_start(c) => self.at += c.len_utf8(),
            _ => return Err(self.err("expected a name")),
        }
        while let Some(c) = self.peek() {
            if is_name_char(c) {
                self.at += c.len_utf8();
            } else if c == ':' && !self.rest().starts_with("::") {
                self.at += 1;
                // The colon must introduce a local part.
                if !self.peek().is_some_and(is_name_start) {
                    return Err(self.err("':' must be followed by a name"));
                }
            } else {
                break;
            }
        }
        Ok(self.src[start..self.at].to_string())
    }
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == '.' || c == '-'
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.at).map(|(t, _)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.at + 1).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks.get(self.at).map(|(_, o)| *o).unwrap_or(usize::MAX)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.at).map(|(t, _)| t.clone());
        if t.is_some() {
            self.at += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok, what: &str) -> Result<(), ParseError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(ErrorCode::XPST0003, msg, self.offset())
    }

    // Grammar, lowest precedence first.

    fn equality_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.additive_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Eq) => BinOp::Eq,
                Some(Tok::Ne) => BinOp::Ne,
                _ => return Ok(lhs),
            };
            self.at += 1;
            let rhs = self.additive_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn additive_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.path_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.at += 1;
            let rhs = self.path_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    /// PathExpr: LocationPath | FilterExpr (('/' | '//') RelativeLocationPath)?
    fn path_expr(&mut self) -> Result<Expr, ParseError> {
        if !self.starts_filter_expr() {
            return self.location_path();
        }
        let primary = self.primary_expr()?;
        let mut predicates = Vec::new();
        while self.eat(&Tok::LBracket) {
            predicates.push(self.equality_expr()?);
            self.expect(Tok::RBracket, "']'")?;
        }
        let mut steps = Vec::new();
        if self.eat(&Tok::Slash) {
            self.relative_path(&mut steps)?;
        } else if self.eat(&Tok::DoubleSlash) {
            steps.push(descendant_or_self_node());
            self.relative_path(&mut steps)?;
        }
        if predicates.is_empty() && steps.is_empty() {
            Ok(primary)
        } else {
            Ok(Expr::Filter { primary: Box::new(primary), predicates, steps })
        }
    }

    /// Does the upcoming token start a FilterExpr (primary expression) as
    /// opposed to a location path? A name followed by '(' is a function
    /// call.
    fn starts_filter_expr(&self) -> bool {
        match self.peek() {
            Some(Tok::Number(_) | Tok::Literal(_) | Tok::Var(_) | Tok::LParen) => true,
            Some(Tok::Name(_)) => self.peek2() == Some(&Tok::LParen),
            _ => false,
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        let offset = self.offset();
        match self.bump() {
            Some(Tok::Number(n)) => Ok(Expr::Number(n)),
            Some(Tok::Literal(s)) => Ok(Expr::Literal(s)),
            Some(Tok::Var(v)) => Ok(Expr::VarRef(v)),
            Some(Tok::LParen) => {
                let e = self.equality_expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            Some(Tok::Name(name)) => {
                if matches!(name.as_str(), "text" | "node" | "comment" | "processing-instruction") {
                    let msg = format!("node test {name}() is outside the grammar");
                    return Err(ParseError::new(ErrorCode::XPST0003, msg, offset));
                }
                self.expect(Tok::LParen, "'(' after function name")?;
                let mut args = Vec::new();
                if self.peek() != Some(&Tok::RParen) {
                    loop {
                        args.push(self.equality_expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Tok::RParen, "')'")?;
                let f = Function::resolve(&name, args.len())
                    .map_err(|msg| ParseError::new(ErrorCode::XPST0017, msg, offset))?;
                Ok(Expr::FnCall(f, args))
            }
            _ => Err(ParseError::new(ErrorCode::XPST0003, "expected a primary expression", offset)),
        }
    }

    fn location_path(&mut self) -> Result<Expr, ParseError> {
        let mut steps = Vec::new();
        let absolute = if self.eat(&Tok::DoubleSlash) {
            steps.push(descendant_or_self_node());
            true
        } else if self.eat(&Tok::Slash) {
            // Bare '/' is the document node itself.
            if !matches!(self.peek(), Some(Tok::Name(_) | Tok::At | Tok::Dot | Tok::DotDot)) {
                return Ok(Expr::Path(PathExpr { absolute: true, steps }));
            }
            true
        } else {
            false
        };
        self.relative_path(&mut steps)?;
        Ok(Expr::Path(PathExpr { absolute, steps }))
    }

    fn relative_path(&mut self, steps: &mut Vec<Step>) -> Result<(), ParseError> {
        loop {
            steps.push(self.step()?);
            if self.eat(&Tok::DoubleSlash) {
                steps.push(descendant_or_self_node());
            } else if !self.eat(&Tok::Slash) {
                return Ok(());
            }
        }
    }

    fn step(&mut self) -> Result<Step, ParseError> {
        if self.eat(&Tok::Dot) {
            return Ok(Step { axis: Axis::SelfAxis, test: NodeTest::Node, predicates: Vec::new() });
        }
        if self.eat(&Tok::DotDot) {
            return Ok(Step { axis: Axis::Parent, test: NodeTest::Node, predicates: Vec::new() });
        }
        let axis = if self.eat(&Tok::At) { Axis::Attribute } else { Axis::Child };
        let test = match self.bump() {
            Some(Tok::Name(n)) => NodeTest::Name(QName::new(n)),
            _ => return Err(self.err("expected a name")),
        };
        let mut predicates = Vec::new();
        while self.eat(&Tok::LBracket) {
            predicates.push(self.equality_expr()?);
            self.expect(Tok::RBracket, "']'")?;
        }
        Ok(Step { axis, test, predicates })
    }
}

fn descendant_or_self_node() -> Step {
    Step { axis: Axis::DescendantOrSelf, test: NodeTest::Node, predicates: Vec::new() }
}

/// Parse a complete XPath expression.
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let toks = Lexer::run(src)?;
    if toks.is_empty() {
        return Err(ParseError::new(ErrorCode::XPST0003, "empty expression", 0));
    }
    let mut p = Parser { toks, at: 0 };
    let e = p.equality_expr()?;
    if p.at != p.toks.len() {
        return Err(p.err("trailing tokens after expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(src: &str) -> PathExpr {
        match parse(src).unwrap() {
            Expr::Path(p) => p,
            other => panic!("expected path, got {other:?}"),
        }
    }

    /// The code `src` is refused with.
    fn refused(src: &str) -> ErrorCode {
        parse(src).unwrap_err().code()
    }

    #[test]
    fn simple_child_path() {
        let p = path("client/job/task");
        assert!(!p.absolute);
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.steps[2].test, NodeTest::Name("task".into()));
    }

    #[test]
    fn absolute_and_descendant_paths() {
        let p = path("/cn2/client");
        assert!(p.absolute);
        let p = path("//task");
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(p.steps[0].test, NodeTest::Node);
    }

    #[test]
    fn attribute_abbreviation() {
        let p = path("@name");
        assert_eq!(p.steps[0].axis, Axis::Attribute);
        assert_eq!(p.steps[0].test, NodeTest::Name("name".into()));
    }

    #[test]
    fn dot_and_dotdot() {
        let p = path(".");
        assert_eq!(p.steps[0].axis, Axis::SelfAxis);
        let p = path("../task");
        assert_eq!(p.steps[0].axis, Axis::Parent);
        assert_eq!(p.steps[1].test, NodeTest::Name("task".into()));
    }

    #[test]
    fn explicit_axes() {
        // Only the abbreviations name an axis.
        for src in ["ancestor::job", "child::task", "descendant::task", "following-sibling::t"] {
            assert_eq!(refused(src), ErrorCode::XPST0003, "{src}");
        }
    }

    #[test]
    fn predicates_parse() {
        let p = path("task[@name='tctask0'][2]");
        assert_eq!(p.steps[0].predicates.len(), 2);
        assert!(matches!(p.steps[0].predicates[1], Expr::Number(n) if n == 2.0));
    }

    #[test]
    fn prefixed_names_and_wildcards() {
        let p = path("UML:ActionState/UML:TaggedValue");
        assert_eq!(p.steps[0].test, NodeTest::Name("UML:ActionState".into()));
        assert_eq!(p.steps[1].test, NodeTest::Name("UML:TaggedValue".into()));
        for src in ["*", "UML:*", "@*", "a/*"] {
            assert_eq!(refused(src), ErrorCode::XPST0003, "{src}");
        }
    }

    #[test]
    fn node_tests() {
        for src in ["text()", "node()", "comment()", "a/text()"] {
            assert_eq!(refused(src), ErrorCode::XPST0003, "{src}");
        }
    }

    #[test]
    fn function_calls() {
        match parse("concat('a', 'b', 'c')").unwrap() {
            Expr::FnCall(f, args) => {
                assert_eq!(f, Function::Concat);
                assert_eq!(args.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operators_and_precedence() {
        // Additive operators associate to the left: (1 + 2) - 3.
        match parse("1 + 2 - 3").unwrap() {
            Expr::Binary(BinOp::Sub, lhs, _) => {
                assert!(matches!(*lhs, Expr::Binary(BinOp::Add, _, _)));
            }
            other => panic!("{other:?}"),
        }
        // Comparison binds looser than arithmetic.
        match parse("@a = 1 + 2").unwrap() {
            Expr::Binary(BinOp::Eq, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinOp::Add, _, _)));
            }
            other => panic!("{other:?}"),
        }
        for src in ["@a = 1 and @b = 2", "1 or 2", "2 < 3", "2 >= 3", "2 * 3"] {
            assert_eq!(refused(src), ErrorCode::XPST0003, "{src}");
        }
    }

    #[test]
    fn star_disambiguation() {
        // `*` is neither a wildcard nor multiplication.
        for src in ["2 * 3", "*", "concat(*, 'a')"] {
            assert_eq!(refused(src), ErrorCode::XPST0003, "{src}");
        }
    }

    #[test]
    fn div_mod_disambiguation() {
        // `div` and `mod` are element names, never operators.
        let p = path("div/mod");
        assert_eq!(p.steps[0].test, NodeTest::Name("div".into()));
        assert_eq!(refused("4 div 2"), ErrorCode::XPST0003);
        assert_eq!(refused("5 mod 2"), ErrorCode::XPST0003);
    }

    #[test]
    fn union_expressions() {
        assert_eq!(refused("a | b | c"), ErrorCode::XPST0003);
        assert_eq!(refused("//a | //b"), ErrorCode::XPST0003);
    }

    #[test]
    fn variables() {
        assert_eq!(parse("$workers").unwrap(), Expr::VarRef("workers".into()));
        assert!(matches!(parse("$n + 1").unwrap(), Expr::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn filter_with_trailing_path() {
        match parse("(//task)[1]/@name").unwrap() {
            Expr::Filter { predicates, steps, .. } => {
                assert_eq!(predicates.len(), 1);
                assert_eq!(steps.len(), 1);
                assert_eq!(steps[0].axis, Axis::Attribute);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn literals_both_quotes() {
        assert_eq!(parse("'single'").unwrap(), Expr::Literal("single".into()));
        assert_eq!(parse("\"double\"").unwrap(), Expr::Literal("double".into()));
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("42").unwrap(), Expr::Number(42.0));
        assert_eq!(parse("3.5").unwrap(), Expr::Number(3.5));
        assert_eq!(parse(".5").unwrap(), Expr::Number(0.5));
        // No unary minus: a negative number is `0 - 1`.
        assert_eq!(refused("-1"), ErrorCode::XPST0003);
    }

    #[test]
    fn root_path() {
        let p = path("/");
        assert!(p.absolute);
        assert!(p.steps.is_empty());
    }

    #[test]
    fn xmi_dot_attribute_names() {
        let p = path("UML:TagDefinition/@xmi.idref");
        assert_eq!(p.steps[1].test, NodeTest::Name("xmi.idref".into()));
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("task[").is_err());
        assert!(parse("'unterminated").is_err());
        assert!(parse("a ! b").is_err());
        assert!(parse("foo::x").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("foo:/bar").is_err(), "trailing colon in a QName");
        assert!(parse("foo: x").is_err());
        assert_eq!(refused("task["), ErrorCode::XPST0003);
    }
}
