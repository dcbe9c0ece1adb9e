//! The functions the CN stylesheets call: eleven of XPath 1.0's core
//! library, and XSLT's `key()`. A call resolves to a [`Function`] when the
//! expression is parsed, with its arity checked there; an unknown name or
//! a wrong arity is a static error (`XPST0017`).

use crate::eval::{Ctx, EvalError};
use crate::value::{sort_dedup, Value, XNode};

/// A function of the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Function {
    Concat,
    Contains,
    Key,
    NormalizeSpace,
    Not,
    Position,
    StartsWith,
    StringLength,
    Substring,
    SubstringAfter,
    SubstringBefore,
    Translate,
}

/// Every function with its name and its least and greatest arity.
const LIBRARY: [(Function, &str, usize, usize); 12] = [
    (Function::Concat, "concat", 2, usize::MAX),
    (Function::Contains, "contains", 2, 2),
    (Function::Key, "key", 2, 2),
    (Function::NormalizeSpace, "normalize-space", 0, 1),
    (Function::Not, "not", 1, 1),
    (Function::Position, "position", 0, 0),
    (Function::StartsWith, "starts-with", 2, 2),
    (Function::StringLength, "string-length", 0, 1),
    (Function::Substring, "substring", 2, 3),
    (Function::SubstringAfter, "substring-after", 2, 2),
    (Function::SubstringBefore, "substring-before", 2, 2),
    (Function::Translate, "translate", 3, 3),
];

impl Function {
    /// The function called `name` with `arity` arguments, or why there is
    /// none.
    pub(crate) fn resolve(name: &str, arity: usize) -> Result<Function, String> {
        match LIBRARY.iter().find(|(_, n, ..)| *n == name) {
            None => Err(format!("unknown function {name}()")),
            Some(&(f, _, least, most)) if (least..=most).contains(&arity) => Ok(f),
            Some(_) => Err(format!("wrong number of arguments to {name}() ({arity})")),
        }
    }
}

/// Call `f` on `args`, already evaluated, whose count [`Function::resolve`]
/// has checked.
pub fn call_function(ctx: &Ctx<'_>, f: Function, args: &[Value]) -> Result<Value, EvalError> {
    let doc = ctx.doc;
    // Argument `i` as a string; an omitted optional argument is the
    // context node's string-value.
    let s = |i: usize| {
        args.get(i).map_or_else(|| ctx.node.string_value(doc), |v| v.to_string_value(doc))
    };
    let number = |i: usize| args.get(i).map(|v| v.to_number(doc));
    Ok(match f {
        Function::Concat => Value::Str(args.iter().map(|v| v.to_string_value(doc)).collect()),
        Function::Contains => Value::Bool(s(0).contains(&s(1))),
        Function::Key => return key(ctx, &s(0), args.get(1)),
        Function::NormalizeSpace => {
            Value::Str(s(0).split_whitespace().collect::<Vec<_>>().join(" "))
        }
        Function::Not => Value::Bool(!args.first().is_some_and(Value::as_bool)),
        Function::Position => Value::Number(ctx.position as f64),
        Function::StartsWith => Value::Bool(s(0).starts_with(&s(1))),
        Function::StringLength => Value::Number(s(0).chars().count() as f64),
        Function::Substring => {
            Value::Str(xpath_substring(&s(0), number(1).unwrap_or(f64::NAN), number(2)))
        }
        Function::SubstringAfter => {
            let (s, m) = (s(0), s(1));
            Value::Str(s.find(&m).map(|i| s[i + m.len()..].to_string()).unwrap_or_default())
        }
        Function::SubstringBefore => {
            let (s, m) = (s(0), s(1));
            Value::Str(s.find(&m).map(|i| s[..i].to_string()).unwrap_or_default())
        }
        Function::Translate => {
            let from: Vec<char> = s(1).chars().collect();
            let to: Vec<char> = s(2).chars().collect();
            Value::Str(
                s(0).chars()
                    .filter_map(|ch| match from.iter().position(|&f| f == ch) {
                        Some(i) => to.get(i).copied(),
                        None => Some(ch),
                    })
                    .collect(),
            )
        }
    })
}

/// XSLT's `key()`, through the resolver the host attached.
fn key(ctx: &Ctx<'_>, name: &str, value: Option<&Value>) -> Result<Value, EvalError> {
    let doc = ctx.doc;
    let resolver = ctx
        .keys
        .as_ref()
        .ok_or_else(|| EvalError::new("key() is not available in this context"))?;
    let mut out: Vec<XNode> = Vec::new();
    match value {
        // A node-set argument unions the lookups of each node's
        // string-value (XSLT 1.0 §12.2).
        Some(Value::NodeSet(ns)) => {
            for n in ns {
                out.extend(resolver.lookup(name, &n.string_value(doc))?);
            }
        }
        other => out = resolver.lookup(name, &other.map(Value::as_string).unwrap_or_default())?,
    }
    sort_dedup(doc, &mut out);
    Ok(Value::NodeSet(out))
}

/// The spec's `substring()` with its rounding and NaN edge cases.
fn xpath_substring(s: &str, start: f64, len: Option<f64>) -> String {
    let round = |n: f64| (n + 0.5).floor();
    let start_r = round(start);
    if start_r.is_nan() {
        return String::new();
    }
    let end_r = match len {
        Some(l) => {
            let e = start_r + round(l);
            if e.is_nan() {
                return String::new();
            }
            e
        }
        None => f64::INFINITY,
    };
    s.chars()
        .enumerate()
        .filter(|(i, _)| {
            let pos = (*i + 1) as f64;
            pos >= start_r && pos < end_r
        })
        .map(|(_, c)| c)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Ctx;
    use crate::parser::{parse, ErrorCode};

    fn eval(expr: &str) -> Value {
        let doc = cn_xml::parse("<r a='hello'><x>1</x><x>2</x><x>3</x></r>").unwrap();
        let ctx = Ctx::new(&doc, doc.root_element().unwrap());
        let v = ctx.eval(&parse(expr).unwrap()).unwrap();
        match v {
            Value::NodeSet(ns) => Value::Number(ns.len() as f64),
            other => other,
        }
    }

    /// The code `expr` is refused with when parsed.
    fn refused(expr: &str) -> ErrorCode {
        parse(expr).unwrap_err().code()
    }

    #[test]
    fn string_functions() {
        assert_eq!(eval("concat('cn', '-', 'task')"), Value::Str("cn-task".into()));
        assert_eq!(eval("starts-with('tctask0', 'tc')"), Value::Bool(true));
        assert_eq!(eval("contains('tasksplit.jar', 'split')"), Value::Bool(true));
        assert_eq!(eval("substring-before('a,b', ',')"), Value::Str("a".into()));
        assert_eq!(eval("substring-after('a,b', ',')"), Value::Str("b".into()));
        assert_eq!(eval("substring-before('ab', 'x')"), Value::Str("".into()));
        assert_eq!(eval("substring('12345', 2, 3)"), Value::Str("234".into()));
        assert_eq!(eval("substring('12345', 2)"), Value::Str("2345".into()));
        assert_eq!(eval("string-length('hello')"), Value::Number(5.0));
        assert_eq!(eval("normalize-space('  a   b  ')"), Value::Str("a b".into()));
        assert_eq!(eval("translate('bar', 'abc', 'ABC')"), Value::Str("BAr".into()));
        assert_eq!(eval("translate('bar', 'ar', 'A')"), Value::Str("bA".into()));
        assert_eq!(eval("not(x)"), Value::Bool(false));
        assert_eq!(eval("not(nothing)"), Value::Bool(true));
    }

    #[test]
    fn substring_spec_edge_cases() {
        // Examples straight from the XPath 1.0 spec (NaN as 'x' + 0).
        assert_eq!(eval("substring('12345', 1.5, 2.6)"), Value::Str("234".into()));
        assert_eq!(eval("substring('12345', 0, 3)"), Value::Str("12".into()));
        assert_eq!(eval("substring('12345', 'x' + 0, 3)"), Value::Str("".into()));
    }

    #[test]
    fn number_functions() {
        for src in ["floor(2.7)", "ceiling(2.1)", "round(2.5)", "number('42')", "sum(x)"] {
            assert_eq!(refused(src), ErrorCode::XPST0017, "{src}");
        }
    }

    #[test]
    fn name_functions() {
        for src in ["name()", "name(x)", "local-name(@a)"] {
            assert_eq!(refused(src), ErrorCode::XPST0017, "{src}");
        }
    }

    #[test]
    fn string_of_context() {
        // The optional argument of string-length() and normalize-space()
        // defaults to the context node; string() itself is not kept.
        assert_eq!(eval("string-length()"), Value::Number(3.0));
        assert_eq!(eval("normalize-space()"), Value::Str("123".into()));
        assert_eq!(refused("string()"), ErrorCode::XPST0017);
    }

    #[test]
    fn arity_errors() {
        assert_eq!(refused("concat('only-one')"), ErrorCode::XPST0017);
        assert_eq!(refused("position(1)"), ErrorCode::XPST0017);
        assert_eq!(refused("substring('a')"), ErrorCode::XPST0017);
        assert_eq!(refused("nonexistent()"), ErrorCode::XPST0017);
        assert_eq!(Function::resolve("translate", 3), Ok(Function::Translate));
    }

    #[test]
    fn count_requires_nodeset() {
        // count() is not in the library: the length of a node-set is
        // what a caller reads instead.
        assert_eq!(refused("count(1)"), ErrorCode::XPST0017);
        assert_eq!(refused("count(x)"), ErrorCode::XPST0017);
        assert_eq!(eval("x"), Value::Number(3.0));
    }
}
