//! The XPath 1.0 core function library (the subset the CN stylesheets use,
//! which is most of it).

use crate::eval::{Ctx, EvalError};
use crate::value::Value;

/// Dispatch a function call. `args` are already evaluated.
pub fn call_function(ctx: &Ctx<'_>, name: &str, args: Vec<Value>) -> Result<Value, EvalError> {
    let doc = ctx.doc;
    let arity = args.len();
    let wrong_arity = || EvalError::new(format!("wrong number of arguments to {name}() ({arity})"));
    match name {
        // -- node-set functions ------------------------------------------
        "last" => {
            if arity != 0 {
                return Err(wrong_arity());
            }
            Ok(Value::Number(ctx.size as f64))
        }
        "position" => {
            if arity != 0 {
                return Err(wrong_arity());
            }
            Ok(Value::Number(ctx.position as f64))
        }
        "count" => {
            let [v] = take::<1>(args).map_err(|_| wrong_arity())?;
            let ns = v.into_nodeset().ok_or_else(|| EvalError::new("count() needs a node-set"))?;
            Ok(Value::Number(ns.len() as f64))
        }
        "name" | "local-name" => {
            let node = match arity {
                0 => Some(ctx.node),
                1 => {
                    let [v] = take::<1>(args).map_err(|_| wrong_arity())?;
                    let ns = v
                        .into_nodeset()
                        .ok_or_else(|| EvalError::new(format!("{name}() needs a node-set")))?;
                    ns.first().copied()
                }
                _ => return Err(wrong_arity()),
            };
            let s = match node {
                Some(n) => {
                    if name == "name" {
                        n.name(doc).to_string()
                    } else {
                        n.local_name(doc).to_string()
                    }
                }
                None => String::new(),
            };
            Ok(Value::Str(s))
        }
        "key" => {
            // XSLT's key() — available when the host attached a resolver.
            let [name_v, value_v] = take::<2>(args).map_err(|_| wrong_arity())?;
            let resolver = ctx
                .keys
                .as_ref()
                .ok_or_else(|| EvalError::new("key() is not available in this context"))?;
            let key_name = name_v.to_string_value(doc);
            let mut out: Vec<crate::value::XNode> = Vec::new();
            match &value_v {
                // A node-set argument unions the lookups of each node's
                // string-value (XSLT 1.0 §12.2).
                Value::NodeSet(ns) => {
                    for n in ns {
                        out.extend(resolver.lookup(&key_name, &n.string_value(doc))?);
                    }
                }
                other => out = resolver.lookup(&key_name, &other.as_string())?,
            }
            crate::value::sort_dedup(doc, &mut out);
            Ok(Value::NodeSet(out))
        }
        "sum" => {
            let [v] = take::<1>(args).map_err(|_| wrong_arity())?;
            let ns = v.into_nodeset().ok_or_else(|| EvalError::new("sum() needs a node-set"))?;
            let total: f64 =
                ns.iter().map(|n| crate::value::str_to_number(&n.string_value(doc))).sum();
            Ok(Value::Number(total))
        }

        // -- string functions --------------------------------------------
        "string" => match arity {
            0 => Ok(Value::Str(ctx.node.string_value(doc))),
            1 => {
                let [v] = take::<1>(args).map_err(|_| wrong_arity())?;
                Ok(Value::Str(v.to_string_value(doc)))
            }
            _ => Err(wrong_arity()),
        },
        "concat" => {
            if arity < 2 {
                return Err(wrong_arity());
            }
            let mut out = String::new();
            for v in args {
                out.push_str(&v.to_string_value(doc));
            }
            Ok(Value::Str(out))
        }
        "starts-with" => {
            let [a, b] = take::<2>(args).map_err(|_| wrong_arity())?;
            Ok(Value::Bool(a.to_string_value(doc).starts_with(&b.to_string_value(doc))))
        }
        "contains" => {
            let [a, b] = take::<2>(args).map_err(|_| wrong_arity())?;
            Ok(Value::Bool(a.to_string_value(doc).contains(&b.to_string_value(doc))))
        }
        "substring-before" => {
            let [a, b] = take::<2>(args).map_err(|_| wrong_arity())?;
            let s = a.to_string_value(doc);
            let m = b.to_string_value(doc);
            Ok(Value::Str(s.find(&m).map(|i| s[..i].to_string()).unwrap_or_default()))
        }
        "substring-after" => {
            let [a, b] = take::<2>(args).map_err(|_| wrong_arity())?;
            let s = a.to_string_value(doc);
            let m = b.to_string_value(doc);
            Ok(Value::Str(s.find(&m).map(|i| s[i + m.len()..].to_string()).unwrap_or_default()))
        }
        "substring" => {
            if arity != 2 && arity != 3 {
                return Err(wrong_arity());
            }
            let mut it = args.into_iter();
            let s = it.next().unwrap().to_string_value(doc);
            let start = it.next().unwrap().to_number(doc);
            let len = it.next().map(|v| v.to_number(doc));
            Ok(Value::Str(xpath_substring(&s, start, len)))
        }
        "string-length" => match arity {
            0 => Ok(Value::Number(ctx.node.string_value(doc).chars().count() as f64)),
            1 => {
                let [v] = take::<1>(args).map_err(|_| wrong_arity())?;
                Ok(Value::Number(v.to_string_value(doc).chars().count() as f64))
            }
            _ => Err(wrong_arity()),
        },
        "normalize-space" => {
            let s = match arity {
                0 => ctx.node.string_value(doc),
                1 => {
                    let [v] = take::<1>(args).map_err(|_| wrong_arity())?;
                    v.to_string_value(doc)
                }
                _ => return Err(wrong_arity()),
            };
            Ok(Value::Str(s.split_whitespace().collect::<Vec<_>>().join(" ")))
        }
        "translate" => {
            let [a, b, c] = take::<3>(args).map_err(|_| wrong_arity())?;
            let s = a.to_string_value(doc);
            let from: Vec<char> = b.to_string_value(doc).chars().collect();
            let to: Vec<char> = c.to_string_value(doc).chars().collect();
            let out: String = s
                .chars()
                .filter_map(|ch| match from.iter().position(|&f| f == ch) {
                    Some(i) => to.get(i).copied(),
                    None => Some(ch),
                })
                .collect();
            Ok(Value::Str(out))
        }

        // -- boolean functions -------------------------------------------
        "boolean" => {
            let [v] = take::<1>(args).map_err(|_| wrong_arity())?;
            Ok(Value::Bool(v.as_bool()))
        }
        "not" => {
            let [v] = take::<1>(args).map_err(|_| wrong_arity())?;
            Ok(Value::Bool(!v.as_bool()))
        }
        "true" => {
            if arity != 0 {
                return Err(wrong_arity());
            }
            Ok(Value::Bool(true))
        }
        "false" => {
            if arity != 0 {
                return Err(wrong_arity());
            }
            Ok(Value::Bool(false))
        }

        // -- number functions --------------------------------------------
        "number" => match arity {
            0 => Ok(Value::Number(crate::value::str_to_number(&ctx.node.string_value(doc)))),
            1 => {
                let [v] = take::<1>(args).map_err(|_| wrong_arity())?;
                Ok(Value::Number(v.to_number(doc)))
            }
            _ => Err(wrong_arity()),
        },
        "floor" => {
            let [v] = take::<1>(args).map_err(|_| wrong_arity())?;
            Ok(Value::Number(v.to_number(doc).floor()))
        }
        "ceiling" => {
            let [v] = take::<1>(args).map_err(|_| wrong_arity())?;
            Ok(Value::Number(v.to_number(doc).ceil()))
        }
        "round" => {
            let [v] = take::<1>(args).map_err(|_| wrong_arity())?;
            let n = v.to_number(doc);
            // XPath rounds half *up* (towards +inf), unlike Rust's round.
            Ok(Value::Number((n + 0.5).floor()))
        }

        other => Err(EvalError::new(format!("unknown function {other}()"))),
    }
}

/// Move `args` into a fixed-size array or fail.
fn take<const N: usize>(args: Vec<Value>) -> Result<[Value; N], ()> {
    args.try_into().map_err(|_| ())
}

/// The spec's `substring()` with its rounding and NaN edge cases.
fn xpath_substring(s: &str, start: f64, len: Option<f64>) -> String {
    let chars: Vec<char> = s.chars().collect();
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
    chars
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let pos = (*i + 1) as f64;
            pos >= start_r && pos < end_r
        })
        .map(|(_, c)| *c)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Ctx;
    use crate::parser::parse;

    fn eval(expr: &str) -> Value {
        let doc = cn_xml::parse("<r a='hello'><x>1</x><x>2</x><x>3</x></r>").unwrap();
        let ctx = Ctx::new(&doc, doc.root_element().unwrap());
        let v = ctx.eval(&parse(expr).unwrap()).unwrap();
        match v {
            Value::NodeSet(ns) => Value::Number(ns.len() as f64),
            other => other,
        }
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
    }

    #[test]
    fn substring_spec_edge_cases() {
        // Examples straight from the XPath 1.0 spec.
        assert_eq!(eval("substring('12345', 1.5, 2.6)"), Value::Str("234".into()));
        assert_eq!(eval("substring('12345', 0, 3)"), Value::Str("12".into()));
        assert_eq!(eval("substring('12345', 0 div 0, 3)"), Value::Str("".into()));
    }

    #[test]
    fn number_functions() {
        assert_eq!(eval("floor(2.7)"), Value::Number(2.0));
        assert_eq!(eval("ceiling(2.1)"), Value::Number(3.0));
        assert_eq!(eval("round(2.5)"), Value::Number(3.0));
        assert_eq!(eval("round(-2.5)"), Value::Number(-2.0));
        assert_eq!(eval("number('42')"), Value::Number(42.0));
        assert_eq!(eval("sum(x)"), Value::Number(6.0));
    }

    #[test]
    fn name_functions() {
        assert_eq!(eval("name()"), Value::Str("r".into()));
        assert_eq!(eval("name(x)"), Value::Str("x".into()));
        assert_eq!(eval("local-name(@a)"), Value::Str("a".into()));
    }

    #[test]
    fn string_of_context() {
        assert_eq!(eval("string()"), Value::Str("123".into()));
        assert_eq!(eval("string-length()"), Value::Number(3.0));
    }

    #[test]
    fn arity_errors() {
        let doc = cn_xml::parse("<r/>").unwrap();
        let ctx = Ctx::new(&doc, doc.root_element().unwrap());
        assert!(ctx.eval(&parse("concat('only-one')").unwrap()).is_err());
        assert!(ctx.eval(&parse("count()").unwrap()).is_err());
        assert!(ctx.eval(&parse("true(1)").unwrap()).is_err());
        assert!(ctx.eval(&parse("nonexistent()").unwrap()).is_err());
    }

    #[test]
    fn count_requires_nodeset() {
        let doc = cn_xml::parse("<r/>").unwrap();
        let ctx = Ctx::new(&doc, doc.root_element().unwrap());
        assert!(ctx.eval(&parse("count(1)").unwrap()).is_err());
    }
}
