//! Expression evaluation.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use cn_xml::{Atom, Document, NodeId, NodeKind, QName};

use crate::ast::{Axis, BinOp, Expr, NodeTest, PathExpr, Step};
use crate::functions::call_function;
use crate::value::{sort_dedup, Value, XNode};

/// Runtime evaluation failure (unknown variable/function, wrong arity...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    pub msg: String,
}

impl EvalError {
    pub fn new(msg: impl Into<String>) -> Self {
        EvalError { msg: msg.into() }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath evaluation error: {}", self.msg)
    }
}

impl std::error::Error for EvalError {}

/// Cache of whole-document scans, shared across every context of one
/// evaluation session (e.g. one XSLT transform). Keyed by the element name
/// of an absolute `//name` scan; this is the workhorse that `xsl:key`
/// provides in full XSLT processors — without it, stylesheets that resolve
/// idrefs (like XMI2CNX) rescan the document per lookup.
#[derive(Default)]
pub struct ScanCache {
    by_name: Mutex<HashMap<Atom, Arc<Vec<XNode>>>>,
}

impl ScanCache {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Host-provided named-index lookup, backing the XSLT `key()` function.
/// (XPath itself has no keys; XSLT declares them with `xsl:key` and supplies
/// a resolver through the context.)
pub trait KeyResolver: Send + Sync {
    /// Nodes whose key `name` has value `value` (document order).
    fn lookup(&self, name: &str, value: &str) -> Result<Vec<XNode>, EvalError>;
}

/// Evaluation context: the context node plus position/size within the
/// current node list, and the variable environment.
#[derive(Clone)]
pub struct Ctx<'d> {
    pub doc: &'d Document,
    pub node: XNode,
    /// 1-based context position.
    pub position: usize,
    /// Context size.
    pub size: usize,
    /// Variable environment, shared copy-on-write: focusing the context on
    /// another node (`at`) is a pointer copy, and bindings clone the map
    /// only when it is actually shared.
    pub vars: Arc<HashMap<String, Value>>,
    /// Optional shared scan cache (valid only while `doc` is unmodified).
    pub cache: Option<Arc<ScanCache>>,
    /// Optional `key()` resolver (supplied by the XSLT runtime).
    pub keys: Option<Arc<dyn KeyResolver + 'd>>,
}

impl<'d> Ctx<'d> {
    pub fn new(doc: &'d Document, node: NodeId) -> Self {
        Ctx {
            doc,
            node: XNode::Node(node),
            position: 1,
            size: 1,
            vars: Arc::new(HashMap::new()),
            cache: None,
            keys: None,
        }
    }

    /// Bind (or shadow) a variable. Copy-on-write: cheap when this context
    /// is the sole owner of its environment, clones the map only when it is
    /// shared with other live contexts.
    pub fn bind_var(&mut self, name: impl Into<String>, value: Value) {
        Arc::make_mut(&mut self.vars).insert(name.into(), value);
    }

    /// Attach a shared scan cache (the document must not change while the
    /// cache is live).
    pub fn with_cache(mut self, cache: Arc<ScanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach a `key()` resolver.
    pub fn with_keys(mut self, keys: Arc<dyn KeyResolver + 'd>) -> Self {
        self.keys = Some(keys);
        self
    }

    /// A copy of this context focused on a different node/position/size.
    /// Cheap: the variable environment is shared, not cloned.
    pub fn at(&self, node: XNode, position: usize, size: usize) -> Ctx<'d> {
        Ctx {
            doc: self.doc,
            node,
            position,
            size,
            vars: Arc::clone(&self.vars),
            cache: self.cache.clone(),
            keys: self.keys.clone(),
        }
    }

    /// All elements named `name`, document order, via the scan cache.
    fn cached_descendants_named(&self, name: &QName) -> Option<Arc<Vec<XNode>>> {
        let cache = self.cache.as_ref()?;
        let atom = name.atom();
        let mut by_name = cache.by_name.lock();
        if let Some(hit) = by_name.get(&atom) {
            return Some(Arc::clone(hit));
        }
        let nodes: Vec<XNode> = self
            .doc
            .descendants(self.doc.document_node())
            .filter(|&n| self.doc.name(n).is_some_and(|q| q.atom() == atom))
            .map(XNode::Node)
            .collect();
        let arc = Arc::new(nodes);
        by_name.insert(atom, Arc::clone(&arc));
        Some(arc)
    }

    /// Evaluate an expression in this context.
    pub fn eval(&self, expr: &Expr) -> Result<Value, EvalError> {
        match expr {
            Expr::Literal(s) => Ok(Value::Str(s.clone())),
            Expr::Number(n) => Ok(Value::Number(*n)),
            Expr::VarRef(name) => self
                .vars
                .get(name)
                .cloned()
                .ok_or_else(|| EvalError::new(format!("unbound variable ${name}"))),
            Expr::FnCall(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                call_function(self, name, vals)
            }
            Expr::Negate(e) => {
                let v = self.eval(e)?;
                Ok(Value::Number(-v.to_number(self.doc)))
            }
            Expr::Union(a, b) => {
                let mut left = self
                    .eval(a)?
                    .into_nodeset()
                    .ok_or_else(|| EvalError::new("left side of | is not a node-set"))?;
                let right = self
                    .eval(b)?
                    .into_nodeset()
                    .ok_or_else(|| EvalError::new("right side of | is not a node-set"))?;
                left.extend(right);
                sort_dedup(self.doc, &mut left);
                Ok(Value::NodeSet(left))
            }
            Expr::Binary(op, a, b) => self.eval_binary(*op, a, b),
            Expr::Path(path) => Ok(Value::NodeSet(self.eval_path(path)?)),
            Expr::Filter { primary, predicates, steps } => {
                let base = self
                    .eval(primary)?
                    .into_nodeset()
                    .ok_or_else(|| EvalError::new("filter applied to a non-node-set"))?;
                let filtered = self.apply_predicates(base, predicates, false)?;
                let mut current = filtered;
                for step in steps {
                    current = self.eval_step_over(&current, step)?;
                }
                Ok(Value::NodeSet(current))
            }
        }
    }

    /// Evaluate an expression and coerce to boolean.
    pub fn eval_bool(&self, expr: &Expr) -> Result<bool, EvalError> {
        Ok(self.eval(expr)?.as_bool())
    }

    fn eval_binary(&self, op: BinOp, a: &Expr, b: &Expr) -> Result<Value, EvalError> {
        match op {
            BinOp::Or => return Ok(Value::Bool(self.eval_bool(a)? || self.eval_bool(b)?)),
            BinOp::And => return Ok(Value::Bool(self.eval_bool(a)? && self.eval_bool(b)?)),
            _ => {}
        }
        let va = self.eval(a)?;
        let vb = self.eval(b)?;
        match op {
            BinOp::Eq => Ok(Value::Bool(self.compare_eq(&va, &vb, false))),
            BinOp::Ne => Ok(Value::Bool(self.compare_eq(&va, &vb, true))),
            BinOp::Lt => Ok(Value::Bool(self.compare_rel(&va, &vb, |x, y| x < y))),
            BinOp::Le => Ok(Value::Bool(self.compare_rel(&va, &vb, |x, y| x <= y))),
            BinOp::Gt => Ok(Value::Bool(self.compare_rel(&va, &vb, |x, y| x > y))),
            BinOp::Ge => Ok(Value::Bool(self.compare_rel(&va, &vb, |x, y| x >= y))),
            BinOp::Add => Ok(Value::Number(va.to_number(self.doc) + vb.to_number(self.doc))),
            BinOp::Sub => Ok(Value::Number(va.to_number(self.doc) - vb.to_number(self.doc))),
            BinOp::Mul => Ok(Value::Number(va.to_number(self.doc) * vb.to_number(self.doc))),
            BinOp::Div => Ok(Value::Number(va.to_number(self.doc) / vb.to_number(self.doc))),
            BinOp::Mod => Ok(Value::Number(va.to_number(self.doc) % vb.to_number(self.doc))),
            BinOp::Or | BinOp::And => unreachable!("handled above"),
        }
    }

    /// XPath `=`/`!=` semantics: node-sets compare existentially by
    /// string-value; mixed comparisons convert per the spec.
    fn compare_eq(&self, a: &Value, b: &Value, negate: bool) -> bool {
        let result = match (a, b) {
            (Value::NodeSet(na), Value::NodeSet(nb)) => {
                let strs_b: Vec<String> = nb.iter().map(|n| n.string_value(self.doc)).collect();
                na.iter().any(|n| {
                    let s = n.string_value(self.doc);
                    strs_b.iter().any(|t| if negate { s != *t } else { s == *t })
                })
            }
            (Value::NodeSet(ns), other) | (other, Value::NodeSet(ns)) => match other {
                Value::Number(x) => ns.iter().any(|n| {
                    let v = crate::value::str_to_number(&n.string_value(self.doc));
                    if negate {
                        v != *x
                    } else {
                        v == *x
                    }
                }),
                Value::Bool(x) => {
                    let set = !ns.is_empty();
                    if negate {
                        set != *x
                    } else {
                        set == *x
                    }
                }
                _ => ns.iter().any(|n| {
                    let s = n.string_value(self.doc);
                    if negate {
                        s != other.as_string()
                    } else {
                        s == other.as_string()
                    }
                }),
            },
            (Value::Bool(_), _) | (_, Value::Bool(_)) => {
                let r = a.as_bool() == b.as_bool();
                if negate {
                    !r
                } else {
                    r
                }
            }
            (Value::Number(_), _) | (_, Value::Number(_)) => {
                let r = a.as_number() == b.as_number();
                if negate {
                    !r
                } else {
                    r
                }
            }
            (Value::Str(x), Value::Str(y)) => {
                if negate {
                    x != y
                } else {
                    x == y
                }
            }
        };
        result
    }

    /// `<`, `<=`, `>`, `>=`: numeric comparison, existential over node-sets.
    fn compare_rel(&self, a: &Value, b: &Value, cmp: impl Fn(f64, f64) -> bool + Copy) -> bool {
        match (a, b) {
            (Value::NodeSet(na), Value::NodeSet(nb)) => na.iter().any(|n| {
                let x = crate::value::str_to_number(&n.string_value(self.doc));
                nb.iter().any(|m| cmp(x, crate::value::str_to_number(&m.string_value(self.doc))))
            }),
            (Value::NodeSet(ns), other) => {
                let y = other.as_number();
                ns.iter().any(|n| cmp(crate::value::str_to_number(&n.string_value(self.doc)), y))
            }
            (other, Value::NodeSet(ns)) => {
                let x = other.as_number();
                ns.iter().any(|n| cmp(x, crate::value::str_to_number(&n.string_value(self.doc))))
            }
            _ => cmp(a.as_number(), b.as_number()),
        }
    }

    /// Evaluate a location path from the context node.
    pub fn eval_path(&self, path: &PathExpr) -> Result<Vec<XNode>, EvalError> {
        let start: XNode =
            if path.absolute { XNode::Node(self.doc.document_node()) } else { self.node };
        let mut current = vec![start];
        let steps = collapse_descendant_steps(&path.steps);
        let mut steps: &[Step] = &steps;
        // Fast path: an absolute scan `//name[...]` hits the shared cache.
        if path.absolute && matches!(start, XNode::Node(n) if n == self.doc.document_node()) {
            if let Some(Step { axis: Axis::Descendant, test: NodeTest::Name(name), predicates }) =
                steps.first()
            {
                if let Some(all) = self.cached_descendants_named(name) {
                    current = self.apply_predicates((*all).clone(), predicates, false)?;
                    steps = &steps[1..];
                }
            }
        }
        for step in steps.iter() {
            current = self.eval_step_over(&current, step)?;
        }
        Ok(current)
    }

    /// Apply one step to every node of `input`, merging in document order.
    fn eval_step_over(&self, input: &[XNode], step: &Step) -> Result<Vec<XNode>, EvalError> {
        let mut out = Vec::new();
        for &node in input {
            let axis_nodes = self.axis_nodes(node, step.axis);
            let tested: Vec<XNode> = axis_nodes
                .into_iter()
                .filter(|n| self.test_node(*n, &step.test, step.axis))
                .collect();
            let selected =
                self.apply_predicates(tested, &step.predicates, step.axis.is_reverse())?;
            out.extend(selected);
        }
        sort_dedup(self.doc, &mut out);
        Ok(out)
    }

    /// Successive predicate application; each predicate re-indexes positions.
    fn apply_predicates(
        &self,
        mut nodes: Vec<XNode>,
        predicates: &[Expr],
        _reverse: bool,
    ) -> Result<Vec<XNode>, EvalError> {
        for pred in predicates {
            let size = nodes.len();
            let mut kept = Vec::with_capacity(size);
            for (i, &n) in nodes.iter().enumerate() {
                let sub = self.at(n, i + 1, size);
                let v = sub.eval(pred)?;
                let keep = match v {
                    // A numeric predicate selects by position.
                    Value::Number(num) => num == (i + 1) as f64,
                    other => other.as_bool(),
                };
                if keep {
                    kept.push(n);
                }
            }
            nodes = kept;
        }
        Ok(nodes)
    }

    /// Nodes along `axis` from `node`, in axis order (reverse axes yield
    /// nearest-first, per the spec's treatment of `position()`).
    fn axis_nodes(&self, node: XNode, axis: Axis) -> Vec<XNode> {
        let doc = self.doc;
        match axis {
            Axis::Child => match node {
                XNode::Node(n) => doc.children(n).iter().map(|&c| XNode::Node(c)).collect(),
                XNode::Attr { .. } => Vec::new(),
            },
            Axis::Attribute => match node {
                XNode::Node(n) => {
                    (0..doc.attrs(n).len()).map(|index| XNode::Attr { owner: n, index }).collect()
                }
                XNode::Attr { .. } => Vec::new(),
            },
            Axis::SelfAxis => vec![node],
            Axis::Parent => node.parent(doc).into_iter().collect(),
            Axis::Ancestor => {
                let mut out = Vec::new();
                let mut cur = node.parent(doc);
                while let Some(p) = cur {
                    out.push(p);
                    cur = p.parent(doc);
                }
                out
            }
            Axis::AncestorOrSelf => {
                let mut out = vec![node];
                out.extend(self.axis_nodes(node, Axis::Ancestor));
                out
            }
            Axis::Descendant => match node {
                XNode::Node(n) => doc.descendants(n).skip(1).map(XNode::Node).collect(),
                XNode::Attr { .. } => Vec::new(),
            },
            Axis::DescendantOrSelf => match node {
                XNode::Node(n) => doc.descendants(n).map(XNode::Node).collect(),
                XNode::Attr { .. } => vec![node],
            },
            Axis::FollowingSibling => match node {
                XNode::Node(n) => match doc.parent(n) {
                    Some(p) => {
                        let sibs = doc.children(p);
                        let idx = sibs.iter().position(|&s| s == n).unwrap_or(sibs.len());
                        sibs[idx + 1..].iter().map(|&s| XNode::Node(s)).collect()
                    }
                    None => Vec::new(),
                },
                XNode::Attr { .. } => Vec::new(),
            },
            Axis::PrecedingSibling => match node {
                XNode::Node(n) => match doc.parent(n) {
                    Some(p) => {
                        let sibs = doc.children(p);
                        let idx = sibs.iter().position(|&s| s == n).unwrap_or(0);
                        sibs[..idx].iter().rev().map(|&s| XNode::Node(s)).collect()
                    }
                    None => Vec::new(),
                },
                XNode::Attr { .. } => Vec::new(),
            },
        }
    }

    /// Does `node` pass `test` on `axis`? (The principal node type of the
    /// attribute axis is attributes; of all others, elements.)
    pub fn test_node(&self, node: XNode, test: &NodeTest, axis: Axis) -> bool {
        let doc = self.doc;
        match test {
            NodeTest::Node => true,
            NodeTest::Text => {
                matches!(node, XNode::Node(n) if matches!(doc.kind(n), NodeKind::Text(_)))
            }
            NodeTest::Comment => {
                matches!(node, XNode::Node(n) if matches!(doc.kind(n), NodeKind::Comment(_)))
            }
            NodeTest::Any | NodeTest::Name(_) | NodeTest::PrefixAny(_) => {
                let principal = match axis {
                    Axis::Attribute => matches!(node, XNode::Attr { .. }),
                    _ => matches!(node, XNode::Node(n) if doc.is_element(n)),
                };
                if !principal {
                    return false;
                }
                match test {
                    NodeTest::Any => true,
                    // Interned-name integer compare — the hot path of every
                    // axis step.
                    NodeTest::Name(want) => {
                        node.qname(doc).is_some_and(|q| q.atom() == want.atom())
                    }
                    NodeTest::PrefixAny(prefix) => node
                        .name(doc)
                        .strip_prefix(prefix.as_str())
                        .is_some_and(|rest| rest.starts_with(':')),
                    _ => unreachable!(),
                }
            }
        }
    }
}

/// Optimization: `descendant-or-self::node()/child::T` (the expansion of
/// `//T`) is equivalent to `descendant::T`, which avoids materializing
/// every node of the subtree as an intermediate node-set. Only safe when
/// `T`'s predicates are position-free (positional predicates count siblings
/// under the abbreviation, not global descendants).
fn collapse_descendant_steps(steps: &[Step]) -> std::borrow::Cow<'_, [Step]> {
    let collapsible = |i: usize| -> bool {
        let Some(a) = steps.get(i) else { return false };
        let Some(b) = steps.get(i + 1) else { return false };
        a.axis == Axis::DescendantOrSelf
            && a.test == NodeTest::Node
            && a.predicates.is_empty()
            && b.axis == Axis::Child
            && b.predicates.iter().all(|p| !uses_position(p))
    };
    if !(0..steps.len()).any(collapsible) {
        return std::borrow::Cow::Borrowed(steps);
    }
    let mut out = Vec::with_capacity(steps.len());
    let mut i = 0;
    while i < steps.len() {
        if collapsible(i) {
            let next = &steps[i + 1];
            out.push(Step {
                axis: Axis::Descendant,
                test: next.test.clone(),
                predicates: next.predicates.clone(),
            });
            i += 2;
        } else {
            out.push(steps[i].clone());
            i += 1;
        }
    }
    std::borrow::Cow::Owned(out)
}

/// Does this predicate expression depend on context position/size?
fn uses_position(expr: &Expr) -> bool {
    match expr {
        Expr::Number(_) => true, // bare numeric predicate selects by position
        Expr::Literal(_) | Expr::VarRef(_) => false,
        Expr::FnCall(name, args) => {
            name == "position" || name == "last" || args.iter().any(uses_position)
        }
        Expr::Binary(_, a, b) | Expr::Union(a, b) => uses_position(a) || uses_position(b),
        Expr::Negate(e) => uses_position(e),
        // Paths and filters establish their own inner context; only their
        // own top-level use matters, and that is position-independent with
        // respect to *this* predicate's context.
        Expr::Path(_) | Expr::Filter { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn descendant_collapse_preserves_semantics() {
        let doc =
            cn_xml::parse("<a><b><t k='1'/></b><t k='2'/><c><d><t k='3'/></d></c></a>").unwrap();
        let ctx = Ctx::new(&doc, doc.document_node());
        // //t with a value predicate (collapsible)
        let v = ctx.eval(&parse("count(//t[@k != '9'])").unwrap()).unwrap();
        assert_eq!(v, Value::Number(3.0));
        // //t[1] is positional: selects the first t among each parent's
        // children — three parents each contribute their first t.
        let v = ctx.eval(&parse("count(//t[1])").unwrap()).unwrap();
        assert_eq!(v, Value::Number(3.0));
        // (//t)[1] is the globally first.
        let first = ctx.eval(&parse("string((//t)[1]/@k)").unwrap()).unwrap();
        assert_eq!(first.to_string_value(&doc), "1");
    }

    const DOC: &str = r#"<cn2>
      <client class="TransClosure" port="5666">
        <job>
          <task name="tctask0" jar="tasksplit.jar" depends="">
            <task-req><memory>1000</memory><runmodel>RUN_AS_THREAD_IN_TM</runmodel></task-req>
            <param type="String">matrix.txt</param>
          </task>
          <task name="tctask1" jar="tctask.jar" depends="tctask0">
            <param type="Integer">1</param>
          </task>
          <task name="tctask2" jar="tctask.jar" depends="tctask0">
            <param type="Integer">2</param>
          </task>
        </job>
      </client>
    </cn2>"#;

    fn eval(expr: &str) -> Value {
        let doc = cn_xml::parse(DOC).unwrap();
        let ctx = Ctx::new(&doc, doc.document_node());
        let v = ctx.eval(&parse(expr).unwrap()).unwrap();
        // Detach from doc lifetime for assertion convenience.
        match v {
            Value::NodeSet(ns) => Value::Number(ns.len() as f64),
            other => other,
        }
    }

    fn eval_s(expr: &str) -> String {
        let doc = cn_xml::parse(DOC).unwrap();
        let ctx = Ctx::new(&doc, doc.document_node());
        ctx.eval(&parse(expr).unwrap()).unwrap().to_string_value(&doc)
    }

    #[test]
    fn counts_and_paths() {
        assert_eq!(eval("count(/cn2/client/job/task)"), Value::Number(3.0));
        assert_eq!(eval("count(//task)"), Value::Number(3.0));
        assert_eq!(eval("count(//param)"), Value::Number(3.0));
        assert_eq!(eval("count(/cn2/client/@*)"), Value::Number(2.0));
    }

    #[test]
    fn attribute_values() {
        assert_eq!(eval_s("/cn2/client/@class"), "TransClosure");
        assert_eq!(eval_s("//task[1]/@jar"), "tasksplit.jar");
        assert_eq!(eval_s("//task[3]/@name"), "tctask2");
    }

    #[test]
    fn predicates_with_attributes() {
        assert_eq!(eval("count(//task[@depends='tctask0'])"), Value::Number(2.0));
        assert_eq!(eval_s("//task[@name='tctask1']/param"), "1");
    }

    #[test]
    fn positional_predicates() {
        assert_eq!(eval_s("//task[position()=2]/@name"), "tctask1");
        assert_eq!(eval_s("//task[last()]/@name"), "tctask2");
        assert_eq!(eval_s("//task[2]/@name"), "tctask1");
    }

    #[test]
    fn text_nodes() {
        assert_eq!(eval_s("//memory/text()"), "1000");
        assert_eq!(eval_s("string(//task-req/runmodel)"), "RUN_AS_THREAD_IN_TM");
    }

    #[test]
    fn parent_and_ancestor() {
        assert_eq!(eval_s("name((//param)[1]/..)"), "task");
        assert_eq!(eval("count(//memory/ancestor::task)"), Value::Number(1.0));
        // memory, task-req, task, job, client, cn2.
        assert_eq!(eval("count(//memory/ancestor-or-self::*)"), Value::Number(6.0));
    }

    #[test]
    fn siblings() {
        assert_eq!(eval_s("//task[@name='tctask0']/following-sibling::task[1]/@name"), "tctask1");
        assert_eq!(eval_s("//task[@name='tctask2']/preceding-sibling::task[1]/@name"), "tctask1");
        // position() on a reverse axis counts nearest-first.
        assert_eq!(eval_s("//task[@name='tctask2']/preceding-sibling::task[2]/@name"), "tctask0");
    }

    #[test]
    fn unions_merge_in_document_order() {
        let doc = cn_xml::parse(DOC).unwrap();
        let ctx = Ctx::new(&doc, doc.document_node());
        let v = ctx.eval(&parse("//param | //memory").unwrap()).unwrap();
        let ns = v.into_nodeset().unwrap();
        assert_eq!(ns.len(), 4);
        // memory (inside task 0) comes before the task-1 param.
        let names: Vec<&str> = ns.iter().map(|n| n.name(&doc)).collect();
        assert_eq!(names, ["memory", "param", "param", "param"]);
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(eval("1 + 2 * 3"), Value::Number(7.0));
        assert_eq!(eval("10 div 4"), Value::Number(2.5));
        assert_eq!(eval("10 mod 3"), Value::Number(1.0));
        assert_eq!(eval("-(2)"), Value::Number(-2.0));
        assert_eq!(eval("2 < 3"), Value::Bool(true));
        assert_eq!(eval("2 >= 3"), Value::Bool(false));
        assert_eq!(eval("'a' = 'a'"), Value::Bool(true));
        assert_eq!(eval("'a' != 'b'"), Value::Bool(true));
    }

    #[test]
    fn nodeset_comparisons_are_existential() {
        // Some param equals 2.
        assert_eq!(eval("//param = 2"), Value::Bool(true));
        // Some param does not equal 2 (existential !=, true because of "1").
        assert_eq!(eval("//param != 2"), Value::Bool(true));
        assert_eq!(eval("//memory > 999"), Value::Bool(true));
        assert_eq!(eval("//memory > 1000"), Value::Bool(false));
    }

    #[test]
    fn boolean_connectives() {
        assert_eq!(eval("true() and false()"), Value::Bool(false));
        assert_eq!(eval("true() or false()"), Value::Bool(true));
        assert_eq!(eval("not(false())"), Value::Bool(true));
    }

    #[test]
    fn variables_resolve() {
        let doc = cn_xml::parse(DOC).unwrap();
        let mut ctx = Ctx::new(&doc, doc.document_node());
        ctx.bind_var("k", Value::Number(2.0));
        let v = ctx.eval(&parse("$k + 1").unwrap()).unwrap();
        assert_eq!(v, Value::Number(3.0));
        assert!(ctx.eval(&parse("$missing").unwrap()).is_err());
    }

    #[test]
    fn filter_expressions() {
        assert_eq!(eval_s("(//task)[2]/@name"), "tctask1");
        assert_eq!(eval_s("(//task)[last()]/@name"), "tctask2");
    }

    #[test]
    fn relative_paths_from_context_node() {
        let doc = cn_xml::parse(DOC).unwrap();
        let job = doc.find(doc.document_node(), "job").unwrap();
        let ctx = Ctx::new(&doc, job);
        let v = ctx.eval(&parse("task[@name='tctask2']/param").unwrap()).unwrap();
        assert_eq!(v.to_string_value(&doc), "2");
        let v = ctx.eval(&parse("../@port").unwrap()).unwrap();
        assert_eq!(v.to_string_value(&doc), "5666");
    }

    #[test]
    fn descendant_or_self_abbreviation_mid_path() {
        assert_eq!(eval("count(/cn2//param)"), Value::Number(3.0));
    }

    #[test]
    fn wildcard_tests() {
        assert_eq!(eval("count(/cn2/client/job/*)"), Value::Number(3.0));
        assert_eq!(eval("count(//task[1]/task-req/*)"), Value::Number(2.0));
    }
}
