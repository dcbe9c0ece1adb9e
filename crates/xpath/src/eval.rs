//! Expression evaluation.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use cn_xml::{Atom, Document, NodeId, QName};

use crate::ast::{Axis, BinOp, Expr, Function, NodeTest, PathExpr, Step};
use crate::functions::call_function;
use crate::value::{sort_dedup, str_to_number, Value, XNode};

/// Runtime evaluation failure (an unbound variable, a key not declared...).
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

/// Evaluation context: the context node and its position within the
/// current node list, and the variable environment.
#[derive(Clone)]
pub struct Ctx<'d> {
    pub doc: &'d Document,
    pub node: XNode,
    /// 1-based context position.
    pub position: usize,
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

    /// A copy of this context focused on a different node and position.
    /// Cheap: the variable environment is shared, not cloned.
    pub fn at(&self, node: XNode, position: usize) -> Ctx<'d> {
        Ctx {
            doc: self.doc,
            node,
            position,
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
            Expr::FnCall(f, args) => {
                let vals = args.iter().map(|a| self.eval(a)).collect::<Result<Vec<_>, _>>()?;
                call_function(self, *f, &vals)
            }
            Expr::Binary(op, a, b) => {
                let (va, vb) = (self.eval(a)?, self.eval(b)?);
                let number = |v: &Value| v.to_number(self.doc);
                Ok(match op {
                    BinOp::Eq => Value::Bool(self.compare_eq(&va, &vb, false)),
                    BinOp::Ne => Value::Bool(self.compare_eq(&va, &vb, true)),
                    BinOp::Add => Value::Number(number(&va) + number(&vb)),
                    BinOp::Sub => Value::Number(number(&va) - number(&vb)),
                })
            }
            Expr::Path(path) => Ok(Value::NodeSet(self.eval_path(path)?)),
            Expr::Filter { primary, predicates, steps } => {
                let base = self
                    .eval(primary)?
                    .into_nodeset()
                    .ok_or_else(|| EvalError::new("filter applied to a non-node-set"))?;
                let filtered = self.apply_predicates(base, predicates)?;
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

    /// XPath `=`/`!=` semantics: node-sets compare existentially by
    /// string-value; mixed comparisons convert per the spec.
    fn compare_eq(&self, a: &Value, b: &Value, negate: bool) -> bool {
        // `x = y`, or `x != y` when negated.
        fn op<T: PartialEq + ?Sized>(x: &T, y: &T, negate: bool) -> bool {
            (x == y) != negate
        }
        let doc = self.doc;
        match (a, b) {
            (Value::NodeSet(na), Value::NodeSet(nb)) => {
                let strs_b: Vec<String> = nb.iter().map(|n| n.string_value(doc)).collect();
                na.iter().any(|n| {
                    let s = n.string_value(doc);
                    strs_b.iter().any(|t| op(&s, t, negate))
                })
            }
            (Value::NodeSet(ns), other) | (other, Value::NodeSet(ns)) => match other {
                Value::Number(x) => {
                    ns.iter().any(|n| op(&str_to_number(&n.string_value(doc)), x, negate))
                }
                Value::Bool(x) => op(&!ns.is_empty(), x, negate),
                _ => {
                    let t = other.as_string();
                    ns.iter().any(|n| op(&n.string_value(doc), &t, negate))
                }
            },
            (Value::Bool(_), _) | (_, Value::Bool(_)) => op(&a.as_bool(), &b.as_bool(), negate),
            (Value::Number(_), _) | (_, Value::Number(_)) => {
                op(&a.as_number(), &b.as_number(), negate)
            }
            (Value::Str(x), Value::Str(y)) => op(x, y, negate),
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
                    current = self.apply_predicates((*all).clone(), predicates)?;
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
            let selected = self.apply_predicates(tested, &step.predicates)?;
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
    ) -> Result<Vec<XNode>, EvalError> {
        for pred in predicates {
            let mut kept = Vec::with_capacity(nodes.len());
            for (i, &n) in nodes.iter().enumerate() {
                let sub = self.at(n, i + 1);
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

    /// Nodes along `axis` from `node`, in document order.
    fn axis_nodes(&self, node: XNode, axis: Axis) -> Vec<XNode> {
        let doc = self.doc;
        match (axis, node) {
            (Axis::SelfAxis, _) | (Axis::DescendantOrSelf, XNode::Attr { .. }) => vec![node],
            (Axis::Parent, _) => node.parent(doc).into_iter().collect(),
            (_, XNode::Attr { .. }) => Vec::new(),
            (Axis::Child, XNode::Node(n)) => {
                doc.children(n).iter().map(|&c| XNode::Node(c)).collect()
            }
            (Axis::Attribute, XNode::Node(n)) => {
                (0..doc.attrs(n).len()).map(|index| XNode::Attr { owner: n, index }).collect()
            }
            (Axis::Descendant, XNode::Node(n)) => {
                doc.descendants(n).skip(1).map(XNode::Node).collect()
            }
            (Axis::DescendantOrSelf, XNode::Node(n)) => {
                doc.descendants(n).map(XNode::Node).collect()
            }
        }
    }

    /// Does `node` pass `test` on `axis`? A name test selects the axis's
    /// principal node type: attributes on the attribute axis, elements on
    /// the others.
    pub fn test_node(&self, node: XNode, test: &NodeTest, axis: Axis) -> bool {
        let doc = self.doc;
        match test {
            NodeTest::Node => true,
            NodeTest::Name(want) => {
                let principal = match axis {
                    Axis::Attribute => matches!(node, XNode::Attr { .. }),
                    _ => matches!(node, XNode::Node(n) if doc.is_element(n)),
                };
                // Interned-name integer compare — the hot path of every
                // axis step.
                principal && node.qname(doc).is_some_and(|q| q.atom() == want.atom())
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

/// Does this predicate expression depend on the context position?
fn uses_position(expr: &Expr) -> bool {
    match expr {
        Expr::Number(_) => true, // bare numeric predicate selects by position
        Expr::Literal(_) | Expr::VarRef(_) => false,
        Expr::FnCall(f, args) => *f == Function::Position || args.iter().any(uses_position),
        Expr::Binary(_, a, b) => uses_position(a) || uses_position(b),
        // Paths and filters establish their own inner context; only their
        // own top-level use matters, and that is position-independent with
        // respect to *this* predicate's context.
        Expr::Path(_) | Expr::Filter { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, ErrorCode};

    #[test]
    fn descendant_collapse_preserves_semantics() {
        let doc =
            cn_xml::parse("<a><b><t k='1'/></b><t k='2'/><c><d><t k='3'/></d></c></a>").unwrap();
        let ctx = Ctx::new(&doc, doc.document_node());
        let len = |src: &str| ctx.eval(&parse(src).unwrap()).unwrap().into_nodeset().unwrap().len();
        // //t with a value predicate (collapsible)
        assert_eq!(len("//t[@k != '9']"), 3);
        // //t[1] is positional: selects the first t among each parent's
        // children — three parents each contribute their first t.
        assert_eq!(len("//t[1]"), 3);
        // (//t)[1] is the globally first.
        let first = ctx.eval(&parse("(//t)[1]/@k").unwrap()).unwrap();
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

    /// The value of `expr` from the document node; a node-set reads as its
    /// length.
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

    /// The code `expr` is refused with.
    fn refused(expr: &str) -> ErrorCode {
        parse(expr).unwrap_err().code()
    }

    #[test]
    fn counts_and_paths() {
        assert_eq!(eval("/cn2/client/job/task"), Value::Number(3.0));
        assert_eq!(eval("//task"), Value::Number(3.0));
        assert_eq!(eval("//param"), Value::Number(3.0));
        assert_eq!(eval("/cn2/client/@port"), Value::Number(1.0));
    }

    #[test]
    fn attribute_values() {
        assert_eq!(eval_s("/cn2/client/@class"), "TransClosure");
        assert_eq!(eval_s("//task[1]/@jar"), "tasksplit.jar");
        assert_eq!(eval_s("//task[3]/@name"), "tctask2");
    }

    #[test]
    fn predicates_with_attributes() {
        assert_eq!(eval("//task[@depends='tctask0']"), Value::Number(2.0));
        assert_eq!(eval_s("//task[@name='tctask1']/param"), "1");
    }

    #[test]
    fn positional_predicates() {
        assert_eq!(eval_s("//task[position()=2]/@name"), "tctask1");
        assert_eq!(eval_s("//task[position()=3]/@name"), "tctask2");
        assert_eq!(eval_s("//task[2]/@name"), "tctask1");
        assert_eq!(refused("//task[last()]"), ErrorCode::XPST0017);
    }

    #[test]
    fn text_nodes() {
        // Text is read through an element's string-value; `text()` is not a
        // node test the grammar has.
        assert_eq!(eval_s("//memory"), "1000");
        assert_eq!(eval_s("//task-req/runmodel"), "RUN_AS_THREAD_IN_TM");
        assert_eq!(refused("//memory/text()"), ErrorCode::XPST0003);
    }

    #[test]
    fn parent_and_ancestor() {
        assert_eq!(eval_s("(//param)[1]/../@name"), "tctask0");
        assert_eq!(eval_s("//memory/../../@name"), "tctask0");
        assert_eq!(refused("//memory/ancestor::task"), ErrorCode::XPST0003);
        assert_eq!(refused("//memory/ancestor-or-self::task"), ErrorCode::XPST0003);
    }

    #[test]
    fn siblings() {
        assert_eq!(refused("//task/following-sibling::task[1]"), ErrorCode::XPST0003);
        assert_eq!(refused("//task/preceding-sibling::task[1]"), ErrorCode::XPST0003);
    }

    #[test]
    fn unions_merge_in_document_order() {
        // A step taken from several context nodes merges its results in
        // document order, once each: each param's grandparent is the one
        // job, whose three tasks come back once.
        let doc = cn_xml::parse(DOC).unwrap();
        let ctx = Ctx::new(&doc, doc.document_node());
        let v = ctx.eval(&parse("//task/param/../../task/@name").unwrap()).unwrap();
        let names: Vec<String> =
            v.into_nodeset().unwrap().iter().map(|n| n.string_value(&doc)).collect();
        assert_eq!(names, ["tctask0", "tctask1", "tctask2"]);
        // The `|` operator itself is outside the grammar.
        assert_eq!(refused("//param | //memory"), ErrorCode::XPST0003);
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(eval("1 + 2 - 4"), Value::Number(-1.0));
        assert_eq!(eval("'3' + 1"), Value::Number(4.0));
        assert_eq!(eval("'a' = 'a'"), Value::Bool(true));
        assert_eq!(eval("'a' != 'b'"), Value::Bool(true));
        assert_eq!(eval("1 = 1.0"), Value::Bool(true));
        for src in ["1 + 2 * 3", "10 div 4", "10 mod 3", "-(2)", "2 < 3", "2 >= 3"] {
            assert_eq!(refused(src), ErrorCode::XPST0003, "{src}");
        }
    }

    #[test]
    fn nodeset_comparisons_are_existential() {
        // Some param equals 2.
        assert_eq!(eval("//param = 2"), Value::Bool(true));
        // Some param does not equal 2 (existential !=, true because of "1").
        assert_eq!(eval("//param != 2"), Value::Bool(true));
        assert_eq!(eval("//memory = '1000'"), Value::Bool(true));
        assert_eq!(eval("//nothing = //nothing"), Value::Bool(false));
    }

    #[test]
    fn boolean_connectives() {
        assert_eq!(eval("not(//nothing)"), Value::Bool(true));
        assert_eq!(eval("not(//task)"), Value::Bool(false));
        assert_eq!(refused("//task and //job"), ErrorCode::XPST0003);
        assert_eq!(refused("//task or //job"), ErrorCode::XPST0003);
        assert_eq!(refused("true()"), ErrorCode::XPST0017);
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
        assert_eq!(eval_s("(//task)[position() = 3]/@name"), "tctask2");
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
        assert_eq!(eval("/cn2//param"), Value::Number(3.0));
        assert_eq!(eval("/cn2/client/.//memory"), Value::Number(1.0));
    }

    #[test]
    fn wildcard_tests() {
        assert_eq!(refused("/cn2/client/job/*"), ErrorCode::XPST0003);
        assert_eq!(refused("/cn2/client/@*"), ErrorCode::XPST0003);
    }
}
