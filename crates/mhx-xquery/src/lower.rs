//! The XPath front end: lowers a parsed extended-XPath [`Expr`] into the
//! query plan ([`QExpr`]), so one optimizer and one evaluator serve both
//! languages.
//!
//! XPath is XQuery's path core. What differs is XPath 1.0's implicit
//! conversions, and the lowering spells each of them out as plain AST, so
//! the function table never branches on the source language:
//!
//! * a node-set where a string is expected means its *first* node:
//!   `contains(//w, 'a')` lowers to `contains((//w)[1], 'a')`;
//! * a node-set where a number is expected (a numeric parameter, an
//!   arithmetic operand) becomes `number((e)[1])`, so an empty node-set
//!   reads as `NaN` rather than `()`;
//! * `tokenize` returns one string, its tokens joined by a space:
//!   `string-join(tokenize(…), ' ')`;
//! * `leaves()` and `hierarchy()` without an argument take the context
//!   node;
//! * a relational comparison against a boolean compares numbers, so the
//!   boolean side becomes `number(…)`;
//! * `.` is the context item.
//!
//! XPath's initial focus — the root node, at position 1 of 1 — is not
//! part of the AST: [`crate::CompiledXQuery::from_xpath`] records it with
//! the plan.

use crate::ast::{ArithOp, Comp, QExpr, QPathStart, QStep};
use mhx_goddag::Axis;
use mhx_xpath::{BinOp, Expr, NodeTest, PathExpr, PathStart};

/// Lower a parsed XPath expression into the query plan.
pub fn lower(e: &Expr) -> QExpr {
    match e {
        Expr::Literal(s) => QExpr::Literal(s.clone()),
        Expr::Number(n) => QExpr::Number(*n),
        Expr::Var(v) => QExpr::Var(v.clone()),
        Expr::Neg(inner) => QExpr::Neg(Box::new(numeric(inner))),
        Expr::Binary { op, lhs, rhs } => lower_binary(*op, lhs, rhs),
        Expr::Call { name, args } => lower_call(name, args),
        Expr::Path(p) if is_dot(p) => QExpr::ContextItem,
        Expr::Path(p) => lower_path(p),
    }
}

fn lower_binary(op: BinOp, lhs: &Expr, rhs: &Expr) -> QExpr {
    let both = || (Box::new(lower(lhs)), Box::new(lower(rhs)));
    let arith = |op| QExpr::Arith { op, lhs: Box::new(numeric(lhs)), rhs: Box::new(numeric(rhs)) };
    let compare = |op| {
        let (lhs, rhs) = both();
        QExpr::Compare { op, lhs, rhs }
    };
    // A relational comparison with a boolean compares numbers.
    let relational = |op| {
        let side = |e: &Expr| {
            let q = lower(e);
            Box::new(if is_boolean(e) { call("number", vec![q]) } else { q })
        };
        QExpr::Compare { op, lhs: side(lhs), rhs: side(rhs) }
    };
    match op {
        BinOp::Or => {
            let (l, r) = both();
            QExpr::Or(l, r)
        }
        BinOp::And => {
            let (l, r) = both();
            QExpr::And(l, r)
        }
        BinOp::Union => {
            let (l, r) = both();
            QExpr::Union(l, r)
        }
        BinOp::Eq => compare(Comp::Eq),
        BinOp::Ne => compare(Comp::Ne),
        BinOp::Lt => relational(Comp::Lt),
        BinOp::Le => relational(Comp::Le),
        BinOp::Gt => relational(Comp::Gt),
        BinOp::Ge => relational(Comp::Ge),
        BinOp::Add => arith(ArithOp::Add),
        BinOp::Sub => arith(ArithOp::Sub),
        BinOp::Mul => arith(ArithOp::Mul),
        BinOp::Div => arith(ArithOp::Div),
        BinOp::Mod => arith(ArithOp::Mod),
    }
}

/// How an XPath function reads its `i`-th argument.
enum Param {
    /// A string: a node-set argument means its first node.
    Str,
    /// A number: a node-set argument means its first node's number.
    Num,
    /// Anything else (node-sets, booleans): passed through.
    Any,
}

fn param(name: &str, i: usize) -> Param {
    match (name, i) {
        ("substring", 1 | 2) | ("floor" | "ceiling" | "round" | "number", 0) => Param::Num,
        (
            "string" | "string-length" | "normalize-space" | "concat" | "starts-with" | "ends-with"
            | "contains" | "substring-before" | "substring-after" | "substring" | "translate"
            | "upper-case" | "lower-case" | "matches" | "replace" | "tokenize",
            _,
        ) => Param::Str,
        _ => Param::Any,
    }
}

fn lower_call(name: &str, args: &[Expr]) -> QExpr {
    let mut lowered: Vec<QExpr> = args
        .iter()
        .enumerate()
        .map(|(i, a)| match param(name, i) {
            // `number()` is itself the conversion: only take the first node.
            Param::Num if name == "number" => first_if_nodes(a),
            Param::Num => numeric(a),
            Param::Str => first_if_nodes(a),
            Param::Any => lower(a),
        })
        .collect();
    if lowered.is_empty() && matches!(name, "leaves" | "hierarchy") {
        lowered.push(QExpr::ContextItem);
    }
    let c = call(name, lowered);
    if name == "tokenize" {
        call("string-join", vec![c, QExpr::Literal(" ".into())])
    } else {
        c
    }
}

fn lower_path(p: &PathExpr) -> QExpr {
    let steps: Vec<QStep> = p
        .steps
        .iter()
        .map(|s| QStep::new(s.axis, s.test.clone(), s.predicates.iter().map(lower).collect()))
        .collect();
    let start = match &p.start {
        PathStart::Root => QPathStart::Root,
        PathStart::Context => QPathStart::Context,
        PathStart::Filter { expr, predicates } => {
            let base = lower(expr);
            let base = if predicates.is_empty() {
                base
            } else {
                QExpr::Filter {
                    base: Box::new(base),
                    predicates: predicates.iter().map(lower).collect(),
                }
            };
            if steps.is_empty() {
                return base;
            }
            QPathStart::Expr(Box::new(base))
        }
    };
    QExpr::Path { start, steps }
}

/// `e` where one atomic value is expected: `(e)[1]` when `e` may be a
/// node-set of any size, `e` itself otherwise.
fn first_if_nodes(e: &Expr) -> QExpr {
    if may_hold_many(e) {
        QExpr::Filter { base: Box::new(lower(e)), predicates: vec![QExpr::Number(1.0)] }
    } else {
        lower(e)
    }
}

/// `e` where a number is expected: `number((e)[1])` for node-sets.
fn numeric(e: &Expr) -> QExpr {
    if may_hold_many(e) {
        call("number", vec![first_if_nodes(e)])
    } else {
        lower(e)
    }
}

/// Can `e` evaluate to a node-set of more than one node? Atomic-valued
/// forms and `.` (exactly the context node) cannot; paths, unions,
/// variables and `leaves()` can. Every other function of the XPath library
/// returns one atomic (a name outside that library gets XQuery semantics
/// unchanged). Over-approximating would only cost a `[1]` filter, the
/// identity on a single item.
fn may_hold_many(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Number(_) | Expr::Neg(_) => false,
        Expr::Binary { op, .. } => *op == BinOp::Union,
        Expr::Var(_) => true,
        Expr::Path(p) => !is_dot(p),
        Expr::Call { name, .. } => name == "leaves",
    }
}

/// Is `e` statically a boolean?
fn is_boolean(e: &Expr) -> bool {
    match e {
        Expr::Binary { op, .. } => matches!(
            op,
            BinOp::Or
                | BinOp::And
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
        ),
        Expr::Call { name, .. } => matches!(
            name.as_str(),
            "boolean"
                | "not"
                | "true"
                | "false"
                | "starts-with"
                | "ends-with"
                | "contains"
                | "matches"
        ),
        _ => false,
    }
}

/// `.` — `self::node()` from the context, no predicates.
fn is_dot(p: &PathExpr) -> bool {
    matches!(p.start, PathStart::Context)
        && matches!(
            p.steps.as_slice(),
            [s] if s.axis == Axis::SelfAxis
                && s.test == NodeTest::AnyNode { hierarchies: None }
                && s.predicates.is_empty()
        )
}

fn call(name: &str, args: Vec<QExpr>) -> QExpr {
    QExpr::Call { name: name.to_string(), args }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lowered(src: &str) -> QExpr {
        lower(&mhx_xpath::parse(src).unwrap())
    }

    fn first(e: QExpr) -> QExpr {
        QExpr::Filter { base: Box::new(e), predicates: vec![QExpr::Number(1.0)] }
    }

    #[test]
    fn node_sets_convert_through_their_first_node() {
        let QExpr::Call { args, .. } = lowered("contains(//w, 'ea')") else { panic!() };
        assert_eq!(args[0], first(lowered("//w")));
        assert_eq!(args[1], QExpr::Literal("ea".into()));
        assert_eq!(
            lowered("floor(//w)"),
            call("floor", vec![call("number", vec![first(lowered("//w"))])])
        );
        assert_eq!(lowered("number(//w)"), call("number", vec![first(lowered("//w"))]));
        // Atomic and context-item arguments need no conversion.
        assert_eq!(lowered("string(.)"), call("string", vec![QExpr::ContextItem]));
        assert_eq!(lowered("floor(2.5)"), call("floor", vec![QExpr::Number(2.5)]));
    }

    #[test]
    fn xpath_library_forms_become_plain_calls() {
        let QExpr::Call { name, args } = lowered("tokenize('a b', ' ')") else { panic!() };
        assert_eq!(name, "string-join");
        assert!(matches!(&args[0], QExpr::Call { name, .. } if name == "tokenize"));
        assert_eq!(lowered("leaves()"), call("leaves", vec![QExpr::ContextItem]));
        assert_eq!(lowered("hierarchy()"), call("hierarchy", vec![QExpr::ContextItem]));
    }

    #[test]
    fn relational_comparisons_with_booleans_compare_numbers() {
        let QExpr::Compare { op: Comp::Gt, lhs, rhs } = lowered("true() > 0.5") else { panic!() };
        assert_eq!(*lhs, call("number", vec![call("true", vec![])]));
        assert_eq!(*rhs, QExpr::Number(0.5));
        // Equality keeps XPath's boolean comparison.
        let QExpr::Compare { lhs, .. } = lowered("true() = 1") else { panic!() };
        assert_eq!(*lhs, call("true", vec![]));
    }

    #[test]
    fn paths_keep_their_steps_and_filters() {
        let QExpr::Path { start: QPathStart::Expr(base), steps } = lowered("(//w)[2]/child::x")
        else {
            panic!()
        };
        assert!(matches!(*base, QExpr::Filter { .. }));
        assert_eq!(steps.len(), 1);
        assert!(matches!(lowered("(//w)[2]"), QExpr::Filter { .. }));
        assert_eq!(lowered("."), QExpr::ContextItem);
    }
}
