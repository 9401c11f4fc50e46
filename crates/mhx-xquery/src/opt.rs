//! Plan-level optimizer: plan-to-plan rewrites over [`QExpr`] path
//! expressions, shared by both front ends (XPath text is lowered into the
//! same AST by [`crate::lower`]).
//!
//! Evaluation leaves predicates as written and resolves every predicated
//! step per context node, because `position()`/`last()` are assigned
//! within each context node's candidate list. On the extended axes that
//! is expensive: an `xfollowing::*[xancestor::page]` step pays span-index
//! lookups per context node per candidate. The rewrites recover the
//! set-at-a-time path for predicates that cannot observe the focus:
//!
//! 1. **Classification** ([`classify_predicate`]): a predicate is
//!    *position-free* when it references neither `position()` nor `last()`
//!    in the current focus (nested predicates get a fresh focus and do not
//!    count) **and** its statically known type can never be numeric (a
//!    numeric predicate value is the `[2]` position shorthand). Anything of
//!    unknown type is conservatively *positional*.
//! 2. **Step fusion**: the parsers desugar `//x` to
//!    `descendant-or-self::node()/child::x`; when the second step's
//!    predicates are all free, the pair fuses to one indexed
//!    `descendant::x` scan.
//! 3. **Containment-chain join**: a predicate-free `descendant::a`
//!    followed by `descendant::b` becomes one merge join.
//! 4. **Reordering**: within each run of consecutive free predicates,
//!    cheapest first ([`stats_order`] re-prices named scans per document
//!    at evaluation time). Free filters commute, and a run never crosses a
//!    positional predicate.
//! 5. **Batch routing**: a step whose predicates are all free resolves the
//!    whole context set in one index pass and filters the deduplicated
//!    union once.
//! 6. **Existential probes and hoisting** on batch-routed steps: a
//!    boolean single-step extended-axis predicate stops at the first
//!    witness; a context-independent predicate is evaluated once per step.
//!
//! Predicates can mutate the copy-on-write KyGODDAG through
//! `analyze-string()` (temporary hierarchies installed mid-query), and the
//! per-node path makes that mutation visible to *subsequent context nodes*
//! of the same step. "Free" therefore also means **pure**
//! ([`QExpr::uses_analyze_string`] is false): an impure predicate pins the
//! step to the per-node path so the mutation interleaving stays exactly as
//! written.
//!
//! Every rewrite is proved invisible by `tests/plan_optimizer_differential.rs`
//! (optimized == as-written on random documents and predicate mixes); the
//! `optimize` knob on [`crate::EvalOptions`] selects either plan of one
//! compiled query.

use crate::ast::{AttrPiece, Clause, Comp, Content, DirElem, QExpr, QPathStart, QStep};
use mhx_goddag::{Axis, IndexStats};
use mhx_xpath::{NodeTest, StepStrategy};

/// The optimizer's verdict on one predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateClass {
    /// Cannot observe `position()`/`last()` and can never evaluate to a
    /// number: safe to reorder among its position-free neighbours and to
    /// apply set-at-a-time over a batched candidate union.
    PositionFree,
    /// Everything else (including conservatively-unknown expressions).
    Positional,
}

/// Counts of rewrites applied to one compiled query. Surfaced through
/// [`crate::CompiledXQuery::report`] and the engine stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerReport {
    /// `descendant-or-self::node()/child::x` pairs collapsed into a single
    /// indexed `descendant::x` scan.
    pub fused_steps: u32,
    /// Predicate runs whose order changed (cheapest-first).
    pub reordered_predicate_runs: u32,
    /// Predicated steps routed through the set-at-a-time batch path.
    pub batch_routed_steps: u32,
    /// Boolean single-step extended-axis predicates annotated to answer
    /// through a first-witness `axis_exists` probe.
    pub existential_probes: u32,
    /// Context-independent predicates annotated for once-per-step
    /// hoisting out of the per-candidate loop.
    pub hoisted_predicates: u32,
    /// `descendant::a/descendant::b` pairs fused into one containment-
    /// chain merge join.
    pub chain_join_steps: u32,
}

impl OptimizerReport {
    /// Total rewrites applied (0 = the plan was already optimal).
    pub fn total(&self) -> u32 {
        self.fused_steps
            + self.reordered_predicate_runs
            + self.batch_routed_steps
            + self.existential_probes
            + self.hoisted_predicates
            + self.chain_join_steps
    }
}

/// Relative cost of resolving one step — dimensionless weights used only
/// to order free predicates cheapest-first.
pub fn step_cost(strategy: StepStrategy, axis: Axis) -> u64 {
    match strategy {
        // Span-index interval lookups — the expensive extended axes.
        StepStrategy::IndexedExtended => 64,
        // One name-run / leaf-run intersection.
        StepStrategy::NameIndex | StepStrategy::LeafRange => 24,
        StepStrategy::AxisWalk => match axis {
            Axis::SelfAxis | Axis::Attribute | Axis::Parent => 2,
            Axis::Child
            | Axis::FollowingSibling
            | Axis::PrecedingSibling
            | Axis::Ancestor
            | Axis::AncestorOrSelf => 6,
            // Whole-subtree / whole-document walks.
            _ => 48,
        },
    }
}

/// Classify one XQuery predicate (see module docs).
pub fn classify_predicate(pred: &QExpr) -> PredicateClass {
    if !uses_focus(pred) && !matches!(static_type(pred), Ty::Num | Ty::Unknown) {
        PredicateClass::PositionFree
    } else {
        PredicateClass::Positional
    }
}

/// Position-free *and* pure — the condition for reordering, batch routing
/// and fusion.
fn is_free(pred: &QExpr) -> bool {
    classify_predicate(pred) == PredicateClass::PositionFree && !pred.uses_analyze_string()
}

/// Does the expression read the *current* focus position or size?
/// Predicates (of steps and filters) get a fresh focus and are skipped;
/// everything else — FLWOR clause sources, function arguments, filter
/// bases, path-start expressions — evaluates under the current focus.
fn uses_focus(e: &QExpr) -> bool {
    match e {
        QExpr::Literal(_) | QExpr::Number(_) | QExpr::Var(_) | QExpr::ContextItem => false,
        QExpr::Sequence(es) => es.iter().any(uses_focus),
        QExpr::Flwor { clauses, ret } => {
            clauses.iter().any(|c| match c {
                Clause::For { seq, .. } => uses_focus(seq),
                Clause::Let { expr, .. } => uses_focus(expr),
                Clause::Where(e) => uses_focus(e),
                Clause::OrderBy { keys } => keys.iter().any(|k| uses_focus(&k.key)),
            }) || uses_focus(ret)
        }
        QExpr::If { cond, then, els } => uses_focus(cond) || uses_focus(then) || uses_focus(els),
        QExpr::Quantified { binds, satisfies, .. } => {
            binds.iter().any(|(_, e)| uses_focus(e)) || uses_focus(satisfies)
        }
        QExpr::Or(a, b) | QExpr::And(a, b) | QExpr::Union(a, b) => uses_focus(a) || uses_focus(b),
        QExpr::Compare { lhs, rhs, .. } | QExpr::Arith { lhs, rhs, .. } => {
            uses_focus(lhs) || uses_focus(rhs)
        }
        QExpr::Range { lo, hi } => uses_focus(lo) || uses_focus(hi),
        QExpr::Neg(inner) => uses_focus(inner),
        QExpr::Call { name, args } => {
            matches!(name.as_str(), "position" | "last") || args.iter().any(uses_focus)
        }
        QExpr::Path { start, .. } => match start {
            QPathStart::Expr(e) => uses_focus(e),
            QPathStart::Root | QPathStart::Context => false,
        },
        QExpr::Filter { base, .. } => uses_focus(base),
        QExpr::DirElem(d) => dir_uses_focus(d),
    }
}

fn dir_uses_focus(d: &DirElem) -> bool {
    d.attrs
        .iter()
        .any(|(_, pieces)| pieces.iter().any(|p| matches!(p, AttrPiece::Expr(e) if uses_focus(e))))
        || d.content.iter().any(|c| match c {
            Content::Text(_) => false,
            Content::Expr(e) => uses_focus(e),
            Content::Elem(inner) => dir_uses_focus(inner),
        })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Bool,
    Str,
    Num,
    Nodes,
    Unknown,
}

fn static_type(e: &QExpr) -> Ty {
    match e {
        QExpr::Literal(_) => Ty::Str,
        QExpr::Number(_) => Ty::Num,
        QExpr::Var(_) | QExpr::ContextItem | QExpr::Flwor { .. } => Ty::Unknown,
        // ebv([]) is false; a non-empty literal sequence could hold
        // anything — conservatively unknown.
        QExpr::Sequence(es) => {
            if es.is_empty() {
                Ty::Bool
            } else {
                Ty::Unknown
            }
        }
        QExpr::If { then, els, .. } => {
            let (a, b) = (static_type(then), static_type(els));
            if a == b {
                a
            } else {
                Ty::Unknown
            }
        }
        QExpr::Quantified { .. } | QExpr::Or(_, _) | QExpr::And(_, _) => Ty::Bool,
        QExpr::Compare { op, .. } => match op {
            // Value/node comparisons on empty operands yield (), but ()
            // is never numeric, so Bool stays safe for classification.
            Comp::Is | Comp::Before | Comp::After => Ty::Bool,
            _ => Ty::Bool,
        },
        QExpr::Range { .. } | QExpr::Arith { .. } | QExpr::Neg(_) => Ty::Num,
        QExpr::Union(_, _) | QExpr::Path { .. } | QExpr::DirElem(_) => Ty::Nodes,
        QExpr::Filter { base, .. } => match static_type(base) {
            Ty::Nodes => Ty::Nodes,
            _ => Ty::Unknown,
        },
        QExpr::Call { name, .. } => match name.as_str() {
            "boolean" | "not" | "true" | "false" | "empty" | "exists" | "starts-with"
            | "ends-with" | "contains" | "matches" => Ty::Bool,
            "string" | "string-join" | "concat" | "substring" | "substring-before"
            | "substring-after" | "normalize-space" | "translate" | "upper-case" | "lower-case"
            | "name" | "local-name" | "replace" | "serialize" | "hierarchy" => Ty::Str,
            "position" | "last" | "count" | "string-length" | "number" | "sum" | "avg" | "min"
            | "max" | "abs" | "floor" | "ceiling" | "round" | "leaf-count" => Ty::Num,
            "root" | "leaves" | "analyze-string" => Ty::Nodes,
            _ => Ty::Unknown,
        },
    }
}

/// Relative cost weights for ordering free predicates. With a document's
/// `stats`, named scans are priced at the document's actual name
/// frequency instead of the fixed [`step_cost`] weight.
fn cost(e: &QExpr, stats: Option<&IndexStats>) -> u64 {
    let c = |x: &QExpr| cost(x, stats);
    match e {
        QExpr::Literal(_) | QExpr::Number(_) | QExpr::Var(_) | QExpr::ContextItem => 1,
        QExpr::Sequence(es) => 1 + es.iter().map(c).sum::<u64>(),
        QExpr::Flwor { clauses, ret } => {
            4 + clauses
                .iter()
                .map(|cl| match cl {
                    Clause::For { seq, .. } => c(seq),
                    Clause::Let { expr, .. } => c(expr),
                    Clause::Where(e) => c(e),
                    Clause::OrderBy { keys } => keys.iter().map(|k| c(&k.key)).sum(),
                })
                .sum::<u64>()
                + c(ret)
        }
        QExpr::If { cond, then, els } => 1 + c(cond) + c(then).max(c(els)),
        QExpr::Quantified { binds, satisfies, .. } => {
            2 + binds.iter().map(|(_, e)| c(e)).sum::<u64>() + c(satisfies)
        }
        QExpr::Or(a, b) | QExpr::And(a, b) | QExpr::Union(a, b) => 1 + c(a) + c(b),
        QExpr::Compare { lhs, rhs, .. } | QExpr::Arith { lhs, rhs, .. } => 1 + c(lhs) + c(rhs),
        QExpr::Range { lo, hi } => 1 + c(lo) + c(hi),
        QExpr::Neg(inner) => 1 + c(inner),
        QExpr::Call { name, args } => {
            let base = match name.as_str() {
                // Regex compilation per call.
                "matches" | "replace" | "tokenize" | "analyze-string" => 16,
                _ => 2,
            };
            base + args.iter().map(c).sum::<u64>()
        }
        QExpr::Path { start, steps } => {
            let start_cost = match start {
                QPathStart::Expr(e) => c(e),
                QPathStart::Root | QPathStart::Context => 0,
            };
            start_cost
                + steps
                    .iter()
                    .map(|s| {
                        let fixed = step_cost(s.strategy, s.axis);
                        let step = match (&s.test, stats) {
                            (NodeTest::Name { name, .. }, Some(st)) if fixed > 8 => {
                                2 + st.name_count(name)
                            }
                            _ => fixed,
                        };
                        step + s.predicates.iter().map(c).sum::<u64>()
                    })
                    .sum::<u64>()
        }
        QExpr::Filter { base, predicates } => 1 + c(base) + predicates.iter().map(c).sum::<u64>(),
        QExpr::DirElem(_) => 8,
    }
}

/// Optimize a query plan. The input is untouched; the engine runs this
/// once at compile time ([`crate::CompiledXQuery`] carries both forms),
/// so a cached plan serves both knob settings without key forking.
pub fn optimize(ast: &QExpr) -> (QExpr, OptimizerReport) {
    let mut report = OptimizerReport::default();
    let out = opt_expr(ast, &mut report);
    (out, report)
}

fn opt_expr(e: &QExpr, r: &mut OptimizerReport) -> QExpr {
    match e {
        QExpr::Literal(_) | QExpr::Number(_) | QExpr::Var(_) | QExpr::ContextItem => e.clone(),
        QExpr::Sequence(es) => QExpr::Sequence(es.iter().map(|e| opt_expr(e, r)).collect()),
        QExpr::Flwor { clauses, ret } => QExpr::Flwor {
            clauses: clauses
                .iter()
                .map(|c| match c {
                    Clause::For { var, at, seq } => {
                        Clause::For { var: var.clone(), at: at.clone(), seq: opt_expr(seq, r) }
                    }
                    Clause::Let { var, expr } => {
                        Clause::Let { var: var.clone(), expr: opt_expr(expr, r) }
                    }
                    Clause::Where(e) => Clause::Where(opt_expr(e, r)),
                    Clause::OrderBy { keys } => Clause::OrderBy {
                        keys: keys
                            .iter()
                            .map(|k| crate::ast::OrderKeySpec {
                                key: opt_expr(&k.key, r),
                                descending: k.descending,
                            })
                            .collect(),
                    },
                })
                .collect(),
            ret: Box::new(opt_expr(ret, r)),
        },
        QExpr::If { cond, then, els } => QExpr::If {
            cond: Box::new(opt_expr(cond, r)),
            then: Box::new(opt_expr(then, r)),
            els: Box::new(opt_expr(els, r)),
        },
        QExpr::Quantified { every, binds, satisfies } => QExpr::Quantified {
            every: *every,
            binds: binds.iter().map(|(v, e)| (v.clone(), opt_expr(e, r))).collect(),
            satisfies: Box::new(opt_expr(satisfies, r)),
        },
        QExpr::Or(a, b) => QExpr::Or(Box::new(opt_expr(a, r)), Box::new(opt_expr(b, r))),
        QExpr::And(a, b) => QExpr::And(Box::new(opt_expr(a, r)), Box::new(opt_expr(b, r))),
        QExpr::Union(a, b) => QExpr::Union(Box::new(opt_expr(a, r)), Box::new(opt_expr(b, r))),
        QExpr::Compare { op, lhs, rhs } => QExpr::Compare {
            op: *op,
            lhs: Box::new(opt_expr(lhs, r)),
            rhs: Box::new(opt_expr(rhs, r)),
        },
        QExpr::Range { lo, hi } => {
            QExpr::Range { lo: Box::new(opt_expr(lo, r)), hi: Box::new(opt_expr(hi, r)) }
        }
        QExpr::Arith { op, lhs, rhs } => QExpr::Arith {
            op: *op,
            lhs: Box::new(opt_expr(lhs, r)),
            rhs: Box::new(opt_expr(rhs, r)),
        },
        QExpr::Neg(inner) => QExpr::Neg(Box::new(opt_expr(inner, r))),
        QExpr::Call { name, args } => {
            QExpr::Call { name: name.clone(), args: args.iter().map(|a| opt_expr(a, r)).collect() }
        }
        QExpr::Filter { base, predicates } => {
            let mut preds: Vec<QExpr> = predicates.iter().map(|p| opt_expr(p, r)).collect();
            r.reordered_predicate_runs += reorder_free_runs(&mut preds);
            QExpr::Filter { base: Box::new(opt_expr(base, r)), predicates: preds }
        }
        QExpr::DirElem(d) => QExpr::DirElem(opt_dir(d, r)),
        QExpr::Path { start, steps } => opt_path(start, steps, r),
    }
}

fn opt_dir(d: &DirElem, r: &mut OptimizerReport) -> DirElem {
    DirElem {
        name: d.name.clone(),
        attrs: d
            .attrs
            .iter()
            .map(|(n, pieces)| {
                (
                    n.clone(),
                    pieces
                        .iter()
                        .map(|p| match p {
                            AttrPiece::Text(t) => AttrPiece::Text(t.clone()),
                            AttrPiece::Expr(e) => AttrPiece::Expr(opt_expr(e, r)),
                        })
                        .collect(),
                )
            })
            .collect(),
        content: d
            .content
            .iter()
            .map(|c| match c {
                Content::Text(t) => Content::Text(t.clone()),
                Content::Expr(e) => Content::Expr(opt_expr(e, r)),
                Content::Elem(inner) => Content::Elem(opt_dir(inner, r)),
            })
            .collect(),
    }
}

fn opt_path(start: &QPathStart, steps: &[QStep], r: &mut OptimizerReport) -> QExpr {
    let start = match start {
        QPathStart::Root => QPathStart::Root,
        QPathStart::Context => QPathStart::Context,
        QPathStart::Expr(e) => QPathStart::Expr(Box::new(opt_expr(e, r))),
    };
    let mut steps: Vec<QStep> = steps
        .iter()
        .map(|s| {
            let mut out = s.clone();
            out.predicates = s.predicates.iter().map(|p| opt_expr(p, r)).collect();
            out
        })
        .collect();

    // Pass 1 — fuse `descendant-or-self::node()` + downward step pairs.
    let mut fused: Vec<QStep> = Vec::with_capacity(steps.len());
    let mut i = 0;
    while i < steps.len() {
        if i + 1 < steps.len() && is_dos_any_node(&steps[i]) {
            let next = &steps[i + 1];
            let downward =
                matches!(next.axis, Axis::Child | Axis::Descendant | Axis::DescendantOrSelf);
            if downward && next.predicates.iter().all(is_free) {
                let axis = if next.axis == Axis::DescendantOrSelf {
                    Axis::DescendantOrSelf
                } else {
                    Axis::Descendant
                };
                let mut s = QStep::new(axis, next.test.clone(), next.predicates.clone());
                s.rewritten = true;
                r.fused_steps += 1;
                fused.push(s);
                i += 2;
                continue;
            }
        }
        fused.push(steps[i].clone());
        i += 1;
    }
    steps = fused;

    // Pass 1b — containment-chain join: a predicate-free `descendant::a` followed by `descendant::b` (plain
    // name tests) collapses into one merge join over the laminar
    // containment chains. The inner step's predicates must all be free
    // (position-free *and* pure) — the join hands the evaluator the
    // deduplicated union.
    let mut chained: Vec<QStep> = Vec::with_capacity(steps.len());
    let mut i = 0;
    while i < steps.len() {
        if i + 1 < steps.len() {
            let (a, b) = (&steps[i], &steps[i + 1]);
            if is_plain_descendant_name(a)
                && a.predicates.is_empty()
                && a.chain_outer.is_none()
                && is_plain_descendant_name(b)
                && b.chain_outer.is_none()
                && b.predicates.iter().all(is_free)
            {
                let NodeTest::Name { name: outer_name, .. } = &a.test else { unreachable!() };
                let mut s = b.clone();
                s.chain_outer = Some(outer_name.clone());
                s.rewritten = true;
                r.chain_join_steps += 1;
                chained.push(s);
                i += 2;
                continue;
            }
        }
        chained.push(steps[i].clone());
        i += 1;
    }
    steps = chained;

    // Pass 2 — cheapest-first within position-free pure runs.
    // Pass 3 — flag all-free steps for the batch path.
    // Pass 4 — probe/hoist annotations on the steps the batch path
    // evaluates (the only consumer of the annotations).
    for step in &mut steps {
        let runs = reorder_free_runs(&mut step.predicates);
        if runs > 0 {
            r.reordered_predicate_runs += runs;
            step.rewritten = true;
        }
        if !step.predicates.is_empty() && step.predicates.iter().all(is_free) {
            step.preds_position_free = true;
            step.rewritten = true;
            r.batch_routed_steps += 1;
        }
        if step.preds_position_free || step.chain_outer.is_some() {
            step.pred_probes = step.predicates.iter().map(probe_of).collect();
            step.pred_hoistable = step
                .predicates
                .iter()
                .map(|p| {
                    is_context_independent(p)
                        && !matches!(static_type(p), Ty::Num | Ty::Unknown)
                        && !p.uses_analyze_string()
                })
                .collect();
            r.existential_probes += step.pred_probes.iter().filter(|p| p.is_some()).count() as u32;
            r.hoisted_predicates += step.pred_hoistable.iter().filter(|&&h| h).count() as u32;
        }
    }
    QExpr::Path { start, steps }
}

fn is_dos_any_node(s: &QStep) -> bool {
    s.axis == Axis::DescendantOrSelf
        && matches!(&s.test, NodeTest::AnyNode { hierarchies: None })
        && s.predicates.is_empty()
}

/// Plain `descendant::name` — the chain-join shape.
fn is_plain_descendant_name(s: &QStep) -> bool {
    s.axis == Axis::Descendant
        && matches!(&s.test, NodeTest::Name { hierarchies: None, .. })
        && s.strategy == StepStrategy::NameIndex
}

/// The existential-probe shape: a relative single-step extended-axis path
/// with no predicates of its own.
fn probe_of(pred: &QExpr) -> Option<(Axis, NodeTest)> {
    let QExpr::Path { start: QPathStart::Context, steps } = pred else { return None };
    let [step] = steps.as_slice() else { return None };
    if !step.predicates.is_empty() || step.strategy != StepStrategy::IndexedExtended {
        return None;
    }
    Some((step.axis, step.test.clone()))
}

/// Can the expression's value depend on the focus (context item, position,
/// size)? `false` ⇒ safe to evaluate once per step. Direct constructors
/// conservatively stay per-candidate.
pub fn is_context_independent(e: &QExpr) -> bool {
    match e {
        QExpr::Literal(_) | QExpr::Number(_) | QExpr::Var(_) => true,
        QExpr::ContextItem | QExpr::DirElem(_) => false,
        QExpr::Sequence(es) => es.iter().all(is_context_independent),
        QExpr::Flwor { clauses, ret } => {
            clauses.iter().all(|c| match c {
                Clause::For { seq, .. } => is_context_independent(seq),
                Clause::Let { expr, .. } => is_context_independent(expr),
                Clause::Where(e) => is_context_independent(e),
                Clause::OrderBy { keys } => keys.iter().all(|k| is_context_independent(&k.key)),
            }) && is_context_independent(ret)
        }
        QExpr::If { cond, then, els } => {
            is_context_independent(cond)
                && is_context_independent(then)
                && is_context_independent(els)
        }
        QExpr::Quantified { binds, satisfies, .. } => {
            binds.iter().all(|(_, e)| is_context_independent(e))
                && is_context_independent(satisfies)
        }
        QExpr::Or(a, b) | QExpr::And(a, b) | QExpr::Union(a, b) => {
            is_context_independent(a) && is_context_independent(b)
        }
        QExpr::Compare { lhs, rhs, .. } | QExpr::Arith { lhs, rhs, .. } => {
            is_context_independent(lhs) && is_context_independent(rhs)
        }
        QExpr::Range { lo, hi } => is_context_independent(lo) && is_context_independent(hi),
        QExpr::Neg(inner) => is_context_independent(inner),
        QExpr::Call { name, args } => {
            if matches!(name.as_str(), "position" | "last") {
                return false;
            }
            // Zero-argument functions default to the context item.
            if args.is_empty() && !matches!(name.as_str(), "true" | "false") {
                return false;
            }
            args.iter().all(is_context_independent)
        }
        QExpr::Path { start, .. } => match start {
            QPathStart::Root => true,
            QPathStart::Expr(e) => is_context_independent(e),
            QPathStart::Context => false,
        },
        QExpr::Filter { base, .. } => is_context_independent(base),
    }
}

/// Evaluation order for an all-free predicate list, decided per document
/// from the index statistics.
pub fn stats_order(preds: &[QExpr], stats: &IndexStats) -> Vec<usize> {
    if preds.len() < 2 {
        return (0..preds.len()).collect();
    }
    let mut order: Vec<usize> = (0..preds.len()).collect();
    let costs: Vec<u64> = preds.iter().map(|p| cost(p, Some(stats))).collect();
    order.sort_by_key(|&i| costs[i]);
    order
}

/// A one-line human summary of a query sub-expression, for `--explain`
/// output. Lossy by design: enough to recognize the predicate, not to
/// re-parse it.
pub fn qexpr_summary(e: &QExpr) -> String {
    match e {
        QExpr::Literal(s) => format!("'{s}'"),
        QExpr::Number(n) => format!("{n}"),
        QExpr::Var(v) => format!("${v}"),
        QExpr::ContextItem => ".".to_string(),
        QExpr::Neg(inner) => format!("-{}", qexpr_summary(inner)),
        QExpr::Or(a, b) => format!("{} or {}", qexpr_summary(a), qexpr_summary(b)),
        QExpr::And(a, b) => format!("{} and {}", qexpr_summary(a), qexpr_summary(b)),
        QExpr::Union(a, b) => format!("{} | {}", qexpr_summary(a), qexpr_summary(b)),
        QExpr::Compare { op, lhs, rhs } => {
            format!("{} {op:?} {}", qexpr_summary(lhs), qexpr_summary(rhs))
        }
        QExpr::Arith { op, lhs, rhs } => {
            format!("{} {op:?} {}", qexpr_summary(lhs), qexpr_summary(rhs))
        }
        QExpr::Range { lo, hi } => format!("{} to {}", qexpr_summary(lo), qexpr_summary(hi)),
        QExpr::Call { name, args } => {
            let args: Vec<String> = args.iter().map(qexpr_summary).collect();
            format!("{name}({})", args.join(", "))
        }
        QExpr::Path { start, steps } => {
            let mut out = match start {
                QPathStart::Root => "/".to_string(),
                QPathStart::Context => String::new(),
                QPathStart::Expr(e) => format!("({})", qexpr_summary(e)),
            };
            for (i, s) in steps.iter().enumerate() {
                if i > 0 || matches!(start, QPathStart::Expr(_)) {
                    out.push('/');
                }
                out.push_str(&format!("{}::{}", s.axis.name(), s.test));
                for q in &s.predicates {
                    out.push_str(&format!("[{}]", qexpr_summary(q)));
                }
            }
            out
        }
        QExpr::Filter { base, predicates } => {
            let mut out = format!("({})", qexpr_summary(base));
            for q in predicates {
                out.push_str(&format!("[{}]", qexpr_summary(q)));
            }
            out
        }
        QExpr::Sequence(es) => {
            let parts: Vec<String> = es.iter().map(qexpr_summary).collect();
            format!("({})", parts.join(", "))
        }
        QExpr::If { .. } => "if(…)".to_string(),
        QExpr::Flwor { .. } => "flwor(…)".to_string(),
        QExpr::Quantified { every, .. } => {
            if *every {
                "every(…)".to_string()
            } else {
                "some(…)".to_string()
            }
        }
        QExpr::DirElem(d) => format!("<{}>…</{}>", d.name, d.name),
    }
}

/// Render the optimizer's plan for a query: the rewrite summary, then
/// every path in the optimized AST with per-step strategies, annotations,
/// cardinality estimates from the document's [`IndexStats`], and — where
/// `actual` can measure the path (it returns one count per step) — the
/// actual per-step cardinalities.
pub fn explain(
    optimized: &QExpr,
    report: &OptimizerReport,
    src: &str,
    stats: &IndexStats,
    mut actual: impl FnMut(&QPathStart, &[QStep]) -> Option<Vec<usize>>,
) -> String {
    let mut out = format!(
        "query: {}\nrewrites: {} fused, {} predicate runs reordered, {} batch-routed, \
         {} existential probes, {} hoisted predicates, {} chain joins\n",
        src,
        report.fused_steps,
        report.reordered_predicate_runs,
        report.batch_routed_steps,
        report.existential_probes,
        report.hoisted_predicates,
        report.chain_join_steps,
    );
    let mut paths: Vec<(&QPathStart, &[QStep])> = Vec::new();
    collect_paths(optimized, &mut paths);
    if paths.is_empty() {
        out.push_str("plan: no path expressions (per-step cardinalities not applicable)\n");
        return out;
    }
    for (pi, (start, steps)) in paths.iter().enumerate() {
        let start_desc = match start {
            QPathStart::Root => "/".to_string(),
            QPathStart::Context => "context".to_string(),
            QPathStart::Expr(e) => format!("({})", qexpr_summary(e)),
        };
        out.push_str(&format!("path {}: start {}\n", pi + 1, start_desc));
        let counts = actual(start, steps);
        for (i, step) in steps.iter().enumerate() {
            let estimate = match &step.test {
                NodeTest::Name { name, .. } => format!("{}", stats.name_count(name)),
                NodeTest::AnyElement { .. } => format!("{}", stats.element_count()),
                _ => "?".into(),
            };
            let chain = match &step.chain_outer {
                Some(outer) => format!(" chain-join(outer descendant::{outer})"),
                None => String::new(),
            };
            let measured = match counts.as_ref().and_then(|c| c.get(i)) {
                Some(n) => format!(" actual {n}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  step {}: {}::{}{} [{:?}{}] est {}{}\n",
                i + 1,
                step.axis.name(),
                step.test,
                chain,
                step.strategy,
                if step.preds_position_free { ", batch" } else { "" },
                estimate,
                measured,
            ));
            for (qi, pred) in step.predicates.iter().enumerate() {
                let how = if step.pred_probes.get(qi).is_some_and(Option::is_some) {
                    "existential probe"
                } else if step.pred_hoistable.get(qi).copied().unwrap_or(false) {
                    "hoisted (evaluated once)"
                } else if step.preds_position_free {
                    "position-free filter"
                } else {
                    "per-candidate"
                };
                out.push_str(&format!(
                    "    predicate {}: {} — {}\n",
                    qi + 1,
                    qexpr_summary(pred),
                    how
                ));
            }
        }
    }
    out
}

/// Collect every path expression in the tree except those nested inside
/// step or filter predicates — predicates render inline under their step.
fn collect_paths<'a>(e: &'a QExpr, out: &mut Vec<(&'a QPathStart, &'a [QStep])>) {
    match e {
        QExpr::Path { start, steps } => {
            if let QPathStart::Expr(inner) = start {
                collect_paths(inner, out);
            }
            out.push((start, steps));
        }
        QExpr::Sequence(es) => es.iter().for_each(|x| collect_paths(x, out)),
        QExpr::Flwor { clauses, ret } => {
            for c in clauses {
                match c {
                    Clause::For { seq, .. } => collect_paths(seq, out),
                    Clause::Let { expr, .. } => collect_paths(expr, out),
                    Clause::Where(w) => collect_paths(w, out),
                    Clause::OrderBy { keys } => {
                        keys.iter().for_each(|k| collect_paths(&k.key, out))
                    }
                }
            }
            collect_paths(ret, out);
        }
        QExpr::If { cond, then, els } => {
            collect_paths(cond, out);
            collect_paths(then, out);
            collect_paths(els, out);
        }
        QExpr::Quantified { binds, satisfies, .. } => {
            binds.iter().for_each(|(_, b)| collect_paths(b, out));
            collect_paths(satisfies, out);
        }
        QExpr::Or(a, b) | QExpr::And(a, b) | QExpr::Union(a, b) => {
            collect_paths(a, out);
            collect_paths(b, out);
        }
        QExpr::Compare { lhs, rhs, .. } | QExpr::Arith { lhs, rhs, .. } => {
            collect_paths(lhs, out);
            collect_paths(rhs, out);
        }
        QExpr::Range { lo, hi } => {
            collect_paths(lo, out);
            collect_paths(hi, out);
        }
        QExpr::Neg(inner) => collect_paths(inner, out),
        QExpr::Call { args, .. } => args.iter().for_each(|a| collect_paths(a, out)),
        QExpr::Filter { base, .. } => collect_paths(base, out),
        QExpr::DirElem(_)
        | QExpr::Literal(_)
        | QExpr::Number(_)
        | QExpr::Var(_)
        | QExpr::ContextItem => {}
    }
}

fn reorder_free_runs(preds: &mut [QExpr]) -> u32 {
    let mut changed = 0;
    let mut i = 0;
    while i < preds.len() {
        if !is_free(&preds[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < preds.len() && is_free(&preds[i]) {
            i += 1;
        }
        let run = &mut preds[start..i];
        if run.len() > 1 {
            let costs: Vec<u64> = run.iter().map(|p| cost(p, None)).collect();
            if costs.windows(2).any(|w| w[0] > w[1]) {
                let mut keyed: Vec<(u64, QExpr)> =
                    costs.into_iter().zip(run.iter().cloned()).collect();
                keyed.sort_by_key(|(c, _)| *c);
                for (slot, (_, pred)) in run.iter_mut().zip(keyed) {
                    *slot = pred;
                }
                changed += 1;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use mhx_xpath::StepStrategy;

    fn path_steps(e: &QExpr) -> &[QStep] {
        match e {
            QExpr::Path { steps, .. } => steps,
            other => panic!("expected a path, got {other:?}"),
        }
    }

    #[test]
    fn impure_predicates_stay_per_node() {
        let ast = parse_query("/descendant::w[analyze-string(., 'a')/child::m]").unwrap();
        let (opt, report) = optimize(&ast);
        let step = &path_steps(&opt)[0];
        assert!(!step.preds_position_free, "analyze-string predicates must stay per-node");
        assert_eq!(report.batch_routed_steps, 0);
        // Nor is it hoisted, though it is an absolute path underneath.
        assert_eq!(report.hoisted_predicates, 0);
        assert!(step.pred_hoistable.is_empty());
    }

    /// The XPath front end: parse with the XPath grammar, then lower.
    fn xpath(src: &str) -> QExpr {
        crate::lower::lower(&mhx_xpath::parse(src).unwrap())
    }

    /// The same text through both front ends.
    fn both(src: &str) -> [QExpr; 2] {
        [xpath(src), parse_query(src).unwrap()]
    }

    #[test]
    fn classification_table() {
        // (predicate source, expected class), through the XPath front end.
        for (src, expected) in [
            ("/descendant::w[xancestor::p]", PredicateClass::PositionFree),
            ("/descendant::w[@n]", PredicateClass::PositionFree),
            ("/descendant::w[string(.) = 'a']", PredicateClass::PositionFree),
            ("/descendant::w[contains(string(.), 'a')]", PredicateClass::PositionFree),
            ("/descendant::w[child::a or xdescendant::b]", PredicateClass::PositionFree),
            // Nested positional predicates get a fresh focus: still free.
            ("/descendant::w[xancestor::p[1]]", PredicateClass::PositionFree),
            ("/descendant::w[2]", PredicateClass::Positional),
            ("/descendant::w[position() = 2]", PredicateClass::Positional),
            ("/descendant::w[last()]", PredicateClass::Positional),
            ("/descendant::w[position() < last()]", PredicateClass::Positional),
            ("/descendant::w[count(child::a)]", PredicateClass::Positional),
            ("/descendant::w[$v]", PredicateClass::Positional),
            ("/descendant::w[string-length(string(.)) - 2]", PredicateClass::Positional),
            // position() inside a function argument still reads the focus.
            ("/descendant::w[string(position()) = '1']", PredicateClass::Positional),
        ] {
            for plan in both(src) {
                let pred = &path_steps(&plan)[0].predicates[0];
                assert_eq!(classify_predicate(pred), expected, "classifying predicate of `{src}`");
            }
        }
        // position() read through an XQuery clause still pins the step.
        let ast = parse_query("/descendant::w[some $x in (position()) satisfies $x = 1]").unwrap();
        assert_eq!(
            classify_predicate(&path_steps(&ast)[0].predicates[0]),
            PredicateClass::Positional
        );
    }

    #[test]
    fn reorder_is_cheapest_first_and_stops_at_positional() {
        let (opt, report) =
            optimize(&xpath("/descendant::w[xancestor::p][@n][2][xfollowing::q][@m]"));
        let step = &path_steps(&opt)[0];
        // Run 1 (before the positional [2]): @n now precedes xancestor::p.
        // Run 2 (after it): @m precedes xfollowing::q.
        let shown: Vec<String> = step.predicates.iter().map(|p| format!("{p:?}")).collect();
        assert!(shown[0].contains("Attribute"), "cheap attribute test first: {shown:?}");
        assert!(shown[1].contains("XAncestor"), "extended axis second: {shown:?}");
        assert!(shown[2].contains("Number"), "positional barrier untouched: {shown:?}");
        assert!(shown[3].contains("Attribute"), "cheap test first in run 2: {shown:?}");
        assert!(shown[4].contains("XFollowing"), "extended axis last: {shown:?}");
        assert_eq!(report.reordered_predicate_runs, 2);
        // A positional predicate anywhere keeps the step off the batch path.
        assert!(!step.preds_position_free);
    }

    #[test]
    fn fusion_collapses_slashslash_chains() {
        for plan in both("//vline//w[xancestor::p]") {
            let (opt, report) = optimize(&plan);
            let steps = path_steps(&opt);
            // 4 desugared walks fuse to 2 indexed scans, then the scan pair
            // collapses into one containment-chain merge join.
            assert_eq!(steps.len(), 1, "fused chain joined to one step: {steps:?}");
            assert_eq!(steps[0].axis, Axis::Descendant);
            assert_eq!(steps[0].strategy, StepStrategy::NameIndex);
            assert_eq!(steps[0].chain_outer.as_deref(), Some("vline"));
            assert_eq!(report.fused_steps, 2);
            assert_eq!(report.chain_join_steps, 1);
            assert!(steps[0].preds_position_free, "position-free predicate batch-routed");
            // The boolean extended-axis predicate is probe-annotated.
            assert_eq!(report.existential_probes, 1);
            assert!(steps[0].pred_probes[0].is_some());
        }
    }

    #[test]
    fn fusion_blocked_by_positional_predicate() {
        // `//w[2]` means "second w child of each node" — not fusable.
        let (opt, report) = optimize(&xpath("//w[2]"));
        let steps = path_steps(&opt);
        assert_eq!(steps.len(), 2);
        assert_eq!(report.fused_steps, 0);
        assert_eq!(steps[1].axis, Axis::Child);
    }

    #[test]
    fn already_optimal_plans_report_zero() {
        let (_, report) = optimize(&xpath("/descendant::w[1]/child::a"));
        assert_eq!(report.total(), 0);
    }

    #[test]
    fn chain_join_fuses_descendant_pairs() {
        // `//a//b` fusion output is exactly the chain-join shape.
        let (opt, report) = optimize(&xpath("//a//b[xancestor::p]"));
        let steps = path_steps(&opt);
        assert_eq!(steps.len(), 1, "fused pair collapsed to one join step: {steps:?}");
        assert_eq!(steps[0].chain_outer.as_deref(), Some("a"));
        assert_eq!(report.chain_join_steps, 1);
        assert!(steps[0].rewritten);

        // The explicit form joins too.
        let (opt2, r2) = optimize(&xpath("/descendant::a/descendant::b"));
        assert_eq!(path_steps(&opt2).len(), 1);
        assert_eq!(r2.chain_join_steps, 1);

        // Blocked: a predicate on the outer step (the join has nowhere to
        // apply it), a positional predicate on the inner step, or a
        // hierarchy-filtered test.
        for src in [
            "/descendant::a[@n]/descendant::b",
            "/descendant::a/descendant::b[2]",
            "/descendant::a(\"h\")/descendant::b",
        ] {
            let (opt, r) = optimize(&xpath(src));
            assert_eq!(path_steps(&opt).len(), 2, "`{src}` must not chain-join");
            assert_eq!(r.chain_join_steps, 0, "`{src}` must not chain-join");
        }
    }

    #[test]
    fn existential_probes_annotated_for_boolean_axis_predicates() {
        let (opt, report) = optimize(&xpath("/descendant::w[xfollowing::e1][child::a]"));
        let step = &path_steps(&opt)[0];
        assert!(step.preds_position_free);
        assert_eq!(report.existential_probes, 1);
        // After the cheapest-first reorder the extended-axis predicate
        // sits second; only it probes.
        let probes: Vec<bool> = step.pred_probes.iter().map(Option::is_some).collect();
        assert_eq!(probes, vec![false, true]);

        // Positional context: no batch routing, so no annotations at all.
        for plan in both("/descendant::w[xfollowing::e1][2]") {
            let (opt2, r2) = optimize(&plan);
            assert!(path_steps(&opt2)[0].pred_probes.is_empty());
            assert_eq!(r2.existential_probes, 0);
        }

        // A numeric-typed predicate is the position shorthand — never
        // probed, never batch-routed.
        let (opt3, r3) = optimize(&xpath("/descendant::w[count(xfollowing::e1)]"));
        assert!(path_steps(&opt3)[0].pred_probes.is_empty());
        assert_eq!(r3.existential_probes, 0);

        // A nested predicate inside the axis step blocks the probe (the
        // probe cannot apply it) but not the batch route.
        let (opt4, r4) = optimize(&xpath("/descendant::w[xfollowing::e1[1]]"));
        let s4 = &path_steps(&opt4)[0];
        assert!(s4.preds_position_free);
        assert!(s4.pred_probes.iter().all(Option::is_none));
        assert_eq!(r4.existential_probes, 0);
    }

    #[test]
    fn hoistable_predicates_detected() {
        for plan in both("/descendant::w[count(/descendant::e1) > 0][child::a]") {
            let (opt, report) = optimize(&plan);
            let step = &path_steps(&opt)[0];
            assert_eq!(report.hoisted_predicates, 1);
            // Exactly one predicate is context-independent, whichever slot
            // the reorder put it in.
            assert_eq!(step.pred_hoistable.iter().filter(|&&h| h).count(), 1);
            let hoisted_at = step.pred_hoistable.iter().position(|&h| h).unwrap();
            assert!(is_context_independent(&step.predicates[hoisted_at]));
            assert!(!is_context_independent(&step.predicates[1 - hoisted_at]));
        }

        // Context-dependent lookalikes never hoist: relative paths,
        // zero-argument context functions, focus readers.
        for src in [
            "/descendant::w[contains(string(.), 'a')]",
            "/descendant::w[string-length() > 1]",
            "/descendant::w[child::a]",
        ] {
            let (opt, r) = optimize(&xpath(src));
            let s = &path_steps(&opt)[0];
            assert_eq!(r.hoisted_predicates, 0, "`{src}` must not hoist");
            assert!(s.pred_hoistable.iter().all(|&h| !h), "`{src}` must not hoist");
        }
    }

    /// The fixed weight table prices every extended-axis subquery
    /// identically (and always above a string test), so it cannot know
    /// which name is actually rare. With `IndexStats` the evaluator's
    /// `stats_order` picks the genuinely rarer name first — including the
    /// case the fixed table gets wrong.
    #[test]
    fn stats_order_picks_the_rarer_name_first() {
        use mhx_goddag::{GoddagBuilder, StructIndex};
        // `w` covers every character; `rare` occurs once.
        let g = GoddagBuilder::new()
            .hierarchy(
                "words",
                "<r><w>a</w><w>b</w><w>c</w><w>d</w><w>e</w><w>f</w><w>g</w><w>h</w></r>",
            )
            .hierarchy("marks", "<r><rare>a</rare>bcdefgh</r>")
            .build()
            .unwrap();
        let idx = StructIndex::build(&g);
        assert!(idx.stats().name_count("w") > idx.stats().name_count("rare"));

        // Two extended-axis predicates: same fixed weight, so the static
        // reorder keeps the written (common-name-first) order…
        let (opt, _) = optimize(&xpath("/descendant::r[xdescendant::w][xdescendant::rare]"));
        let step = &path_steps(&opt)[0];
        assert!(format!("{:?}", step.predicates[0]).contains("\"w\""));
        // …but the per-document statistics invert it.
        assert_eq!(stats_order(&step.predicates, idx.stats()), vec![1, 0]);

        // The case the fixed table actively gets wrong: it prices the
        // string test far below any extended-axis subquery, but a probe on
        // a once-per-document name is cheaper than materializing every
        // candidate's string value.
        let (opt2, _) =
            optimize(&xpath("/descendant::r[contains(string(.), 'zz')][xdescendant::rare]"));
        let step2 = &path_steps(&opt2)[0];
        assert!(
            matches!(&step2.predicates[0], QExpr::Call { name, .. } if name == "contains"),
            "static order keeps the string test first: {:?}",
            step2.predicates
        );
        assert_eq!(stats_order(&step2.predicates, idx.stats()), vec![1, 0]);

        // And when the frequencies flip, so does the verdict: on a
        // document where `w` is the rare one, `w` goes first again.
        let g2 = GoddagBuilder::new()
            .hierarchy("words", "<r><w>a</w>bcdefgh</r>")
            .hierarchy(
                "marks",
                "<r><rare>a</rare><rare>b</rare><rare>c</rare><rare>d</rare>\
                 <rare>e</rare><rare>f</rare><rare>g</rare><rare>h</rare></r>",
            )
            .build()
            .unwrap();
        let idx2 = StructIndex::build(&g2);
        assert_eq!(stats_order(&step.predicates, idx2.stats()), vec![0, 1]);
    }

    #[test]
    fn optimizer_reaches_flwor_bodies() {
        let ast = parse_query("for $l in //line[overlapping::w] return string($l)").unwrap();
        let (_, report) = optimize(&ast);
        assert_eq!(report.fused_steps, 1);
        assert_eq!(report.batch_routed_steps, 1);
    }
}
