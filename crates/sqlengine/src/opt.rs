//! The logical optimizer: plan-to-plan rewrites between [`crate::plan`] and
//! execution.
//!
//! [`optimize`] applies five passes, in order:
//!
//! 1. **Constant folding** — evaluates [`VExpr`] subtrees whose operands are
//!    literals, simplifies boolean identities (`TRUE AND p` → `p`,
//!    `FALSE OR p` → `p`, `NOT TRUE` → `FALSE`, `NOT NOT x` → `x`) and
//!    elides filters whose predicate folded to `TRUE`. Folding never
//!    evaluates an expression the executor would not have evaluated (a
//!    folding step that would error — division by zero, type mismatch — is
//!    left in place so the runtime error is preserved).
//! 2. **EXISTS lift** — hoists `[NOT] EXISTS` conjuncts out of filter
//!    predicates into [`PhysicalPlan::ExistsSemiJoin`] nodes, the form the
//!    decorrelator rewrites. Nested emptiness tests compile to negation
//!    chains over `EXISTS` expressions that the planner leaves inside
//!    filter predicates; without the lift they would execute as per-row
//!    subqueries forever.
//! 3. **Decorrelation** — rewrites a correlated
//!    [`PhysicalPlan::ExistsSemiJoin`] whose correlation is a conjunction of
//!    `outer = local` equalities into a [`PhysicalPlan::HashSemiJoin`]: the
//!    subquery is executed **once** with the correlated equalities removed,
//!    its local key expressions are hashed, and each input row probes with
//!    its outer key expressions. This turns an O(n·m) nested loop into one
//!    build and one probe, and (because `HashSemiJoin` has an incremental
//!    delta rule) moves such stages out of `DeltaExec`'s reseed path.
//!    Subqueries the pass cannot prove safe are left untouched and recorded
//!    in [`OptReport::skipped`] (surfaced as `analysis` code O001).
//! 4. **Predicate pushdown** — moves filter conjuncts as close to the scans
//!    as they can soundly go: through projects (by substituting projection
//!    expressions), semi-join inputs, `WITH` bodies and
//!    `UNION ALL` branches, and routed to one side of a join when every
//!    column it references lives there. Conjuncts are never pushed below
//!    `RowNumber` (filtering changes the numbering) and never into a `WITH`
//!    definition (the definition may have other consumers).
//! 5. **Column pruning** — inserts narrowing `Project`s of bare columns on
//!    the inputs of hash and nested-loop joins, so a join materialises only
//!    the columns its keys or some ancestor reads, and moves the positional
//!    [`VExpr::Col`] indexes above to where the columns end up. A narrowing
//!    `Project` shares its input's columns at run time, so it costs nothing
//!    itself. The pass never narrows the output of a `WITH` definition (the
//!    `CteScan`s were planned against it, and cross-stage sharing compares
//!    definitions), the branches of `UNION ALL` (they share one layout), or
//!    the input of a correlated subplan (its rows become scope frames
//!    resolved by alias, which a `Project` erases).
//!    It runs last so that it prunes the joins the other passes leave.
//!
//! No pass chooses a hash join's build side: the executor builds on the
//! smaller input once it holds both (see [`PhysicalPlan::HashJoin`]).
//!
//! Every pass is a pure function from plan to plan: rewritten plans flow
//! through the interpreter oracle, the vectorized executor and `DeltaExec`
//! unchanged.

use crate::ast::BinOp;
use crate::exec::eval_binop;
use crate::plan::{Catalog, PhysicalPlan, SchemaCol, VExpr};
use crate::value::SqlValue;

/// A correlated subquery the decorrelator had to leave in place, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct OptSkip {
    /// The node that keeps its correlated subplan (e.g. `"ExistsSemiJoin anti"`).
    pub node: String,
    /// Why the rewrite was unsafe or out of scope for the current rules.
    pub reason: String,
}

/// What [`optimize`] did to a plan: one line per rewrite applied, plus the
/// correlated subqueries it could not rewrite. Rendered by `explain()` and
/// turned into `analysis` diagnostics (code O001) by the pipeline verifier.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptReport {
    /// Human-readable descriptions of the rewrites that fired.
    pub rewrites: Vec<String>,
    /// Correlated subqueries left in place, with reasons.
    pub skipped: Vec<OptSkip>,
}

impl OptReport {
    /// True when no rewrite fired and nothing was skipped.
    pub fn is_empty(&self) -> bool {
        self.rewrites.is_empty() && self.skipped.is_empty()
    }
}

/// Optimize a physical plan. Returns the rewritten plan and a report of the
/// rewrites applied; the output plan computes exactly the same bag of rows
/// as the input plan on every database and parameter binding.
///
/// No pass reads `_catalog`: every rewrite is decided by the plan alone, and
/// a hash join's build side is chosen at run time from its inputs' real
/// sizes. The parameter stays so that callers which pass one, such as the
/// benchmark's layer trace, keep compiling.
pub fn optimize(plan: PhysicalPlan, _catalog: &dyn Catalog) -> (PhysicalPlan, OptReport) {
    let mut report = OptReport::default();

    let mut folds = 0usize;
    let plan = fold_plan(plan, &mut folds);
    if folds > 0 {
        report
            .rewrites
            .push(format!("folded {} constant subexpression(s)", folds));
    }

    let mut lifted = 0usize;
    let plan = lift_exists_plan(plan, &mut lifted);
    if lifted > 0 {
        report.rewrites.push(format!(
            "lifted {} EXISTS conjunct(s) into semi-join nodes",
            lifted
        ));
    }

    let plan = decorrelate_plan(plan, &mut report);

    let mut pushed = 0usize;
    let plan = pushdown_plan(plan, &mut pushed);
    if pushed > 0 {
        report
            .rewrites
            .push(format!("pushed {} predicate(s) toward scans", pushed));
    }

    let mut narrowed = 0usize;
    let plan = prune_plan(plan, &mut narrowed);
    if narrowed > 0 {
        report.rewrites.push(format!(
            "narrowed {} join input(s) to the columns read above them",
            narrowed
        ));
    }

    (plan, report)
}

// ---------------------------------------------------------------------------
// Generic traversal
// ---------------------------------------------------------------------------

/// Rebuild `plan` bottom-up, applying `f` to every node: its inputs first,
/// then the `EXISTS` subplans inside its expressions, then the rebuilt node
/// itself.
fn map_plan(plan: PhysicalPlan, f: &mut dyn FnMut(PhysicalPlan) -> PhysicalPlan) -> PhysicalPlan {
    let mapped = plan.map_children(|child| map_plan(child, f));
    f(mapped)
}

// ---------------------------------------------------------------------------
// Pass 1: constant folding
// ---------------------------------------------------------------------------

fn fold_plan(plan: PhysicalPlan, count: &mut usize) -> PhysicalPlan {
    map_plan(plan, &mut |mut node| {
        node.for_each_expr_mut(|e| {
            *e = fold_expr(std::mem::replace(e, VExpr::Lit(SqlValue::Null)), count)
        });
        match node {
            // `WHERE TRUE` keeps every row: drop the node.
            PhysicalPlan::Filter {
                input,
                predicate: VExpr::Lit(SqlValue::Bool(true)),
            } => {
                *count += 1;
                *input
            }
            other => other,
        }
    })
}

/// Fold bottom-up. Subplans inside expressions are folded by the
/// surrounding `map_plan` traversal.
fn fold_expr(expr: VExpr, count: &mut usize) -> VExpr {
    expr.map(&mut |e| match e {
        VExpr::BinOp { op, left, right } => {
            if let (VExpr::Lit(l), VExpr::Lit(r)) = (&*left, &*right) {
                // Only fold evaluations that succeed: a subtree that would
                // error at runtime (division by zero, type mismatch) is
                // kept so the executor still reports it.
                if let Ok(v) = eval_binop(op, l, r) {
                    *count += 1;
                    return VExpr::Lit(v);
                }
            }
            let lit_true = |e: &VExpr| matches!(e, VExpr::Lit(SqlValue::Bool(true)));
            let lit_false = |e: &VExpr| matches!(e, VExpr::Lit(SqlValue::Bool(false)));
            match op {
                BinOp::And if lit_true(&left) => {
                    *count += 1;
                    *right
                }
                BinOp::And if lit_true(&right) => {
                    *count += 1;
                    *left
                }
                BinOp::Or if lit_false(&left) => {
                    *count += 1;
                    *right
                }
                BinOp::Or if lit_false(&right) => {
                    *count += 1;
                    *left
                }
                _ => VExpr::BinOp { op, left, right },
            }
        }
        VExpr::Not(inner) => match *inner {
            VExpr::Lit(SqlValue::Bool(b)) => {
                *count += 1;
                VExpr::Lit(SqlValue::Bool(!b))
            }
            VExpr::Lit(SqlValue::Null) => {
                *count += 1;
                VExpr::Lit(SqlValue::Null)
            }
            // `NOT NOT x = x` in SQL's three-valued logic (`NOT NULL` is
            // `NULL`). Negation chains arise from nested emptiness tests;
            // collapsing them is what lets the EXISTS lift below see
            // through them.
            VExpr::Not(inner2) => {
                *count += 1;
                *inner2
            }
            inner => VExpr::Not(Box::new(inner)),
        },
        other => other,
    })
}

// ---------------------------------------------------------------------------
// Pass 2: EXISTS lift
// ---------------------------------------------------------------------------

/// Lift `[NOT] EXISTS` conjuncts out of filter predicates into
/// [`PhysicalPlan::ExistsSemiJoin`] nodes. The planner only forms semi-join
/// nodes for whole-predicate `EXISTS` tests; anything else — negation
/// chains from nested emptiness tests, an `EXISTS` among other conjuncts —
/// reaches execution as a per-row filter expression, which the decorrelator
/// cannot see. The node form is semantically identical: the vectorized
/// executor pushes the same scope frame for an `ExistsSemiJoin` subplan as
/// for a `VExpr::Exists` inside a filter predicate, and `EXISTS` never
/// evaluates to `NULL`, so splitting it out of the conjunction cannot
/// change the kept row set.
fn lift_exists_plan(plan: PhysicalPlan, count: &mut usize) -> PhysicalPlan {
    map_plan(plan, &mut |node| match node {
        PhysicalPlan::Filter { input, predicate } => {
            let mut semis: Vec<(Box<PhysicalPlan>, bool)> = Vec::new();
            let mut kept = Vec::new();
            for conj in split_conjuncts(predicate) {
                match conj {
                    VExpr::Exists(sub) => semis.push((sub, false)),
                    VExpr::Not(inner) => match *inner {
                        VExpr::Exists(sub) => semis.push((sub, true)),
                        other => kept.push(VExpr::Not(Box::new(other))),
                    },
                    other => kept.push(other),
                }
            }
            if semis.is_empty() {
                let predicate = join_conjuncts(kept)
                    .expect("a filter with no EXISTS conjuncts keeps its predicate");
                return PhysicalPlan::Filter { input, predicate };
            }
            *count += semis.len();
            // The remaining conjuncts filter *below* the semi-joins: both
            // only drop rows, so the kept set is the same conjunction
            // either way, and the cheap predicates run first.
            let mut plan = match join_conjuncts(kept) {
                Some(predicate) => PhysicalPlan::Filter { input, predicate },
                None => *input,
            };
            for (subplan, anti) in semis {
                plan = PhysicalPlan::ExistsSemiJoin {
                    input: Box::new(plan),
                    subplan,
                    anti,
                };
            }
            plan
        }
        other => other,
    })
}

// ---------------------------------------------------------------------------
// Pass 3: decorrelation
// ---------------------------------------------------------------------------

fn decorrelate_plan(plan: PhysicalPlan, report: &mut OptReport) -> PhysicalPlan {
    map_plan(plan, &mut |node| match node {
        PhysicalPlan::ExistsSemiJoin {
            input,
            subplan,
            anti,
        } => match try_decorrelate(&input, *subplan.clone(), anti) {
            Ok((rewritten, desc)) => {
                report.rewrites.push(desc);
                rewritten
            }
            Err(reason) => {
                report.skipped.push(OptSkip {
                    node: if anti {
                        "ExistsSemiJoin anti".to_string()
                    } else {
                        "ExistsSemiJoin".to_string()
                    },
                    reason,
                });
                PhysicalPlan::ExistsSemiJoin {
                    input,
                    subplan,
                    anti,
                }
            }
        },
        other => other,
    })
}

/// One decorrelated `UNION ALL` branch: the de-correlated subquery body and
/// its `(outer key, local key)` pairs.
struct Ext {
    plan: PhysicalPlan,
    keys: Vec<(VExpr, VExpr)>,
}

fn try_decorrelate(
    input: &PhysicalPlan,
    subplan: PhysicalPlan,
    anti: bool,
) -> Result<(PhysicalPlan, String), String> {
    let frame = input.schema();

    let branches: Vec<PhysicalPlan> = match subplan {
        PhysicalPlan::UnionAll(bs) => bs,
        other => vec![other],
    };

    let mut exts = Vec::with_capacity(branches.len());
    for branch in branches {
        let PhysicalPlan::Project {
            input: inner,
            exprs,
            ..
        } = branch
        else {
            return Err("subquery root is not a projection".to_string());
        };
        // The projection itself is discarded (only emptiness matters), so
        // it must not smuggle correlated or nested-subquery work away.
        for e in &exprs {
            if contains_exists(e) {
                return Err("subquery projection contains a nested EXISTS".to_string());
            }
            if expr_refs_frame(e, &frame) {
                return Err("subquery projection references the outer row".to_string());
            }
        }
        exts.push(extract(*inner, &frame)?);
    }

    // Unify correlation keys across branches: branch 0's outer-key list is
    // canonical; every other branch must provide the same outer keys (in
    // any order), and its local keys are reordered to match.
    let canonical: Vec<VExpr> = exts[0].keys.iter().map(|(o, _)| o.clone()).collect();
    let mut branch_locals: Vec<Vec<VExpr>> = Vec::with_capacity(exts.len());
    for ext in &exts {
        if ext.keys.len() != canonical.len() {
            return Err("correlation keys differ across UNION ALL branches".to_string());
        }
        let mut used = vec![false; ext.keys.len()];
        let mut locals = Vec::with_capacity(canonical.len());
        for outer in &canonical {
            let Some(j) = ext
                .keys
                .iter()
                .enumerate()
                .position(|(j, (o, _))| !used[j] && o == outer)
            else {
                return Err("correlation keys differ across UNION ALL branches".to_string());
            };
            used[j] = true;
            locals.push(ext.keys[j].1.clone());
        }
        branch_locals.push(locals);
    }

    // Build side: one `Project` of the local keys per branch. With no keys
    // (an uncorrelated EXISTS) the bodies are used as-is — only emptiness
    // matters and a zero-column projection buys nothing.
    let n = canonical.len();
    let bodies: Vec<PhysicalPlan> = if n == 0 {
        exts.into_iter().map(|e| e.plan).collect()
    } else {
        let key_cols: Vec<String> = (0..n).map(|i| format!("#k{}", i)).collect();
        exts.into_iter()
            .zip(branch_locals)
            .map(|(ext, locals)| PhysicalPlan::Project {
                input: Box::new(ext.plan),
                exprs: locals,
                columns: key_cols.clone(),
            })
            .collect()
    };
    let build = if bodies.len() == 1 {
        bodies.into_iter().next().unwrap()
    } else {
        PhysicalPlan::UnionAll(bodies)
    };

    // Soundness gate: the build side must now be completely uncorrelated —
    // any remaining reference that would resolve to the input's row makes
    // the once-executed build unsound.
    if plan_refs_frame(&build, &frame) {
        return Err(
            "subquery retains a correlated reference that is not a simple equality".to_string(),
        );
    }

    let probe_keys: Vec<VExpr> = canonical
        .into_iter()
        .map(|o| resolve_outer(o, &frame))
        .collect::<Result<_, _>>()?;
    let build_keys: Vec<VExpr> = (0..n)
        .map(|i| VExpr::Col {
            index: i,
            alias: None,
            column: format!("#k{}", i),
        })
        .collect();

    let keys_desc = probe_keys
        .iter()
        .map(|k| k.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let desc = format!(
        "decorrelated ExistsSemiJoin{} into HashSemiJoin on [{}]",
        if anti { " anti" } else { "" },
        keys_desc
    );
    Ok((
        PhysicalPlan::HashSemiJoin {
            input: Box::new(input.clone()),
            build: Box::new(build),
            probe_keys,
            build_keys,
            anti,
        },
        desc,
    ))
}

/// Walk a subquery body collecting correlated equality conjuncts, removing
/// them from the plan. Descends through filters, joins and subquery scans;
/// every other operator is kept opaque (correlated references below it are
/// caught by the caller's soundness gate).
fn extract(plan: PhysicalPlan, frame: &[SchemaCol]) -> Result<Ext, String> {
    match plan {
        PhysicalPlan::Filter { input, predicate } => {
            let mut ext = extract(*input, frame)?;
            let mut kept = Vec::new();
            for conj in split_conjuncts(predicate) {
                if expr_refs_frame(&conj, frame) {
                    ext.keys.push(as_correlation_eq(conj, frame)?);
                } else {
                    kept.push(conj);
                }
            }
            let plan = match join_conjuncts(kept) {
                Some(predicate) => PhysicalPlan::Filter {
                    input: Box::new(ext.plan),
                    predicate,
                },
                None => ext.plan,
            };
            Ok(Ext {
                plan,
                keys: ext.keys,
            })
        }
        PhysicalPlan::SubqueryScan { input, alias } => {
            // Re-aliasing preserves column positions, so local keys pass
            // through unchanged.
            let ext = extract(*input, frame)?;
            Ok(Ext {
                plan: PhysicalPlan::SubqueryScan {
                    input: Box::new(ext.plan),
                    alias,
                },
                keys: ext.keys,
            })
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let left_width = left.output_width();
            let le = extract(*left, frame)?;
            let re = extract(*right, frame)?;
            let mut keys = le.keys;
            keys.extend(
                re.keys
                    .into_iter()
                    .map(|(o, l)| (o, shift_cols(l, left_width))),
            );
            Ok(Ext {
                plan: PhysicalPlan::HashJoin {
                    left: Box::new(le.plan),
                    right: Box::new(re.plan),
                    left_keys,
                    right_keys,
                },
                keys,
            })
        }
        PhysicalPlan::NestedLoopJoin { left, right } => {
            let left_width = left.output_width();
            let le = extract(*left, frame)?;
            let re = extract(*right, frame)?;
            let mut keys = le.keys;
            keys.extend(
                re.keys
                    .into_iter()
                    .map(|(o, l)| (o, shift_cols(l, left_width))),
            );
            Ok(Ext {
                plan: PhysicalPlan::NestedLoopJoin {
                    left: Box::new(le.plan),
                    right: Box::new(re.plan),
                },
                keys,
            })
        }
        // Semi-joins pass their probe input's columns through unchanged, so
        // correlated conjuncts below them extract with valid positions. The
        // subplan/build side is untouched — if *it* holds outer references,
        // the caller's soundness gate rejects the rewrite.
        PhysicalPlan::ExistsSemiJoin {
            input,
            subplan,
            anti,
        } => {
            let ext = extract(*input, frame)?;
            Ok(Ext {
                plan: PhysicalPlan::ExistsSemiJoin {
                    input: Box::new(ext.plan),
                    subplan,
                    anti,
                },
                keys: ext.keys,
            })
        }
        PhysicalPlan::HashSemiJoin {
            input,
            build,
            probe_keys,
            build_keys,
            anti,
        } => {
            let ext = extract(*input, frame)?;
            Ok(Ext {
                plan: PhysicalPlan::HashSemiJoin {
                    input: Box::new(ext.plan),
                    build,
                    probe_keys,
                    build_keys,
                    anti,
                },
                keys: ext.keys,
            })
        }
        other => Ok(Ext {
            plan: other,
            keys: Vec::new(),
        }),
    }
}

/// Split a correlated conjunct into its `(outer, local)` equality sides, or
/// explain why it cannot be decorrelated.
fn as_correlation_eq(conj: VExpr, frame: &[SchemaCol]) -> Result<(VExpr, VExpr), String> {
    if contains_exists(&conj) {
        return Err("correlated conjunct contains a nested EXISTS".to_string());
    }
    let VExpr::BinOp {
        op: BinOp::Eq,
        left,
        right,
    } = conj
    else {
        return Err("correlated conjunct is not a simple equality".to_string());
    };
    let outer_pure = |e: &VExpr| !contains_col(e) && expr_refs_frame(e, frame);
    let local_pure = |e: &VExpr| !expr_refs_frame(e, frame);
    if outer_pure(&left) && local_pure(&right) {
        Ok((*left, *right))
    } else if outer_pure(&right) && local_pure(&left) {
        Ok((*right, *left))
    } else {
        Err("correlated equality mixes outer and local columns on one side".to_string())
    }
}

// ---------------------------------------------------------------------------
// Scope/schema reasoning shared by the decorrelator
// ---------------------------------------------------------------------------

/// Would this outer reference resolve against `frame` at runtime? The scope
/// stack matches qualified references by alias and unqualified references by
/// column name, innermost frame first — `frame` here is the innermost frame
/// the subquery sees, so a hit means the reference is correlated to it.
fn resolves_to_frame(table: &Option<String>, column: &str, frame: &[SchemaCol]) -> bool {
    match table {
        Some(alias) => frame
            .iter()
            .any(|(a, _)| a.as_deref() == Some(alias.as_str())),
        None => frame.iter().any(|(_, c)| c == column),
    }
}

/// Does the expression (deeply, including nested `EXISTS` subplans) contain
/// an outer reference that resolves to `frame`?
fn expr_refs_frame(expr: &VExpr, frame: &[SchemaCol]) -> bool {
    expr.any(|e| match e {
        VExpr::Outer { table, column } => resolves_to_frame(table, column, frame),
        VExpr::Exists(subplan) => plan_refs_frame(subplan, frame),
        _ => false,
    })
}

/// Does any expression anywhere in the plan reference `frame`? Conservative:
/// a nested subquery whose own frame shadows an alias still counts as a
/// reference, so shadowed-but-sound plans are skipped rather than miscompiled.
fn plan_refs_frame(plan: &PhysicalPlan, frame: &[SchemaCol]) -> bool {
    plan.exprs().any(|e| expr_refs_frame(e, frame))
        || plan
            .children()
            .into_iter()
            .any(|c| plan_refs_frame(c, frame))
}

/// Rewrite frame-resolving outer references into positional columns over the
/// probe input, mirroring the runtime scope lookup exactly: qualified
/// references take the position of `(alias, column)` (an error if the alias
/// is present but the column is not — the runtime would error too, so the
/// rewrite is skipped to preserve it); unqualified references take the first
/// column with that name. References to deeper scopes stay symbolic.
fn resolve_outer(expr: VExpr, frame: &[SchemaCol]) -> Result<VExpr, String> {
    match expr {
        VExpr::Outer { table, column } => match &table {
            Some(alias)
                if frame
                    .iter()
                    .any(|(a, _)| a.as_deref() == Some(alias.as_str())) =>
            {
                let index = frame
                    .iter()
                    .position(|(a, c)| a.as_deref() == Some(alias.as_str()) && c == &column)
                    .ok_or_else(|| {
                        format!("outer reference {}.{} has no such column", alias, column)
                    })?;
                Ok(VExpr::Col {
                    index,
                    alias: table,
                    column,
                })
            }
            None if frame.iter().any(|(_, c)| c == &column) => {
                let index = frame.iter().position(|(_, c)| c == &column).unwrap();
                Ok(VExpr::Col {
                    index,
                    alias: frame[index].0.clone(),
                    column,
                })
            }
            _ => Ok(VExpr::Outer { table, column }),
        },
        VExpr::BinOp { op, left, right } => Ok(VExpr::BinOp {
            op,
            left: Box::new(resolve_outer(*left, frame)?),
            right: Box::new(resolve_outer(*right, frame)?),
        }),
        VExpr::Not(inner) => Ok(VExpr::Not(Box::new(resolve_outer(*inner, frame)?))),
        VExpr::Exists(_) => Err("outer key contains a nested EXISTS".to_string()),
        other => Ok(other),
    }
}

// ---------------------------------------------------------------------------
// Pass 4: predicate pushdown
// ---------------------------------------------------------------------------

fn pushdown_plan(plan: PhysicalPlan, count: &mut usize) -> PhysicalPlan {
    map_plan(plan, &mut |node| match node {
        PhysicalPlan::Filter { input, predicate } => {
            let mut input = *input;
            let mut kept = Vec::new();
            for conj in split_conjuncts(predicate) {
                match push_pred(input, conj) {
                    Ok(absorbed) => {
                        *count += 1;
                        input = absorbed;
                    }
                    Err((back, conj)) => {
                        input = back;
                        kept.push(conj);
                    }
                }
            }
            match join_conjuncts(kept) {
                Some(predicate) => PhysicalPlan::Filter {
                    input: Box::new(input),
                    predicate,
                },
                None => input,
            }
        }
        other => other,
    })
}

/// Push one conjunct at least one operator further down, or hand both back.
///
/// `Err` is the ordinary "could not push" outcome returning ownership of
/// both values, not a failure — boxing it would put an allocation on the
/// common path of every pushdown attempt.
#[allow(clippy::result_large_err)]
fn push_pred(plan: PhysicalPlan, pred: VExpr) -> Result<PhysicalPlan, (PhysicalPlan, VExpr)> {
    // Predicates with embedded subqueries stay put: relocating them would
    // change the scope frames their outer references resolve against.
    if contains_exists(&pred) {
        return Err((plan, pred));
    }
    match plan {
        PhysicalPlan::Filter { input, predicate } => match push_pred(*input, pred) {
            Ok(input) => Ok(PhysicalPlan::Filter {
                input: Box::new(input),
                predicate,
            }),
            Err((input, pred)) => Err((
                PhysicalPlan::Filter {
                    input: Box::new(input),
                    predicate,
                },
                pred,
            )),
        },
        PhysicalPlan::Project {
            input,
            exprs,
            columns,
        } => {
            // Substituting projection expressions is only done for column
            // renames and constants; duplicating computed expressions could
            // change evaluation counts (and thus error behaviour).
            let simple = col_indexes(&pred).iter().all(|&i| {
                matches!(
                    exprs.get(i),
                    Some(VExpr::Col { .. } | VExpr::Lit(_) | VExpr::Param(_) | VExpr::Outer { .. })
                )
            });
            if !simple {
                return Err((
                    PhysicalPlan::Project {
                        input,
                        exprs,
                        columns,
                    },
                    pred,
                ));
            }
            let inner_pred = substitute_cols(pred, &exprs);
            Ok(PhysicalPlan::Project {
                input: Box::new(push_into(*input, inner_pred)),
                exprs,
                columns,
            })
        }
        PhysicalPlan::SubqueryScan { input, alias } => Ok(PhysicalPlan::SubqueryScan {
            input: Box::new(push_into(*input, pred)),
            alias,
        }),
        PhysicalPlan::ExistsSemiJoin {
            input,
            subplan,
            anti,
        } => Ok(PhysicalPlan::ExistsSemiJoin {
            input: Box::new(push_into(*input, pred)),
            subplan,
            anti,
        }),
        PhysicalPlan::HashSemiJoin {
            input,
            build,
            probe_keys,
            build_keys,
            anti,
        } => Ok(PhysicalPlan::HashSemiJoin {
            input: Box::new(push_into(*input, pred)),
            build,
            probe_keys,
            build_keys,
            anti,
        }),
        PhysicalPlan::UnionAll(branches) => Ok(PhysicalPlan::UnionAll(
            branches
                .into_iter()
                .map(|b| push_into(b, pred.clone()))
                .collect(),
        )),
        PhysicalPlan::With {
            name,
            definition,
            body,
        } => Ok(PhysicalPlan::With {
            name,
            definition,
            body: Box::new(push_into(*body, pred)),
        }),
        PhysicalPlan::NestedLoopJoin { left, right } => {
            let left_width = left.output_width();
            match route_join_pred(&pred, left_width) {
                Some(JoinSide::Left) => Ok(PhysicalPlan::NestedLoopJoin {
                    left: Box::new(push_into(*left, pred)),
                    right,
                }),
                Some(JoinSide::Right) => {
                    let shifted = unshift_cols(pred, left_width);
                    Ok(PhysicalPlan::NestedLoopJoin {
                        left,
                        right: Box::new(push_into(*right, shifted)),
                    })
                }
                None => Err((PhysicalPlan::NestedLoopJoin { left, right }, pred)),
            }
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let left_width = left.output_width();
            match route_join_pred(&pred, left_width) {
                Some(JoinSide::Left) => Ok(PhysicalPlan::HashJoin {
                    left: Box::new(push_into(*left, pred)),
                    right,
                    left_keys,
                    right_keys,
                }),
                Some(JoinSide::Right) => {
                    let shifted = unshift_cols(pred, left_width);
                    Ok(PhysicalPlan::HashJoin {
                        left,
                        right: Box::new(push_into(*right, shifted)),
                        left_keys,
                        right_keys,
                    })
                }
                None => Err((
                    PhysicalPlan::HashJoin {
                        left,
                        right,
                        left_keys,
                        right_keys,
                    },
                    pred,
                )),
            }
        }
        // Filtering before numbering would change the numbers; scans are the
        // floor the predicate comes to rest on.
        other @ (PhysicalPlan::RowNumber { .. }
        | PhysicalPlan::TableScan { .. }
        | PhysicalPlan::CteScan { .. }
        | PhysicalPlan::UnitRow) => Err((other, pred)),
    }
}

/// Push as deep as possible; wherever the conjunct stops, a filter holds it.
fn push_into(plan: PhysicalPlan, pred: VExpr) -> PhysicalPlan {
    match push_pred(plan, pred) {
        Ok(plan) => plan,
        Err((plan, pred)) => PhysicalPlan::Filter {
            input: Box::new(plan),
            predicate: pred,
        },
    }
}

enum JoinSide {
    Left,
    Right,
}

/// Which join input can evaluate the predicate alone? `None` if it spans
/// both (or we cannot tell).
fn route_join_pred(pred: &VExpr, left_width: usize) -> Option<JoinSide> {
    let cols = col_indexes(pred);
    if cols.iter().all(|&i| i < left_width) {
        Some(JoinSide::Left)
    } else if cols.iter().all(|&i| i >= left_width) {
        Some(JoinSide::Right)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Pass 5: column pruning
// ---------------------------------------------------------------------------

/// A pruned subtree: it outputs a subset of the columns it used to, in their
/// original order, and `remap[old]` is the new position of each survivor.
struct Pruned {
    plan: PhysicalPlan,
    remap: Vec<Option<usize>>,
}

impl Pruned {
    fn unchanged(plan: PhysicalPlan, width: usize) -> Pruned {
        Pruned {
            plan,
            remap: (0..width).map(Some).collect(),
        }
    }

    fn width(&self) -> usize {
        self.remap.iter().flatten().count()
    }
}

/// Narrow the inputs of joins to the columns something above them reads, so
/// a join materialises no column that is dropped before the result. A
/// narrowing `Project` of bare columns shares its input's columns at run
/// time, so it costs nothing where it sits.
fn prune_plan(plan: PhysicalPlan, count: &mut usize) -> PhysicalPlan {
    prune_whole(plan, false, count)
}

/// Prune inside a subtree all of whose output columns are read.
fn prune_whole(plan: PhysicalPlan, frozen: bool, count: &mut usize) -> PhysicalPlan {
    let need = vec![true; plan.output_width()];
    prune_node(plan, &need, frozen, count).plan
}

/// Prune below `plan`, whose consumers read the output columns flagged in
/// `need`. Only joins drop columns, by projecting their inputs; every
/// other operator passes its input's narrowing through (remapping its own
/// column references) or, where its output is a fixed list — `Project`,
/// scans, a `WITH` definition, the branches of `UNION ALL`, which share
/// one layout — asks for everything.
///
/// `frozen` keeps the node's output schema exactly as it is, aliases
/// included: the rows of a batch that correlated subplans run against are
/// pushed as scope frames and resolved by alias, and a narrowing `Project`
/// erases aliases.
fn prune_node(plan: PhysicalPlan, need: &[bool], frozen: bool, count: &mut usize) -> Pruned {
    let all = vec![true; need.len()];
    let need = if frozen { &all[..] } else { need };
    // `EXISTS` inside this node's expressions runs against its input rows.
    let has_subplans = plan.exprs().any(contains_exists);
    let frozen_below = frozen || has_subplans;
    match plan {
        PhysicalPlan::UnitRow | PhysicalPlan::TableScan { .. } | PhysicalPlan::CteScan { .. } => {
            Pruned::unchanged(plan, need.len())
        }
        PhysicalPlan::SubqueryScan { input, alias } => {
            // Re-aliases every column, so nothing below it is frozen.
            let input = prune_node(*input, need, false, count);
            Pruned {
                plan: PhysicalPlan::SubqueryScan {
                    input: Box::new(input.plan),
                    alias,
                },
                remap: input.remap,
            }
        }
        PhysicalPlan::NestedLoopJoin { left, right } => {
            let (left, right, remap) =
                prune_join(*left, *right, &[], &[], need, frozen_below, count);
            Pruned {
                plan: PhysicalPlan::NestedLoopJoin {
                    left: Box::new(left.plan),
                    right: Box::new(right.plan),
                },
                remap,
            }
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let (left, right, remap) = prune_join(
                *left,
                *right,
                &left_keys,
                &right_keys,
                need,
                frozen_below,
                count,
            );
            Pruned {
                plan: PhysicalPlan::HashJoin {
                    left_keys: remap_exprs(left_keys, &left.remap, count),
                    right_keys: remap_exprs(right_keys, &right.remap, count),
                    left: Box::new(left.plan),
                    right: Box::new(right.plan),
                },
                remap,
            }
        }
        PhysicalPlan::Filter { input, predicate } => {
            let need = with_cols(need, std::slice::from_ref(&predicate));
            let input = prune_node(*input, &need, frozen_below, count);
            Pruned {
                plan: PhysicalPlan::Filter {
                    predicate: remap_expr(predicate, &input.remap, count),
                    input: Box::new(input.plan),
                },
                remap: input.remap,
            }
        }
        PhysicalPlan::ExistsSemiJoin {
            input,
            subplan,
            anti,
        } => {
            let input = prune_node(*input, need, true, count);
            Pruned {
                plan: PhysicalPlan::ExistsSemiJoin {
                    input: Box::new(input.plan),
                    subplan: Box::new(prune_plan(*subplan, count)),
                    anti,
                },
                remap: input.remap,
            }
        }
        PhysicalPlan::HashSemiJoin {
            input,
            build,
            probe_keys,
            build_keys,
            anti,
        } => {
            let need = with_cols(need, &probe_keys);
            let input = prune_node(*input, &need, frozen_below, count);
            // Only the keys of the build side are ever read.
            let build_need = with_cols(&vec![false; build.output_width()], &build_keys);
            let build = prune_node(*build, &build_need, has_subplans, count);
            Pruned {
                plan: PhysicalPlan::HashSemiJoin {
                    probe_keys: remap_exprs(probe_keys, &input.remap, count),
                    build_keys: remap_exprs(build_keys, &build.remap, count),
                    input: Box::new(input.plan),
                    build: Box::new(build.plan),
                    anti,
                },
                remap: input.remap,
            }
        }
        PhysicalPlan::RowNumber { input, specs } => {
            let input_width = need.len() - specs.len();
            let keys: Vec<VExpr> = specs.iter().flatten().cloned().collect();
            let input_need = with_cols(&need[..input_width], &keys);
            let input = prune_node(*input, &input_need, frozen_below, count);
            // The `#rn` columns follow the input's, wherever those end now.
            let mut remap = input.remap.clone();
            remap.extend((0..specs.len()).map(|i| Some(input.width() + i)));
            Pruned {
                plan: PhysicalPlan::RowNumber {
                    specs: specs
                        .into_iter()
                        .map(|spec| remap_exprs(spec, &input.remap, count))
                        .collect(),
                    input: Box::new(input.plan),
                },
                remap,
            }
        }
        PhysicalPlan::Project {
            input,
            exprs,
            columns,
        } => {
            let input_need = with_cols(&vec![false; input.output_width()], &exprs);
            let input = prune_node(*input, &input_need, has_subplans, count);
            Pruned::unchanged(
                PhysicalPlan::Project {
                    exprs: remap_exprs(exprs, &input.remap, count),
                    input: Box::new(input.plan),
                    columns,
                },
                need.len(),
            )
        }
        PhysicalPlan::UnionAll(branches) => Pruned::unchanged(
            PhysicalPlan::UnionAll(
                branches
                    .into_iter()
                    .map(|b| prune_whole(b, frozen, count))
                    .collect(),
            ),
            need.len(),
        ),
        PhysicalPlan::With {
            name,
            definition,
            body,
        } => {
            // The definition's output is what every `CteScan` of it was
            // planned against: prune inside it, never its columns.
            let definition = prune_plan(*definition, count);
            let body = prune_node(*body, need, frozen, count);
            Pruned {
                plan: PhysicalPlan::With {
                    name,
                    definition: Box::new(definition),
                    body: Box::new(body.plan),
                },
                remap: body.remap,
            }
        }
    }
}

/// Prune both inputs of a join whose consumers read `need` of its output
/// and whose keys read their own columns, and compose the output remap.
fn prune_join(
    left: PhysicalPlan,
    right: PhysicalPlan,
    left_keys: &[VExpr],
    right_keys: &[VExpr],
    need: &[bool],
    frozen: bool,
    count: &mut usize,
) -> (Pruned, Pruned, Vec<Option<usize>>) {
    let left_width = left.output_width();
    let left_need = with_cols(&need[..left_width], left_keys);
    let right_need = with_cols(&need[left_width..], right_keys);
    let left = narrow(
        prune_node(left, &left_need, frozen, count),
        &left_need,
        frozen,
        count,
    );
    let right = narrow(
        prune_node(right, &right_need, frozen, count),
        &right_need,
        frozen,
        count,
    );
    let mut remap = left.remap.clone();
    remap.extend(right.remap.iter().map(|r| r.map(|i| i + left.width())));
    (left, right, remap)
}

/// Project a join input down to the columns flagged in `need`, unless it
/// outputs nothing else already (or must keep its schema).
fn narrow(input: Pruned, need: &[bool], frozen: bool, count: &mut usize) -> Pruned {
    let kept = need.iter().filter(|n| **n).count();
    if frozen || kept == input.width() {
        return input;
    }
    let schema = input.plan.schema();
    let mut exprs = Vec::with_capacity(kept);
    let mut columns = Vec::with_capacity(kept);
    let mut remap = vec![None; need.len()];
    for (old, _) in need.iter().enumerate().filter(|(_, n)| **n) {
        let index = input.remap[old].expect("a needed column survives pruning");
        let (alias, column) = schema[index].clone();
        remap[old] = Some(exprs.len());
        columns.push(column.clone());
        exprs.push(VExpr::Col {
            index,
            alias,
            column,
        });
    }
    *count += 1;
    Pruned {
        plan: PhysicalPlan::Project {
            input: Box::new(input.plan),
            exprs,
            columns,
        },
        remap,
    }
}

/// `need`, plus every column the expressions reference (a reference out of
/// range is the plan validator's to report, not ours).
fn with_cols(need: &[bool], exprs: &[VExpr]) -> Vec<bool> {
    let mut need = need.to_vec();
    for index in exprs.iter().flat_map(col_indexes) {
        if let Some(flag) = need.get_mut(index) {
            *flag = true;
        }
    }
    need
}

fn remap_exprs(exprs: Vec<VExpr>, remap: &[Option<usize>], count: &mut usize) -> Vec<VExpr> {
    exprs
        .into_iter()
        .map(|e| remap_expr(e, remap, count))
        .collect()
}

/// Move an expression's column references to their new positions, and prune
/// inside the `EXISTS` subplans it embeds (their own columns index other
/// batches).
fn remap_expr(expr: VExpr, remap: &[Option<usize>], count: &mut usize) -> VExpr {
    expr.map(&mut |e| match e {
        VExpr::Col {
            index,
            alias,
            column,
        } => VExpr::Col {
            index: match remap.get(index) {
                Some(new) => new.expect("a referenced column survives pruning"),
                None => index,
            },
            alias,
            column,
        },
        VExpr::Exists(subplan) => VExpr::Exists(Box::new(prune_plan(*subplan, count))),
        other => other,
    })
}

// ---------------------------------------------------------------------------
// Expression utilities
// ---------------------------------------------------------------------------

/// Flatten an `AND` chain into its conjuncts.
fn split_conjuncts(expr: VExpr) -> Vec<VExpr> {
    match expr {
        VExpr::BinOp {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = split_conjuncts(*left);
            out.extend(split_conjuncts(*right));
            out
        }
        other => vec![other],
    }
}

/// Rebuild an `AND` chain; `None` when there is nothing left.
fn join_conjuncts(conjuncts: Vec<VExpr>) -> Option<VExpr> {
    conjuncts.into_iter().reduce(|acc, next| VExpr::BinOp {
        op: BinOp::And,
        left: Box::new(acc),
        right: Box::new(next),
    })
}

/// Every positional column index the expression references (not descending
/// into `EXISTS` subplans — their columns index a different batch).
fn col_indexes(expr: &VExpr) -> Vec<usize> {
    let mut out = Vec::new();
    expr.any(|e| {
        if let VExpr::Col { index, .. } = e {
            out.push(*index);
        }
        false
    });
    out
}

fn contains_col(expr: &VExpr) -> bool {
    expr.any(|e| matches!(e, VExpr::Col { .. }))
}

fn contains_exists(expr: &VExpr) -> bool {
    expr.any(|e| matches!(e, VExpr::Exists(_)))
}

/// Rebuild every positional column reference with `f(index, alias, column)`
/// (not descending into `EXISTS` subplans).
fn map_cols(expr: VExpr, mut f: impl FnMut(usize, Option<String>, String) -> VExpr) -> VExpr {
    expr.map(&mut |e| match e {
        VExpr::Col {
            index,
            alias,
            column,
        } => f(index, alias, column),
        other => other,
    })
}

/// Shift every column index up by `by` (a relation moved right of a join).
fn shift_cols(expr: VExpr, by: usize) -> VExpr {
    map_cols(expr, |index, alias, column| VExpr::Col {
        index: index + by,
        alias,
        column,
    })
}

/// Shift every column index down by `by` (a predicate routed to the right
/// join input). Only called when every index is ≥ `by`.
fn unshift_cols(expr: VExpr, by: usize) -> VExpr {
    map_cols(expr, |index, alias, column| VExpr::Col {
        index: index - by,
        alias,
        column,
    })
}

/// Replace every `Col { index: i }` with the projection expression `exprs[i]`.
/// Only called after checking each referenced expression is a rename or
/// constant.
fn substitute_cols(expr: VExpr, exprs: &[VExpr]) -> VExpr {
    map_cols(expr, |index, _, _| exprs[index].clone())
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SchemaCatalog;
    use crate::storage::TableDef;

    fn scan(table: &str, alias: &str, columns: &[&str]) -> PhysicalPlan {
        PhysicalPlan::TableScan {
            table: table.to_string(),
            alias: alias.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    fn col(index: usize, column: &str) -> VExpr {
        VExpr::Col {
            index,
            alias: None,
            column: column.to_string(),
        }
    }

    fn acol(index: usize, alias: &str, column: &str) -> VExpr {
        VExpr::Col {
            index,
            alias: Some(alias.to_string()),
            column: column.to_string(),
        }
    }

    fn lit_int(v: i64) -> VExpr {
        VExpr::Lit(SqlValue::Int(v))
    }

    fn eq(l: VExpr, r: VExpr) -> VExpr {
        VExpr::BinOp {
            op: BinOp::Eq,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn and(l: VExpr, r: VExpr) -> VExpr {
        VExpr::BinOp {
            op: BinOp::And,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn empty_catalog() -> SchemaCatalog {
        SchemaCatalog::new(Vec::<TableDef>::new())
    }

    #[test]
    fn folds_literal_arithmetic_and_boolean_identities() {
        let mut count = 0;
        let folded = fold_expr(
            and(
                VExpr::Lit(SqlValue::Bool(true)),
                eq(
                    col(0, "a"),
                    VExpr::BinOp {
                        op: BinOp::Add,
                        left: Box::new(lit_int(1)),
                        right: Box::new(lit_int(2)),
                    },
                ),
            ),
            &mut count,
        );
        assert_eq!(folded, eq(col(0, "a"), lit_int(3)));
        assert_eq!(count, 2);
    }

    #[test]
    fn does_not_fold_erroring_subtrees() {
        let mut count = 0;
        let div = VExpr::BinOp {
            op: BinOp::Div,
            left: Box::new(lit_int(1)),
            right: Box::new(lit_int(0)),
        };
        assert_eq!(fold_expr(div.clone(), &mut count), div);
        assert_eq!(count, 0);
    }

    #[test]
    fn elides_filter_true() {
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan("t", "t", &["a"])),
            predicate: eq(lit_int(1), lit_int(1)),
        };
        let (opt, report) = optimize(plan, &empty_catalog());
        assert_eq!(opt, scan("t", "t", &["a"]));
        assert!(report.rewrites.iter().any(|r| r.contains("folded")));
    }

    #[test]
    fn decorrelates_simple_equality_exists() {
        // SELECT … FROM t WHERE EXISTS (SELECT 1 FROM c WHERE c.x = t.a AND c.y = 7)
        let subplan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan("c", "c", &["x", "y"])),
                predicate: and(
                    eq(
                        col(0, "x"),
                        VExpr::Outer {
                            table: Some("t".to_string()),
                            column: "a".to_string(),
                        },
                    ),
                    eq(col(1, "y"), lit_int(7)),
                ),
            }),
            exprs: vec![lit_int(1)],
            columns: vec!["one".to_string()],
        };
        let plan = PhysicalPlan::ExistsSemiJoin {
            input: Box::new(scan("t", "t", &["a", "b"])),
            subplan: Box::new(subplan),
            anti: false,
        };
        let (opt, report) = optimize(plan, &empty_catalog());
        assert!(
            report
                .rewrites
                .iter()
                .any(|r| r.contains("decorrelated ExistsSemiJoin into HashSemiJoin")),
            "rewrites: {:?}",
            report.rewrites
        );
        assert!(report.skipped.is_empty(), "skipped: {:?}", report.skipped);
        let PhysicalPlan::HashSemiJoin {
            probe_keys,
            build_keys,
            build,
            anti,
            ..
        } = opt
        else {
            panic!("expected HashSemiJoin, got {}", opt);
        };
        assert!(!anti);
        assert_eq!(probe_keys, vec![acol(0, "t", "a")]);
        assert_eq!(build_keys.len(), 1);
        // The uncorrelated residue (c.y = 7) stays on the build side.
        let rendered = build.to_string();
        assert!(rendered.contains("Filter"), "build: {}", rendered);
        assert!(rendered.contains("#k0"), "build: {}", rendered);
    }

    #[test]
    fn skips_non_equality_correlation_with_reason() {
        let subplan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan("c", "c", &["x"])),
                predicate: VExpr::BinOp {
                    op: BinOp::Lt,
                    left: Box::new(col(0, "x")),
                    right: Box::new(VExpr::Outer {
                        table: Some("t".to_string()),
                        column: "a".to_string(),
                    }),
                },
            }),
            exprs: vec![lit_int(1)],
            columns: vec!["one".to_string()],
        };
        let plan = PhysicalPlan::ExistsSemiJoin {
            input: Box::new(scan("t", "t", &["a"])),
            subplan: Box::new(subplan),
            anti: true,
        };
        let (opt, report) = optimize(plan, &empty_catalog());
        assert!(matches!(
            opt,
            PhysicalPlan::ExistsSemiJoin { anti: true, .. }
        ));
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].node, "ExistsSemiJoin anti");
        assert!(report.skipped[0].reason.contains("not a simple equality"));
    }

    #[test]
    fn decorrelates_union_all_branches_with_reordered_keys() {
        let outer = |c: &str| VExpr::Outer {
            table: Some("t".to_string()),
            column: c.to_string(),
        };
        let branch = |first_a: bool| PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan("c", "c", &["x", "y"])),
                predicate: if first_a {
                    and(eq(outer("a"), col(0, "x")), eq(outer("b"), col(1, "y")))
                } else {
                    and(eq(outer("b"), col(1, "y")), eq(outer("a"), col(0, "x")))
                },
            }),
            exprs: vec![lit_int(1)],
            columns: vec!["one".to_string()],
        };
        let plan = PhysicalPlan::ExistsSemiJoin {
            input: Box::new(scan("t", "t", &["a", "b"])),
            subplan: Box::new(PhysicalPlan::UnionAll(vec![branch(true), branch(false)])),
            anti: false,
        };
        let (opt, report) = optimize(plan, &empty_catalog());
        assert!(report.skipped.is_empty(), "skipped: {:?}", report.skipped);
        let PhysicalPlan::HashSemiJoin {
            probe_keys, build, ..
        } = opt
        else {
            panic!("expected HashSemiJoin, got {}", opt);
        };
        assert_eq!(probe_keys, vec![acol(0, "t", "a"), acol(1, "t", "b")]);
        assert!(matches!(*build, PhysicalPlan::UnionAll(ref bs) if bs.len() == 2));
    }

    #[test]
    fn pushes_predicate_through_project_and_join() {
        // Filter(a = 1) over Project[a := t.a, z := u.z] over HashJoin(t, u)
        let join = PhysicalPlan::HashJoin {
            left: Box::new(scan("t", "t", &["a", "b"])),
            right: Box::new(scan("u", "u", &["z"])),
            left_keys: vec![col(1, "b")],
            right_keys: vec![col(0, "z")],
        };
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(join),
                exprs: vec![col(0, "a"), col(2, "z")],
                columns: vec!["a".to_string(), "z".to_string()],
            }),
            predicate: eq(col(0, "a"), lit_int(1)),
        };
        let (opt, report) = optimize(plan, &empty_catalog());
        assert!(
            report
                .rewrites
                .iter()
                .any(|r| r.contains("pushed 1 predicate")),
            "rewrites: {:?}",
            report.rewrites
        );
        // The filter now sits directly on the left scan, below project+join.
        let rendered = opt.to_string();
        let filter_pos = rendered.find("Filter").unwrap();
        let join_pos = rendered.find("HashJoin").unwrap();
        assert!(filter_pos > join_pos, "plan:\n{}", rendered);
    }

    #[test]
    fn does_not_push_below_row_number() {
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::RowNumber {
                input: Box::new(scan("t", "t", &["a"])),
                specs: vec![vec![col(0, "a")]],
            }),
            predicate: eq(col(0, "a"), lit_int(1)),
        };
        let (opt, report) = optimize(plan.clone(), &empty_catalog());
        assert_eq!(opt, plan);
        assert!(
            report.rewrites.is_empty(),
            "rewrites: {:?}",
            report.rewrites
        );
    }

    fn t_join_u() -> PhysicalPlan {
        PhysicalPlan::HashJoin {
            left: Box::new(scan("t", "t", &["a", "b", "c"])),
            right: Box::new(scan("u", "u", &["x", "y", "z"])),
            left_keys: vec![acol(1, "t", "b")],
            right_keys: vec![acol(0, "u", "x")],
        }
    }

    #[test]
    fn narrows_join_inputs_to_the_columns_read_above() {
        // Project[t.c, u.z] over t ⋈ u on t.b = u.x reads 4 of 6 columns.
        let plan = PhysicalPlan::Project {
            input: Box::new(t_join_u()),
            exprs: vec![acol(2, "t", "c"), acol(5, "u", "z")],
            columns: vec!["c".to_string(), "z".to_string()],
        };
        let (opt, report) = optimize(plan, &empty_catalog());
        assert!(
            report
                .rewrites
                .iter()
                .any(|r| r.contains("narrowed 2 join input(s)")),
            "rewrites: {:?}",
            report.rewrites
        );
        let narrow = |input: PhysicalPlan, picks: &[(usize, &str, &str)]| PhysicalPlan::Project {
            input: Box::new(input),
            exprs: picks.iter().map(|(i, a, c)| acol(*i, a, c)).collect(),
            columns: picks.iter().map(|(_, _, c)| c.to_string()).collect(),
        };
        let expected = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(narrow(
                    scan("t", "t", &["a", "b", "c"]),
                    &[(1, "t", "b"), (2, "t", "c")],
                )),
                right: Box::new(narrow(
                    scan("u", "u", &["x", "y", "z"]),
                    &[(0, "u", "x"), (2, "u", "z")],
                )),
                left_keys: vec![acol(0, "t", "b")],
                right_keys: vec![acol(0, "u", "x")],
            }),
            exprs: vec![acol(1, "t", "c"), acol(3, "u", "z")],
            columns: vec!["c".to_string(), "z".to_string()],
        };
        assert_eq!(opt, expected, "got:\n{}", opt);
    }

    #[test]
    fn pruning_passes_through_filters_and_row_numbers_and_remaps_them() {
        // Project[#rn0] over RowNumber[t.c] over Filter(u.y = 1) over t ⋈ u.
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::RowNumber {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::NestedLoopJoin {
                        left: Box::new(scan("t", "t", &["a", "b", "c"])),
                        right: Box::new(scan("u", "u", &["x", "y", "z"])),
                    }),
                    // Spans both sides, so pushdown leaves it above the join.
                    predicate: eq(acol(4, "u", "y"), acol(0, "t", "a")),
                }),
                specs: vec![vec![acol(2, "t", "c")]],
            }),
            exprs: vec![col(6, "#rn0")],
            columns: vec!["rank".to_string()],
        };
        let (opt, _) = optimize(plan, &empty_catalog());
        let rendered = opt.to_string();
        // t narrows to (a, c), u to (y): the filter, the window and the
        // projection follow the columns to positions 2/0, 1 and 3.
        assert!(
            rendered.contains("Project [t.a AS a, t.c AS c]"),
            "{}",
            rendered
        );
        assert!(rendered.contains("Project [u.y AS y]"), "{}", rendered);
        let PhysicalPlan::Project { input, exprs, .. } = &opt else {
            panic!("expected Project, got {}", opt);
        };
        assert_eq!(exprs, &vec![col(3, "#rn0")]);
        let PhysicalPlan::RowNumber { input, specs } = input.as_ref() else {
            panic!("expected RowNumber, got {}", input);
        };
        assert_eq!(specs, &vec![vec![acol(1, "t", "c")]]);
        let PhysicalPlan::Filter { predicate, .. } = input.as_ref() else {
            panic!("expected Filter, got {}", input);
        };
        assert_eq!(predicate, &eq(acol(2, "u", "y"), acol(0, "t", "a")));
        assert_eq!(opt.output_columns(), vec!["rank".to_string()]);
    }

    #[test]
    fn pruning_keeps_whole_rows_for_with_definitions_and_union_branches() {
        let cte_scan = PhysicalPlan::CteScan {
            name: "q".to_string(),
            alias: "z".to_string(),
            columns: vec!["a".to_string(), "b".to_string(), "c".to_string()],
        };
        for plan in [
            // The definition is a join: its six columns are the CTE's layout.
            PhysicalPlan::With {
                name: "q".to_string(),
                definition: Box::new(t_join_u()),
                body: Box::new(PhysicalPlan::Project {
                    input: Box::new(cte_scan),
                    exprs: vec![acol(0, "z", "a")],
                    columns: vec!["a".to_string()],
                }),
            },
            PhysicalPlan::UnionAll(vec![t_join_u(), t_join_u()]),
        ] {
            let (opt, report) = optimize(plan.clone(), &empty_catalog());
            assert_eq!(opt, plan);
            assert!(
                report.rewrites.is_empty(),
                "rewrites: {:?}",
                report.rewrites
            );
        }
    }

    #[test]
    fn pruning_keeps_the_schema_correlated_subplans_resolve_against() {
        // `outer(t.a) < c.x` cannot decorrelate, so the subplan keeps running
        // once per row of t ⋈ u with that row pushed as a frame, resolved by
        // alias: the join's inputs must keep their aliases, i.e. stay as
        // they are, although the projection reads one column.
        let subplan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan("c", "c", &["x"])),
                predicate: VExpr::BinOp {
                    op: BinOp::Lt,
                    left: Box::new(VExpr::Outer {
                        table: Some("t".to_string()),
                        column: "a".to_string(),
                    }),
                    right: Box::new(col(0, "x")),
                },
            }),
            exprs: vec![lit_int(1)],
            columns: vec!["one".to_string()],
        };
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::ExistsSemiJoin {
                input: Box::new(t_join_u()),
                subplan: Box::new(subplan),
                anti: false,
            }),
            exprs: vec![acol(2, "t", "c")],
            columns: vec!["c".to_string()],
        };
        let (opt, report) = optimize(plan.clone(), &empty_catalog());
        assert_eq!(opt, plan);
        assert_eq!(report.skipped.len(), 1);
        assert!(
            report.rewrites.is_empty(),
            "rewrites: {:?}",
            report.rewrites
        );
    }
}
