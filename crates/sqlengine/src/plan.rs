//! Logical-to-physical query compilation.
//!
//! The planner turns a parsed [`Query`] into an explicit [`PhysicalPlan`]
//! tree once, ahead of execution. The interpreter in [`crate::exec`]
//! re-derives its join strategy from the AST on every call; the planner makes
//! those decisions explicit and cacheable:
//!
//! * every `FROM` item becomes a scan node (table, CTE or subquery),
//! * equi-join conjuncts become [`PhysicalPlan::HashJoin`] nodes with resolved
//!   key expressions (the plan names no build side: the executor builds the
//!   hash table on whichever input turns out smaller, the right one on a
//!   tie),
//! * the remaining conjuncts become [`PhysicalPlan::Filter`] nodes placed as
//!   soon as every alias they mention is bound (predicate pushdown),
//! * `EXISTS` / `NOT EXISTS` conjuncts become [`PhysicalPlan::ExistsSemiJoin`]
//!   nodes (semi / anti joins against a pre-planned subplan),
//! * `ROW_NUMBER` and projection become explicit operators.
//!
//! Column references are resolved to **positional** indexes into the input
//! batch at plan time ([`VExpr::Col`]); references to enclosing queries stay
//! symbolic ([`VExpr::Outer`]) and are looked up in the runtime scope stack,
//! mirroring the interpreter's correlated-subquery semantics. The planner
//! consults a [`Catalog`] for table layouts only, so a plan built from live
//! [`Storage`] is the plan built from a schema alone ([`SchemaCatalog`]) —
//! which is what lets `shredding`'s session cache fully planned queries
//! before any data is attached.

use crate::ast::{BinOp, Expr, FromItem, Query, Select, TableSource};
use crate::error::EngineError;
use crate::storage::{Storage, TableDef};
use crate::value::SqlValue;
use std::collections::HashMap;
use std::fmt;

// ---------------------------------------------------------------------------
// The catalog
// ---------------------------------------------------------------------------

/// What the planner may ask about stored tables: their column layout.
///
/// Catalogs are `Send + Sync` so planning can happen from any thread against
/// a shared engine or schema (both provided implementations — [`Storage`]
/// and [`SchemaCatalog`] — are plain shared-readable data).
pub trait Catalog: Send + Sync {
    /// The column names of a stored table, in declaration order.
    fn table_columns(&self, name: &str) -> Option<Vec<String>>;
}

impl Catalog for Storage {
    fn table_columns(&self, name: &str) -> Option<Vec<String>> {
        self.table(name).ok().map(|t| t.def.column_names())
    }
}

/// A data-free catalog built from table definitions alone. Used to plan
/// against a schema before any database is attached.
#[derive(Debug, Clone, Default)]
pub struct SchemaCatalog {
    defs: Vec<TableDef>,
}

impl SchemaCatalog {
    /// A catalog over the given table definitions.
    pub fn new(defs: Vec<TableDef>) -> SchemaCatalog {
        SchemaCatalog { defs }
    }
}

impl Catalog for SchemaCatalog {
    fn table_columns(&self, name: &str) -> Option<Vec<String>> {
        self.defs
            .iter()
            .find(|d| d.name == name)
            .map(TableDef::column_names)
    }
}

// ---------------------------------------------------------------------------
// Physical expressions
// ---------------------------------------------------------------------------

/// A scalar expression with column references resolved against the plan
/// node's input batch (positional) or against the enclosing queries' scope
/// stack (symbolic, for correlated subqueries).
///
/// `PartialEq` is structural (indexes, names, literals), which is what the
/// package-level common-subplan elimination in `shredding` keys on.
#[derive(Debug, Clone, PartialEq)]
pub enum VExpr {
    /// Column `index` of the input batch. `alias`/`column` are kept for
    /// rendering only.
    Col {
        index: usize,
        alias: Option<String>,
        column: String,
    },
    /// A reference into an enclosing query's row, resolved at runtime.
    Outer {
        table: Option<String>,
        column: String,
    },
    /// A literal value.
    Lit(SqlValue),
    /// A named placeholder `:name` — a param slot filled from the
    /// `ParamValues` supplied at execution time. Plans with param slots are
    /// compiled once and re-executed with different bindings.
    Param(String),
    /// A binary operation.
    BinOp {
        op: BinOp,
        left: Box<VExpr>,
        right: Box<VExpr>,
    },
    /// Boolean negation.
    Not(Box<VExpr>),
    /// `EXISTS (subplan)`, evaluated per row with the row bound as an outer
    /// scope frame.
    Exists(Box<PhysicalPlan>),
}

impl fmt::Display for VExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VExpr::Col { alias, column, .. } => match alias {
                Some(a) => write!(f, "{}.{}", a, column),
                None => write!(f, "{}", column),
            },
            VExpr::Outer { table, column } => match table {
                Some(t) => write!(f, "outer({}.{})", t, column),
                None => write!(f, "outer({})", column),
            },
            VExpr::Lit(v) => write!(f, "{}", v),
            VExpr::Param(name) => write!(f, ":{}", name),
            VExpr::BinOp { op, left, right } => {
                write!(f, "({} {} {})", left, op.symbol(), right)
            }
            VExpr::Not(inner) => write!(f, "NOT ({})", inner),
            VExpr::Exists(_) => write!(f, "EXISTS (…)"),
        }
    }
}

impl VExpr {
    /// Does `f` hold for this expression or any of its subexpressions,
    /// visited in pre-order? An `EXISTS` is visited as a leaf: its subplan's
    /// expressions index other batches, so a walk that wants them says so.
    pub(crate) fn any<'a>(&'a self, mut f: impl FnMut(&'a VExpr) -> bool) -> bool {
        fn go<'a>(e: &'a VExpr, f: &mut impl FnMut(&'a VExpr) -> bool) -> bool {
            f(e) || match e {
                VExpr::BinOp { left, right, .. } => go(left, f) || go(right, f),
                VExpr::Not(inner) => go(inner, f),
                _ => false,
            }
        }
        go(self, &mut f)
    }

    /// Rebuild the expression bottom-up: subexpressions first, then `f` on
    /// the rebuilt node. An `EXISTS` is a leaf, as in [`VExpr::any`].
    pub(crate) fn map(self, f: &mut impl FnMut(VExpr) -> VExpr) -> VExpr {
        let node = match self {
            VExpr::BinOp { op, left, right } => VExpr::BinOp {
                op,
                left: Box::new((*left).map(f)),
                right: Box::new((*right).map(f)),
            },
            VExpr::Not(inner) => VExpr::Not(Box::new((*inner).map(f))),
            leaf => leaf,
        };
        f(node)
    }

    /// Apply `f`, in place and in pre-order, to each `EXISTS` subplan of
    /// this expression (not to the subplans nested inside those).
    fn for_each_subplan_mut(&mut self, f: &mut impl FnMut(&mut PhysicalPlan)) {
        match self {
            VExpr::Exists(sub) => f(sub),
            VExpr::BinOp { left, right, .. } => {
                left.for_each_subplan_mut(f);
                right.for_each_subplan_mut(f);
            }
            VExpr::Not(inner) => inner.for_each_subplan_mut(f),
            VExpr::Col { .. } | VExpr::Outer { .. } | VExpr::Lit(_) | VExpr::Param(_) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Physical plans
// ---------------------------------------------------------------------------

/// An executable physical plan tree. Produced once by [`plan_query`] and run
/// any number of times by [`crate::vexec`]. `PartialEq` is structural —
/// two plans compare equal iff they are the same operator tree with the
/// same resolved expressions — which is what cross-stage subplan sharing
/// keys on.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// A single row with no columns — the join identity (a `SELECT` without
    /// `FROM` produces exactly one output row).
    UnitRow,
    /// Scan a stored table.
    TableScan {
        table: String,
        alias: String,
        columns: Vec<String>,
    },
    /// Scan a `WITH`-bound result.
    CteScan {
        name: String,
        alias: String,
        columns: Vec<String>,
    },
    /// Re-alias the result of a planned subquery in `FROM`.
    SubqueryScan {
        input: Box<PhysicalPlan>,
        alias: String,
    },
    /// Cross product (no usable equi-join key).
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
    },
    /// Hash equi-join. `left_keys[i]` pairs with `right_keys[i]`. The
    /// executor runs both inputs, then builds the hash table on the smaller
    /// one (the right one on a tie) and probes it with the other.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_keys: Vec<VExpr>,
        right_keys: Vec<VExpr>,
    },
    /// Keep rows whose predicate evaluates to `TRUE`.
    Filter {
        input: Box<PhysicalPlan>,
        predicate: VExpr,
    },
    /// Keep rows for which the correlated subplan is non-empty (`anti`
    /// inverts: keep rows for which it is empty).
    ExistsSemiJoin {
        input: Box<PhysicalPlan>,
        subplan: Box<PhysicalPlan>,
        anti: bool,
    },
    /// Decorrelated semi/anti join: execute `build` **once**, hash its
    /// `build_keys`, and keep the input rows whose `probe_keys` hit the
    /// table (`anti` inverts). Produced by the logical optimizer
    /// ([`crate::opt`]) from a correlated [`PhysicalPlan::ExistsSemiJoin`]
    /// whose correlation is a conjunction of equalities; `probe_keys[i]`
    /// pairs with `build_keys[i]`. Build rows with a `NULL` key never
    /// match; a probe row with a `NULL` key matches nothing (the semi join
    /// drops it, the anti join keeps it) — exactly the three-valued
    /// semantics of the equality filter it replaces. With empty key lists
    /// the node is an uncorrelated `EXISTS`: the probe matches iff the
    /// build is non-empty.
    HashSemiJoin {
        input: Box<PhysicalPlan>,
        build: Box<PhysicalPlan>,
        probe_keys: Vec<VExpr>,
        build_keys: Vec<VExpr>,
        anti: bool,
    },
    /// Append one `#rn<i>` column per window specification, numbering rows
    /// by the spec's sort keys.
    RowNumber {
        input: Box<PhysicalPlan>,
        specs: Vec<Vec<VExpr>>,
    },
    /// Evaluate the projection list; output columns are named `columns`.
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<VExpr>,
        columns: Vec<String>,
    },
    /// Bag union of several inputs.
    UnionAll(Vec<PhysicalPlan>),
    /// Materialise `definition` under `name` for `CteScan`s inside `body`.
    With {
        name: String,
        definition: Box<PhysicalPlan>,
        body: Box<PhysicalPlan>,
    },
}

/// One column of a plan node's output as the runtime scope sees it: the
/// binding alias (absent after projection) and the column name.
pub(crate) type SchemaCol = (Option<String>, String);

impl PhysicalPlan {
    /// The `(alias, column)` schema of the plan's output: exactly what the
    /// vectorized executor pushes as the scope frame for a correlated
    /// subplan over this node's rows.
    pub(crate) fn schema(&self) -> Vec<SchemaCol> {
        match self {
            PhysicalPlan::UnitRow => Vec::new(),
            PhysicalPlan::TableScan { alias, columns, .. }
            | PhysicalPlan::CteScan { alias, columns, .. } => columns
                .iter()
                .map(|c| (Some(alias.clone()), c.clone()))
                .collect(),
            PhysicalPlan::SubqueryScan { input, alias } => input
                .schema()
                .into_iter()
                .map(|(_, c)| (Some(alias.clone()), c))
                .collect(),
            PhysicalPlan::NestedLoopJoin { left, right }
            | PhysicalPlan::HashJoin { left, right, .. } => {
                let mut schema = left.schema();
                schema.extend(right.schema());
                schema
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::ExistsSemiJoin { input, .. }
            | PhysicalPlan::HashSemiJoin { input, .. } => input.schema(),
            PhysicalPlan::RowNumber { input, specs } => {
                let mut schema = input.schema();
                schema.extend((0..specs.len()).map(|i| (None, format!("#rn{}", i))));
                schema
            }
            PhysicalPlan::Project { columns, .. } => {
                columns.iter().map(|c| (None, c.clone())).collect()
            }
            PhysicalPlan::UnionAll(branches) => {
                branches.first().map(Self::schema).unwrap_or_default()
            }
            PhysicalPlan::With { body, .. } => body.schema(),
        }
    }

    /// The output column names of the plan: the names of its
    /// `schema`.
    pub fn output_columns(&self) -> Vec<String> {
        self.schema().into_iter().map(|(_, c)| c).collect()
    }

    /// `output_columns().len()`, without building the names.
    pub(crate) fn output_width(&self) -> usize {
        match self {
            PhysicalPlan::UnitRow => 0,
            PhysicalPlan::TableScan { columns, .. }
            | PhysicalPlan::CteScan { columns, .. }
            | PhysicalPlan::Project { columns, .. } => columns.len(),
            PhysicalPlan::NestedLoopJoin { left, right }
            | PhysicalPlan::HashJoin { left, right, .. } => {
                left.output_width() + right.output_width()
            }
            PhysicalPlan::SubqueryScan { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::ExistsSemiJoin { input, .. }
            | PhysicalPlan::HashSemiJoin { input, .. } => input.output_width(),
            PhysicalPlan::RowNumber { input, specs } => input.output_width() + specs.len(),
            PhysicalPlan::UnionAll(branches) => {
                branches.first().map_or(0, PhysicalPlan::output_width)
            }
            PhysicalPlan::With { body, .. } => body.output_width(),
        }
    }

    /// Number of operator nodes reachable through inputs (used by tests and
    /// explain). The `EXISTS` subplans of expressions are not counted;
    /// [`nodes`](Self::nodes) lists them.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .into_iter()
            .map(PhysicalPlan::node_count)
            .sum::<usize>()
    }

    /// The operator kind name, as shown at the head of each rendered plan
    /// line (used to bucket per-operator metrics).
    pub fn kind(&self) -> &'static str {
        match self {
            PhysicalPlan::UnitRow => "UnitRow",
            PhysicalPlan::TableScan { .. } => "TableScan",
            PhysicalPlan::CteScan { .. } => "CteScan",
            PhysicalPlan::SubqueryScan { .. } => "SubqueryScan",
            PhysicalPlan::NestedLoopJoin { .. } => "NestedLoopJoin",
            PhysicalPlan::HashJoin { .. } => "HashJoin",
            PhysicalPlan::Filter { .. } => "Filter",
            PhysicalPlan::ExistsSemiJoin { .. } => "ExistsSemiJoin",
            PhysicalPlan::HashSemiJoin { .. } => "HashSemiJoin",
            PhysicalPlan::RowNumber { .. } => "RowNumber",
            PhysicalPlan::Project { .. } => "Project",
            PhysicalPlan::UnionAll(_) => "UnionAll",
            PhysicalPlan::With { .. } => "With",
        }
    }

    /// Is this operator a **pipeline breaker** — one that must observe its
    /// whole input before emitting its first output row (numbering,
    /// union)? Everything else (scans, filters, joins, projections,
    /// exists-semijoins) is streaming: its output for a run of input rows
    /// depends only on those rows.
    ///
    /// `HashJoin` is deliberately *not* classified as a breaker: only its
    /// build side is blocking; the probe side streams.
    pub fn is_pipeline_breaker(&self) -> bool {
        matches!(
            self,
            PhysicalPlan::RowNumber { .. } | PhysicalPlan::UnionAll(_)
        )
    }

    /// The node's direct structural children (its inputs), in field order.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::UnitRow
            | PhysicalPlan::TableScan { .. }
            | PhysicalPlan::CteScan { .. } => Vec::new(),
            PhysicalPlan::SubqueryScan { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::RowNumber { input, .. }
            | PhysicalPlan::Project { input, .. } => vec![input],
            PhysicalPlan::ExistsSemiJoin { input, subplan, .. } => vec![input, subplan],
            PhysicalPlan::HashSemiJoin { input, build, .. } => vec![input, build],
            PhysicalPlan::NestedLoopJoin { left, right }
            | PhysicalPlan::HashJoin { left, right, .. } => vec![left, right],
            PhysicalPlan::UnionAll(branches) => branches.iter().collect(),
            PhysicalPlan::With {
                definition, body, ..
            } => vec![definition, body],
        }
    }

    /// Apply `f` to each of the node's inputs, in place and in the order of
    /// [`children`](Self::children).
    pub(crate) fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut PhysicalPlan)) {
        match self {
            PhysicalPlan::UnitRow
            | PhysicalPlan::TableScan { .. }
            | PhysicalPlan::CteScan { .. } => {}
            PhysicalPlan::SubqueryScan { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::RowNumber { input, .. }
            | PhysicalPlan::Project { input, .. } => f(input),
            PhysicalPlan::ExistsSemiJoin {
                input: first,
                subplan: second,
                ..
            }
            | PhysicalPlan::HashSemiJoin {
                input: first,
                build: second,
                ..
            }
            | PhysicalPlan::NestedLoopJoin {
                left: first,
                right: second,
            }
            | PhysicalPlan::HashJoin {
                left: first,
                right: second,
                ..
            }
            | PhysicalPlan::With {
                definition: first,
                body: second,
                ..
            } => {
                f(first);
                f(second);
            }
            PhysicalPlan::UnionAll(branches) => branches.iter_mut().for_each(f),
        }
    }

    /// The node's expressions, in field order: a filter's predicate, a hash
    /// join's left then right keys, a hash semi-join's probe then build
    /// keys, a row numbering's specs, a projection's list.
    pub(crate) fn exprs(&self) -> impl Iterator<Item = &VExpr> {
        let (first, second, specs): (&[VExpr], &[VExpr], &[Vec<VExpr>]) = match self {
            PhysicalPlan::Filter { predicate, .. } => (std::slice::from_ref(predicate), &[], &[]),
            PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                ..
            } => (left_keys, right_keys, &[]),
            PhysicalPlan::HashSemiJoin {
                probe_keys,
                build_keys,
                ..
            } => (probe_keys, build_keys, &[]),
            PhysicalPlan::RowNumber { specs, .. } => (&[], &[], specs),
            PhysicalPlan::Project { exprs, .. } => (exprs, &[], &[]),
            _ => (&[], &[], &[]),
        };
        first.iter().chain(second).chain(specs.iter().flatten())
    }

    /// Apply `f` to each of the node's expressions, in place and in the
    /// order of [`exprs`](Self::exprs).
    pub(crate) fn for_each_expr_mut(&mut self, f: impl FnMut(&mut VExpr)) {
        let (first, second, specs): (&mut [VExpr], &mut [VExpr], &mut [Vec<VExpr>]) = match self {
            PhysicalPlan::Filter { predicate, .. } => {
                (std::slice::from_mut(predicate), &mut [], &mut [])
            }
            PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                ..
            } => (left_keys, right_keys, &mut []),
            PhysicalPlan::HashSemiJoin {
                probe_keys,
                build_keys,
                ..
            } => (probe_keys, build_keys, &mut []),
            PhysicalPlan::RowNumber { specs, .. } => (&mut [], &mut [], specs),
            PhysicalPlan::Project { exprs, .. } => (exprs, &mut [], &mut []),
            _ => (&mut [], &mut [], &mut []),
        };
        first
            .iter_mut()
            .chain(second)
            .chain(specs.iter_mut().flatten())
            .for_each(f)
    }

    /// Rebuild the node with `f` applied to each input, then to each
    /// `EXISTS` subplan inside its expressions, in field order. One level:
    /// `f` decides whether to recurse. Expressions are updated in place, so
    /// one without an `EXISTS` is not rebuilt.
    pub(crate) fn map_children(
        mut self,
        mut f: impl FnMut(PhysicalPlan) -> PhysicalPlan,
    ) -> PhysicalPlan {
        let mut apply =
            |slot: &mut PhysicalPlan| *slot = f(std::mem::replace(slot, PhysicalPlan::UnitRow));
        self.for_each_child_mut(&mut apply);
        self.for_each_expr_mut(|e| e.for_each_subplan_mut(&mut apply));
        self
    }

    /// `EXISTS (…)` subplans referenced by this node's expressions (not by
    /// its structural children). These execute once per input row via
    /// [`VExpr::Exists`] and get profiled like any other node.
    pub(crate) fn expr_subplans(&self) -> Vec<&PhysicalPlan> {
        let mut acc = Vec::new();
        for e in self.exprs() {
            e.any(|e| {
                if let VExpr::Exists(sub) = e {
                    acc.push(&**sub);
                }
                false
            });
        }
        acc
    }

    /// Every node of the plan in pre-order: the node itself, then the
    /// subplans of its expressions, then its structural children. A node's
    /// position in this list is its stable *pre-order index*, the key the
    /// profiled executor files per-operator actuals under.
    pub fn nodes(&self) -> Vec<&PhysicalPlan> {
        fn go<'p>(p: &'p PhysicalPlan, acc: &mut Vec<&'p PhysicalPlan>) {
            acc.push(p);
            for sub in p.expr_subplans() {
                go(sub, acc);
            }
            for child in p.children() {
                go(child, acc);
            }
        }
        let mut acc = Vec::new();
        go(self, &mut acc);
        acc
    }

    /// Every stored table this plan (or any of its subplans — `EXISTS`
    /// expressions, semi-join subplans, `WITH` definitions) scans. The
    /// incremental maintenance layer uses this to skip subtrees a write
    /// batch cannot have affected.
    pub fn referenced_tables(&self) -> std::collections::BTreeSet<String> {
        self.nodes()
            .into_iter()
            .filter_map(|n| match n {
                PhysicalPlan::TableScan { table, .. } => Some(table.clone()),
                _ => None,
            })
            .collect()
    }

    /// Every *free* `WITH`-bound name this plan scans: `CteScan` names not
    /// bound by an enclosing `With` inside this subtree. A stage plan has no
    /// free CTEs; subtrees of it (e.g. an `EXISTS` subplan under the `WITH`
    /// body) may.
    pub fn free_ctes(&self) -> std::collections::BTreeSet<String> {
        fn go(
            p: &PhysicalPlan,
            bound: &mut Vec<String>,
            acc: &mut std::collections::BTreeSet<String>,
        ) {
            if let PhysicalPlan::CteScan { name, .. } = p {
                if !bound.iter().any(|b| b == name) {
                    acc.insert(name.clone());
                }
            }
            for sub in p.expr_subplans() {
                go(sub, bound, acc);
            }
            if let PhysicalPlan::With {
                name,
                definition,
                body,
            } = p
            {
                go(definition, bound, acc);
                bound.push(name.clone());
                go(body, bound, acc);
                bound.pop();
            } else {
                for child in p.children() {
                    go(child, bound, acc);
                }
            }
        }
        let mut acc = std::collections::BTreeSet::new();
        go(self, &mut Vec::new(), &mut acc);
        acc
    }

    /// The plan's param slots: every named placeholder referenced anywhere in
    /// the plan tree (including subplans), in first-occurrence order.
    /// Executing the plan requires a bound value for each.
    pub fn params(&self) -> Vec<String> {
        // Bottom-up: inputs first, then the node's own expressions with the
        // `EXISTS` subplans inside them.
        fn go(p: &PhysicalPlan, acc: &mut Vec<String>) {
            for child in p.children() {
                go(child, acc);
            }
            for e in p.exprs() {
                e.any(|e| {
                    match e {
                        VExpr::Param(name) if !acc.contains(name) => acc.push(name.clone()),
                        VExpr::Exists(sub) => go(sub, acc),
                        _ => {}
                    }
                    false
                });
            }
        }
        let mut acc = Vec::new();
        go(self, &mut acc);
        acc
    }

    /// This node's own render line, without indentation or children.
    fn node_line(&self) -> String {
        match self {
            PhysicalPlan::UnitRow => "UnitRow".to_string(),
            PhysicalPlan::TableScan { table, alias, .. } => {
                format!("TableScan {} AS {}", table, alias)
            }
            PhysicalPlan::CteScan { name, alias, .. } => {
                format!("CteScan {} AS {}", name, alias)
            }
            PhysicalPlan::SubqueryScan { alias, .. } => format!("SubqueryScan AS {}", alias),
            PhysicalPlan::NestedLoopJoin { .. } => "NestedLoopJoin".to_string(),
            PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                ..
            } => {
                let keys: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(l, r)| format!("{} = {}", l, r))
                    .collect();
                format!("HashJoin keys=[{}]", keys.join(", "))
            }
            PhysicalPlan::Filter { predicate, .. } => format!("Filter {}", predicate),
            PhysicalPlan::ExistsSemiJoin { anti, .. } => {
                if *anti {
                    "ExistsSemiJoin anti".to_string()
                } else {
                    "ExistsSemiJoin".to_string()
                }
            }
            PhysicalPlan::HashSemiJoin {
                probe_keys,
                build_keys,
                anti,
                ..
            } => {
                let keys: Vec<String> = probe_keys
                    .iter()
                    .zip(build_keys)
                    .map(|(p, b)| format!("{} = {}", p, b))
                    .collect();
                format!(
                    "HashSemiJoin{} keys=[{}]",
                    if *anti { " anti" } else { "" },
                    keys.join(", ")
                )
            }
            PhysicalPlan::RowNumber { specs, .. } => {
                let rendered: Vec<String> = specs
                    .iter()
                    .map(|keys| {
                        let ks: Vec<String> = keys.iter().map(VExpr::to_string).collect();
                        format!("[{}]", ks.join(", "))
                    })
                    .collect();
                format!("RowNumber over {}", rendered.join(" "))
            }
            PhysicalPlan::Project { exprs, columns, .. } => {
                let items: Vec<String> = exprs
                    .iter()
                    .zip(columns)
                    .map(|(e, c)| format!("{} AS {}", e, c))
                    .collect();
                format!("Project [{}]", items.join(", "))
            }
            PhysicalPlan::UnionAll(_) => "UnionAll".to_string(),
            PhysicalPlan::With { name, .. } => format!("With {}", name),
        }
    }

    /// Render the tree one node per line, indented by depth, in
    /// [`nodes`](Self::nodes) order: a node, then the `EXISTS` subplans of
    /// its expressions (marked `EXISTS:`, as they are not inputs), then its
    /// inputs. `annotate` may append to each node's line.
    fn render(
        &self,
        out: &mut String,
        level: usize,
        marker: &str,
        annotate: &mut dyn FnMut(&PhysicalPlan, &mut String),
    ) {
        for _ in 0..level {
            out.push_str("  ");
        }
        out.push_str(marker);
        out.push_str(&self.node_line());
        annotate(self, out);
        out.push('\n');
        for sub in self.expr_subplans() {
            sub.render(out, level + 1, "EXISTS: ", annotate);
        }
        for child in self.children() {
            child.render(out, level + 1, "", annotate);
        }
    }

    /// Render the plan tree with each node annotated with runtime actuals
    /// (`EXPLAIN ANALYZE` style). `actuals` is indexed by the node pre-order
    /// index from [`PhysicalPlan::nodes`], as produced by the profiled
    /// executor; a node with no recorded executions is annotated
    /// `never executed`. Elapsed times are inclusive of children.
    pub fn render_analyzed(&self, actuals: &[OpActuals]) -> String {
        let ids: HashMap<usize, usize> = self
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| (*n as *const PhysicalPlan as usize, i))
            .collect();
        let mut out = String::new();
        self.render(&mut out, 0, "", &mut |plan, out| {
            let stats = ids
                .get(&(plan as *const PhysicalPlan as usize))
                .and_then(|&id| actuals.get(id));
            match stats {
                Some(a) if a.batches > 0 => {
                    out.push_str(&format!(
                        "  (actual batches={} rows_in={} rows_out={} elapsed={:.3}ms)",
                        a.batches,
                        a.rows_in,
                        a.rows_out,
                        a.nanos as f64 / 1e6,
                    ));
                }
                _ => out.push_str("  (actual never executed)"),
            }
        });
        out.trim_end().to_string()
    }
}

/// Runtime actuals accumulated for one plan node by the profiled executor
/// (see `vexec::ExecRequest::profile`). `nanos` is wall time inclusive of
/// the node's children, Postgres-`EXPLAIN ANALYZE` style; `batches` counts
/// executions of the node (correlated subplans run once per outer row).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpActuals {
    pub batches: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub nanos: u64,
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(&mut out, 0, "", &mut |_, _| {});
        write!(f, "{}", out.trim_end())
    }
}

// ---------------------------------------------------------------------------
// The planner
// ---------------------------------------------------------------------------

/// Compile a query into a physical plan against the given catalog.
pub fn plan_query(query: &Query, catalog: &dyn Catalog) -> Result<PhysicalPlan, EngineError> {
    let planner = Planner { catalog };
    let mut ctx = PlanCtx::default();
    planner.plan_query(query, &mut ctx)
}

/// Planning context: `WITH` bindings and the schemas of enclosing queries
/// (outermost first), for correlated-reference resolution.
#[derive(Default)]
struct PlanCtx {
    ctes: Vec<(String, Vec<String>)>,
    outer: Vec<Vec<SchemaCol>>,
}

/// Window specifications available to projection resolution: the
/// original `ORDER BY` key lists and the batch position of the first `#rn`
/// column.
struct RnMap<'a> {
    specs: &'a [Vec<Expr>],
    base: usize,
}

struct Planner<'a> {
    catalog: &'a dyn Catalog,
}

impl Planner<'_> {
    fn plan_query(&self, query: &Query, ctx: &mut PlanCtx) -> Result<PhysicalPlan, EngineError> {
        match query {
            Query::Select(s) => self.plan_select(s, ctx),
            Query::UnionAll(branches) => {
                if branches.is_empty() {
                    return Err(EngineError::TypeError("empty UNION ALL".to_string()));
                }
                let plans = branches
                    .iter()
                    .map(|b| self.plan_query(b, ctx))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(PhysicalPlan::UnionAll(plans))
            }
            Query::With {
                name,
                definition,
                body,
            } => {
                let def_plan = self.plan_select(definition, ctx)?;
                ctx.ctes.push((name.clone(), def_plan.output_columns()));
                let body_plan = self.plan_query(body, ctx);
                ctx.ctes.pop();
                Ok(PhysicalPlan::With {
                    name: name.clone(),
                    definition: Box::new(def_plan),
                    body: Box::new(body_plan?),
                })
            }
        }
    }

    fn plan_select(&self, select: &Select, ctx: &mut PlanCtx) -> Result<PhysicalPlan, EngineError> {
        // 1. Plan the FROM items.
        let mut rels: Vec<(PhysicalPlan, String, Vec<String>)> = Vec::new();
        for item in &select.from {
            rels.push(self.plan_from_item(item, ctx)?);
        }
        let from_aliases: Vec<String> = rels.iter().map(|(_, a, _)| a.clone()).collect();

        // 2. Join left to right, mirroring the interpreter's conjunct
        //    partitioning: hash keys where an equi-join connects the incoming
        //    relation to the bound ones, filters as soon as every mentioned
        //    alias is bound, the rest (EXISTS, unqualified references) after
        //    the final join.
        let mut pending: Vec<Expr> = select
            .where_clause
            .as_ref()
            .map(|w| w.conjuncts())
            .unwrap_or_default();
        let mut current: Option<PhysicalPlan> = None;
        let mut schema: Vec<SchemaCol> = Vec::new();
        let mut bound_aliases: Vec<String> = Vec::new();

        for (rel_plan, alias, columns) in rels {
            let rel_schema: Vec<SchemaCol> = columns
                .iter()
                .map(|c| (Some(alias.clone()), c.clone()))
                .collect();

            let mut hash_keys: Vec<(Expr, Expr)> = Vec::new(); // (bound side, new side)
            let mut now_applicable: Vec<Expr> = Vec::new();
            let mut still_pending: Vec<Expr> = Vec::new();
            for conj in pending.drain(..) {
                let refs = conj.referenced_aliases();
                let from_refs: Vec<&String> =
                    refs.iter().filter(|a| from_aliases.contains(a)).collect();
                let all_bound_after = from_refs
                    .iter()
                    .all(|a| bound_aliases.contains(a) || *a == &alias)
                    && !conj.contains_unqualified_column()
                    && !conj.contains_exists();
                if !all_bound_after {
                    still_pending.push(conj);
                    continue;
                }
                if let Expr::BinOp {
                    op: BinOp::Eq,
                    left,
                    right,
                } = &conj
                {
                    let l_refs = left.referenced_aliases();
                    let r_refs = right.referenced_aliases();
                    let l_new = l_refs.iter().any(|a| a == &alias);
                    let r_new = r_refs.iter().any(|a| a == &alias);
                    let l_bound_only = l_refs.iter().all(|a| bound_aliases.contains(a));
                    let r_bound_only = r_refs.iter().all(|a| bound_aliases.contains(a));
                    let r_new_only = r_refs.iter().all(|a| a == &alias);
                    let l_new_only = l_refs.iter().all(|a| a == &alias);
                    if l_bound_only && r_new && r_new_only && !l_new && !bound_aliases.is_empty() {
                        hash_keys.push(((**left).clone(), (**right).clone()));
                        continue;
                    }
                    if r_bound_only && l_new && l_new_only && !r_new && !bound_aliases.is_empty() {
                        hash_keys.push(((**right).clone(), (**left).clone()));
                        continue;
                    }
                }
                now_applicable.push(conj);
            }
            pending = still_pending;

            let joined = match current.take() {
                None => {
                    debug_assert!(hash_keys.is_empty(), "first relation has no bound side");
                    rel_plan
                }
                Some(acc) => {
                    if hash_keys.is_empty() {
                        PhysicalPlan::NestedLoopJoin {
                            left: Box::new(acc),
                            right: Box::new(rel_plan),
                        }
                    } else {
                        let mut left_keys = Vec::with_capacity(hash_keys.len());
                        let mut right_keys = Vec::with_capacity(hash_keys.len());
                        for (bound_side, new_side) in &hash_keys {
                            left_keys.push(self.resolve(bound_side, ctx, &schema, None)?);
                            right_keys.push(self.resolve(new_side, ctx, &rel_schema, None)?);
                        }
                        PhysicalPlan::HashJoin {
                            left: Box::new(acc),
                            right: Box::new(rel_plan),
                            left_keys,
                            right_keys,
                        }
                    }
                }
            };
            schema.extend(rel_schema);
            bound_aliases.push(alias);

            let mut filtered = joined;
            for conj in &now_applicable {
                let predicate = self.resolve(conj, ctx, &schema, None)?;
                filtered = PhysicalPlan::Filter {
                    input: Box::new(filtered),
                    predicate,
                };
            }
            current = Some(filtered);
        }

        let mut plan = current.unwrap_or(PhysicalPlan::UnitRow);

        // 3. Residual conjuncts: EXISTS becomes a semi/anti join; anything
        //    else (unqualified references, EXISTS under OR) a plain filter.
        for conj in &pending {
            plan = match conj {
                Expr::Exists(sub) => PhysicalPlan::ExistsSemiJoin {
                    input: Box::new(plan),
                    subplan: Box::new(self.plan_subquery(sub, ctx, &schema)?),
                    anti: false,
                },
                Expr::Not(inner) => match inner.as_ref() {
                    Expr::Exists(sub) => PhysicalPlan::ExistsSemiJoin {
                        input: Box::new(plan),
                        subplan: Box::new(self.plan_subquery(sub, ctx, &schema)?),
                        anti: true,
                    },
                    _ => PhysicalPlan::Filter {
                        predicate: self.resolve(conj, ctx, &schema, None)?,
                        input: Box::new(plan),
                    },
                },
                _ => PhysicalPlan::Filter {
                    predicate: self.resolve(conj, ctx, &schema, None)?,
                    input: Box::new(plan),
                },
            };
        }

        // 4. ROW_NUMBER windows used by the projection.
        let specs = crate::exec::collect_row_number_specs(select);
        if !specs.is_empty() {
            let mut resolved_specs = Vec::with_capacity(specs.len());
            for keys in &specs {
                let resolved = keys
                    .iter()
                    .map(|k| self.resolve(k, ctx, &schema, None))
                    .collect::<Result<Vec<_>, _>>()?;
                resolved_specs.push(resolved);
            }
            let base = schema.len();
            plan = PhysicalPlan::RowNumber {
                input: Box::new(plan),
                specs: resolved_specs,
            };
            for i in 0..specs.len() {
                schema.push((None, format!("#rn{}", i)));
            }
            debug_assert_eq!(base + specs.len(), schema.len());
        }
        let rn = RnMap {
            specs: &specs,
            base: schema.len() - specs.len(),
        };

        // 5. Projection.
        let mut exprs = Vec::with_capacity(select.items.len());
        let mut columns = Vec::with_capacity(select.items.len());
        for item in &select.items {
            exprs.push(self.resolve(&item.expr, ctx, &schema, Some(&rn))?);
            columns.push(item.alias.clone());
        }
        Ok(PhysicalPlan::Project {
            input: Box::new(plan),
            exprs,
            columns,
        })
    }

    fn plan_from_item(
        &self,
        item: &FromItem,
        ctx: &mut PlanCtx,
    ) -> Result<(PhysicalPlan, String, Vec<String>), EngineError> {
        let (plan, columns) = match &item.source {
            TableSource::Named(name) => {
                if let Some((_, columns)) = ctx.ctes.iter().rev().find(|(n, _)| n == name).cloned()
                {
                    (
                        PhysicalPlan::CteScan {
                            name: name.clone(),
                            alias: item.alias.clone(),
                            columns: columns.clone(),
                        },
                        columns,
                    )
                } else if let Some(columns) = self.catalog.table_columns(name) {
                    (
                        PhysicalPlan::TableScan {
                            table: name.clone(),
                            alias: item.alias.clone(),
                            columns: columns.clone(),
                        },
                        columns,
                    )
                } else {
                    return Err(EngineError::NoSuchTable(name.clone()));
                }
            }
            TableSource::Subquery(q) => {
                let sub = self.plan_query(q, ctx)?;
                let columns = sub.output_columns();
                (
                    PhysicalPlan::SubqueryScan {
                        input: Box::new(sub),
                        alias: item.alias.clone(),
                    },
                    columns,
                )
            }
        };
        Ok((plan, item.alias.clone(), columns))
    }

    /// Plan a correlated subquery: the enclosing schema becomes an outer
    /// frame its column references may resolve against.
    fn plan_subquery(
        &self,
        query: &Query,
        ctx: &mut PlanCtx,
        schema: &[SchemaCol],
    ) -> Result<PhysicalPlan, EngineError> {
        ctx.outer.push(schema.to_vec());
        let plan = self.plan_query(query, ctx);
        ctx.outer.pop();
        plan
    }

    /// Resolve a scalar expression against the node's input schema, falling
    /// back to the enclosing queries' schemas for correlated references.
    fn resolve(
        &self,
        expr: &Expr,
        ctx: &mut PlanCtx,
        schema: &[SchemaCol],
        rn: Option<&RnMap<'_>>,
    ) -> Result<VExpr, EngineError> {
        match expr {
            Expr::Column { table, column } => self.resolve_column(table, column, ctx, schema),
            Expr::Literal(v) => Ok(VExpr::Lit(v.clone())),
            Expr::Param(name) => Ok(VExpr::Param(name.clone())),
            Expr::BinOp { op, left, right } => Ok(VExpr::BinOp {
                op: *op,
                left: Box::new(self.resolve(left, ctx, schema, rn)?),
                right: Box::new(self.resolve(right, ctx, schema, rn)?),
            }),
            Expr::Not(inner) => Ok(VExpr::Not(Box::new(self.resolve(inner, ctx, schema, rn)?))),
            Expr::Exists(q) => Ok(VExpr::Exists(Box::new(self.plan_subquery(q, ctx, schema)?))),
            Expr::RowNumber { order_by } => {
                let rn = rn.ok_or_else(|| {
                    EngineError::TypeError(
                        "ROW_NUMBER is only allowed in the select list".to_string(),
                    )
                })?;
                let idx =
                    rn.specs.iter().position(|s| s == order_by).ok_or_else(|| {
                        EngineError::TypeError("unplanned ROW_NUMBER".to_string())
                    })?;
                Ok(VExpr::Col {
                    index: rn.base + idx,
                    alias: None,
                    column: format!("#rn{}", idx),
                })
            }
        }
    }

    fn resolve_column(
        &self,
        table: &Option<String>,
        column: &str,
        ctx: &PlanCtx,
        schema: &[SchemaCol],
    ) -> Result<VExpr, EngineError> {
        match table {
            Some(alias) => {
                if schema.iter().any(|(a, _)| a.as_deref() == Some(alias)) {
                    return match schema
                        .iter()
                        .position(|(a, c)| a.as_deref() == Some(alias) && c == column)
                    {
                        Some(index) => Ok(VExpr::Col {
                            index,
                            alias: Some(alias.clone()),
                            column: column.to_string(),
                        }),
                        None => Err(EngineError::UnknownColumn {
                            qualifier: Some(alias.clone()),
                            name: column.to_string(),
                        }),
                    };
                }
                for outer in ctx.outer.iter().rev() {
                    if outer.iter().any(|(a, _)| a.as_deref() == Some(alias)) {
                        return if outer
                            .iter()
                            .any(|(a, c)| a.as_deref() == Some(alias) && c == column)
                        {
                            Ok(VExpr::Outer {
                                table: Some(alias.clone()),
                                column: column.to_string(),
                            })
                        } else {
                            Err(EngineError::UnknownColumn {
                                qualifier: Some(alias.clone()),
                                name: column.to_string(),
                            })
                        };
                    }
                }
                Err(EngineError::UnknownAlias(alias.clone()))
            }
            None => {
                // Mirror the interpreter: an unqualified name must be unique
                // across the current schema *and* every enclosing frame.
                let local: Vec<usize> = schema
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, c))| c == column)
                    .map(|(i, _)| i)
                    .collect();
                let outer_hits: usize = ctx
                    .outer
                    .iter()
                    .map(|frame| frame.iter().filter(|(_, c)| c == column).count())
                    .sum();
                if local.len() + outer_hits > 1 {
                    return Err(EngineError::AmbiguousColumn(column.to_string()));
                }
                if let Some(&index) = local.first() {
                    return Ok(VExpr::Col {
                        index,
                        alias: schema[index].0.clone(),
                        column: column.to_string(),
                    });
                }
                if outer_hits == 1 {
                    return Ok(VExpr::Outer {
                        table: None,
                        column: column.to_string(),
                    });
                }
                Err(EngineError::UnknownColumn {
                    qualifier: None,
                    name: column.to_string(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Query, Select};
    use crate::storage::ColumnType;

    fn catalog() -> SchemaCatalog {
        SchemaCatalog::new(vec![
            TableDef::new(
                "employees",
                vec![
                    ("id", ColumnType::Int),
                    ("dept", ColumnType::Text),
                    ("name", ColumnType::Text),
                    ("salary", ColumnType::Int),
                ],
            ),
            TableDef::new(
                "departments",
                vec![("id", ColumnType::Int), ("name", ColumnType::Text)],
            ),
        ])
    }

    #[test]
    fn equi_joins_plan_as_hash_joins() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("d", "name"), "dept")
                .item(Expr::col("e", "name"), "emp")
                .from_named("departments", "d")
                .from_named("employees", "e")
                .filter(Expr::eq(Expr::col("d", "name"), Expr::col("e", "dept"))),
        );
        let plan = plan_query(&q, &catalog()).unwrap();
        let rendered = plan.to_string();
        assert!(rendered.contains("HashJoin"), "{}", rendered);
        assert!(rendered.contains("d.name = e.dept"), "{}", rendered);
        assert_eq!(plan.output_columns(), vec!["dept", "emp"]);
    }

    #[test]
    fn cross_products_plan_as_nested_loops() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("a", "id"), "x")
                .from_named("employees", "a")
                .from_named("employees", "b"),
        );
        let plan = plan_query(&q, &catalog()).unwrap();
        assert!(plan.to_string().contains("NestedLoopJoin"));
    }

    #[test]
    fn single_table_predicates_plan_as_filters() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("e", "name"), "name")
                .from_named("employees", "e")
                .filter(Expr::binop(
                    BinOp::Gt,
                    Expr::col("e", "salary"),
                    Expr::lit(10_000),
                )),
        );
        let plan = plan_query(&q, &catalog()).unwrap();
        let rendered = plan.to_string();
        assert!(
            rendered.contains("Filter (e.salary > 10000)"),
            "{}",
            rendered
        );
    }

    #[test]
    fn exists_conjuncts_plan_as_semi_joins() {
        let sub = Query::select(
            Select::new()
                .item(Expr::lit(1), "one")
                .from_named("departments", "d")
                .filter(Expr::eq(Expr::col("d", "name"), Expr::col("e", "dept"))),
        );
        let q = Query::select(
            Select::new()
                .item(Expr::col("e", "name"), "name")
                .from_named("employees", "e")
                .filter(Expr::not(Expr::Exists(Box::new(sub)))),
        );
        let plan = plan_query(&q, &catalog()).unwrap();
        let rendered = plan.to_string();
        assert!(rendered.contains("ExistsSemiJoin anti"), "{}", rendered);
        assert!(rendered.contains("outer(e.dept)"), "{}", rendered);
    }

    #[test]
    fn unknown_tables_and_columns_fail_at_plan_time() {
        let q = Query::select(
            Select::new()
                .item(Expr::lit(1), "x")
                .from_named("missing", "m"),
        );
        assert!(matches!(
            plan_query(&q, &catalog()),
            Err(EngineError::NoSuchTable(_))
        ));
        let q = Query::select(
            Select::new()
                .item(Expr::col("e", "missing"), "x")
                .from_named("employees", "e"),
        );
        assert!(matches!(
            plan_query(&q, &catalog()),
            Err(EngineError::UnknownColumn { .. })
        ));
    }
}
