//! Logical-to-physical query compilation.
//!
//! The planner turns a parsed [`Query`] into the explicit [`PhysicalPlan`]
//! that executes, once, ahead of execution: no pass rewrites the plan after
//! it. The interpreter in [`crate::exec`] re-derives its join strategy from
//! the AST on every call; the planner makes those decisions explicit and
//! cacheable, all from the query text, before any column position exists:
//!
//! * every `FROM` item becomes a scan node (table, CTE or subquery), and a
//!   `FROM` list that binds one alias twice is refused,
//! * equi-join conjuncts become [`PhysicalPlan::HashJoin`] nodes with resolved
//!   key expressions (the plan names no build side: the executor builds the
//!   hash table on whichever input turns out smaller, the right one on a
//!   tie),
//! * a remaining conjunct that reads one `FROM` relation alone becomes a
//!   [`PhysicalPlan::Filter`] on that relation, below its join; one that
//!   reads several filters the join that binds the last of them,
//! * a chain of `NOT`s over `EXISTS` becomes a semi-join, an anti-join when
//!   the chain is odd (`EXISTS` is never `NULL`, so `NOT NOT x = x` holds
//!   for it): a [`PhysicalPlan::HashSemiJoin`] when the subquery reads the
//!   enclosing row only through `outer = local` conjuncts (*decorrelation*:
//!   those conjuncts are taken out, the subquery runs once and its local
//!   sides are hashed), a [`PhysicalPlan::ExistsSemiJoin`] that runs it per
//!   row otherwise,
//! * each join input is narrowed by a `Project` of bare columns to the
//!   columns read above it, unless its block keeps a correlated subplan,
//! * `ROW_NUMBER` and projection become explicit operators, above every
//!   filter (SQL applies `WHERE` before the window is numbered).
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
    /// table (`anti` inverts). The planner's form of an `EXISTS` whose
    /// correlation is a conjunction of equalities; `probe_keys[i]` pairs
    /// with `build_keys[i]`. Build rows with a `NULL` key never
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
    Planner { catalog }.plan_query(query, &mut PlanCtx::default())
}

/// Planning context: `WITH` bindings and the frames of enclosing queries
/// (outermost first), for correlated-reference resolution.
#[derive(Default)]
struct PlanCtx {
    ctes: Vec<(String, Vec<String>)>,
    outer: Vec<Frame>,
}

/// An enclosing query's schema, and whether a reference planned since it
/// was pushed resolved into it.
struct Frame {
    schema: Vec<SchemaCol>,
    read: bool,
}

/// A planned `FROM` item.
struct Rel {
    plan: PhysicalPlan,
    alias: String,
    columns: Vec<String>,
}

/// Where the `WHERE` conjuncts of a block run (see [`place`]).
struct Placement {
    /// One level per `FROM` relation, in join order.
    levels: Vec<Level>,
    /// The conjuncts that wait for every relation: `EXISTS` and unqualified
    /// references, which may resolve anywhere.
    residual: Vec<Expr>,
}

/// The conjuncts that run where one `FROM` relation joins those before it.
#[derive(Default)]
struct Level {
    /// Equi-join keys, `(bound side, incoming side)`.
    hash: Vec<(Expr, Expr)>,
    /// Conjuncts over the incoming relation alone: they filter it below the
    /// join.
    own: Vec<Expr>,
    /// Conjuncts over it and bound relations: they filter the join.
    spanning: Vec<Expr>,
}

/// A residual conjunct, as planned.
enum Residual<'q> {
    Filter(&'q Expr),
    /// A decorrelated `EXISTS`: `build` runs once, and the block's rows
    /// probe it with the outer sides of the correlation.
    Hashed {
        build: PhysicalPlan,
        keys: Vec<Expr>,
        anti: bool,
    },
    /// An `EXISTS` that keeps its correlation: `subplan` runs once per row.
    Correlated {
        subplan: PhysicalPlan,
        anti: bool,
    },
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
        let rels = self.plan_rels(select, ctx)?;
        let placement = place(select, &rels);
        let specs = crate::exec::collect_row_number_specs(select);
        let items: Vec<&Expr> = select.items.iter().map(|i| &i.expr).collect();
        let (plan, schema) = self.plan_block(rels, placement, &specs, &items, ctx)?;
        let rn = RnMap {
            specs: &specs,
            base: schema.len() - specs.len(),
        };
        let items = select.items.iter().map(|i| (&i.expr, i.alias.clone()));
        self.project(plan, items, &schema, Some(&rn), ctx)
    }

    /// Plan a block's `FROM` items, refusing a list that binds one alias
    /// twice.
    fn plan_rels(&self, select: &Select, ctx: &mut PlanCtx) -> Result<Vec<Rel>, EngineError> {
        select.check_aliases()?;
        select
            .from
            .iter()
            .map(|item| self.plan_from_item(item, ctx))
            .collect()
    }

    /// Plan the rows under a block's projection: its join tree with every
    /// placed conjunct, the residual conjuncts over it, then its
    /// `ROW_NUMBER` windows. Returns the plan and the columns the projection
    /// resolves against.
    ///
    /// Each input of a join is narrowed by a `Project` of bare columns to
    /// the columns read above it — by `reads` (what the block's consumer
    /// evaluates over its rows), the residual conjuncts, the
    /// windows, and the keys and filters of the joins above — unless the
    /// block keeps a correlated subplan: its rows become scope frames
    /// resolved by alias, which a narrowing `Project` erases.
    fn plan_block(
        &self,
        rels: Vec<Rel>,
        placement: Placement,
        specs: &[Vec<Expr>],
        reads: &[&Expr],
        ctx: &mut PlanCtx,
    ) -> Result<(PhysicalPlan, Vec<SchemaCol>), EngineError> {
        let full = rels_schema(&rels);
        let Placement { levels, residual } = placement;
        let residuals = residual
            .iter()
            .map(|conj| self.plan_residual(conj, &full, ctx))
            .collect::<Result<Vec<_>, _>>()?;
        let mut above: Vec<&Expr> = reads.to_vec();
        above.extend(specs.iter().flatten());
        for residual in &residuals {
            match residual {
                Residual::Filter(conj) => above.push(conj),
                Residual::Hashed { keys, .. } => above.extend(keys),
                Residual::Correlated { .. } => {}
            }
        }
        let frozen = above.iter().any(|e| e.contains_exists())
            || residuals
                .iter()
                .any(|r| matches!(r, Residual::Correlated { .. }));

        // What the inputs of each join keep, from the top join down: what
        // is read above it, and its own keys and spanning filters.
        let mut keeps: Vec<Vec<bool>> = Vec::new();
        if !frozen && levels.len() > 1 {
            let mut need = vec![false; full.len()];
            for expr in above {
                mark(expr, &full, &mut need)?;
            }
            for level in levels[1..].iter().rev() {
                let sides = level.hash.iter().flat_map(|(b, i)| [b, i]);
                for conj in level.spanning.iter().chain(sides) {
                    mark(conj, &full, &mut need)?;
                }
                keeps.push(need.clone());
            }
        }

        // Join left to right: filter each relation by its own conjuncts,
        // join it to those before it, and filter the join by the conjuncts
        // that span both. `cols` are the positions in `full` of the columns
        // joined so far.
        let mut plan = PhysicalPlan::UnitRow;
        let mut cols: Vec<usize> = Vec::new();
        let mut projected = vec![false; full.len()];
        let mut start = 0;
        for (i, (rel, level)) in rels.into_iter().zip(levels).enumerate() {
            let rel_cols: Vec<usize> = (start..start + rel.columns.len()).collect();
            start += rel.columns.len();
            let rel_schema = columns_of(&full, &rel_cols);
            let mut rel_plan = rel.plan;
            for conj in &level.own {
                rel_plan = PhysicalPlan::Filter {
                    predicate: self.resolve(conj, ctx, &rel_schema, None)?,
                    input: Box::new(rel_plan),
                };
            }
            if i == 0 {
                (plan, cols) = (rel_plan, rel_cols);
            } else {
                let keep = keeps.pop();
                let keep = keep.as_deref();
                let (left, left_cols) = narrow_input(plan, cols, keep, &full, &mut projected);
                let (right, right_cols) =
                    narrow_input(rel_plan, rel_cols, keep, &full, &mut projected);
                plan = if level.hash.is_empty() {
                    PhysicalPlan::NestedLoopJoin {
                        left: Box::new(left),
                        right: Box::new(right),
                    }
                } else {
                    let (left_schema, right_schema) = (
                        columns_of(&full, &left_cols),
                        columns_of(&full, &right_cols),
                    );
                    let mut left_keys = Vec::with_capacity(level.hash.len());
                    let mut right_keys = Vec::with_capacity(level.hash.len());
                    for (bound, incoming) in &level.hash {
                        left_keys.push(self.resolve(bound, ctx, &left_schema, None)?);
                        right_keys.push(self.resolve(incoming, ctx, &right_schema, None)?);
                    }
                    PhysicalPlan::HashJoin {
                        left: Box::new(left),
                        right: Box::new(right),
                        left_keys,
                        right_keys,
                    }
                };
                cols = [left_cols, right_cols].concat();
            }
            let schema = columns_of(&full, &cols);
            for conj in &level.spanning {
                plan = PhysicalPlan::Filter {
                    predicate: self.resolve(conj, ctx, &schema, None)?,
                    input: Box::new(plan),
                };
            }
        }

        let mut schema = columns_of(&full, &cols);
        for residual in residuals {
            let input = Box::new(plan);
            plan = match residual {
                Residual::Filter(conj) => PhysicalPlan::Filter {
                    predicate: self.resolve(conj, ctx, &schema, None)?,
                    input,
                },
                Residual::Hashed { build, keys, anti } => PhysicalPlan::HashSemiJoin {
                    input,
                    build: Box::new(build),
                    probe_keys: keys
                        .iter()
                        .map(|k| self.resolve(k, ctx, &schema, None))
                        .collect::<Result<_, _>>()?,
                    build_keys: (0..keys.len())
                        .map(|index| VExpr::Col {
                            index,
                            alias: None,
                            column: format!("#k{}", index),
                        })
                        .collect(),
                    anti,
                },
                Residual::Correlated { subplan, anti } => PhysicalPlan::ExistsSemiJoin {
                    input,
                    subplan: Box::new(subplan),
                    anti,
                },
            };
        }

        // `ROW_NUMBER` numbers the rows `WHERE` leaves.
        if !specs.is_empty() {
            let resolved = specs
                .iter()
                .map(|keys| {
                    keys.iter()
                        .map(|k| self.resolve(k, ctx, &schema, None))
                        .collect()
                })
                .collect::<Result<_, _>>()?;
            plan = PhysicalPlan::RowNumber {
                input: Box::new(plan),
                specs: resolved,
            };
            schema.extend((0..specs.len()).map(|i| (None, format!("#rn{}", i))));
        }
        Ok((plan, schema))
    }

    /// Plan a residual conjunct. A chain of `NOT`s over `EXISTS` becomes a
    /// semi-join, an anti-join when the chain is odd (`EXISTS` is never
    /// `NULL`, so `NOT NOT x = x` holds for it): hashed when
    /// [`decorrelate`](Self::decorrelate) can split its correlation off,
    /// with a correlated subplan otherwise. Anything else (unqualified
    /// references, `EXISTS` under `OR`) is a filter.
    fn plan_residual<'q>(
        &self,
        conj: &'q Expr,
        schema: &[SchemaCol],
        ctx: &mut PlanCtx,
    ) -> Result<Residual<'q>, EngineError> {
        let mut anti = false;
        let mut inner = conj;
        while let Expr::Not(negated) = inner {
            anti = !anti;
            inner = negated;
        }
        let Expr::Exists(query) = inner else {
            return Ok(Residual::Filter(conj));
        };
        Ok(match self.decorrelate(query, schema, ctx) {
            Some((build, keys)) => Residual::Hashed { build, keys, anti },
            None => Residual::Correlated {
                subplan: self.plan_subquery(query, ctx, schema)?,
                anti,
            },
        })
    }

    /// Plan `EXISTS (query)` over rows of `schema` to run once, when `query`
    /// is one `SELECT` or a `UNION ALL` of them and each reads the rows only
    /// through `outer = local` conjuncts, the same outer sides in every
    /// branch. Those conjuncts are taken out, and each branch projects its
    /// local sides, in branch 0's order, as `#k0…` (with no keys, a lone
    /// branch's build is its rows). Returns the build and the outer sides:
    /// the probe keys.
    ///
    /// The build is planned with `schema` pushed as a frame, so anything
    /// left in it that reads the rows — in a `FROM` subquery, a nested
    /// subquery, a window or the dropped select list — marks the frame
    /// read, and the `EXISTS` keeps its correlation. So does an error:
    /// planning the correlated subplan reports it.
    fn decorrelate(
        &self,
        query: &Query,
        schema: &[SchemaCol],
        ctx: &mut PlanCtx,
    ) -> Option<(PhysicalPlan, Vec<Expr>)> {
        let branches: Vec<&Select> = match query {
            Query::Select(select) => vec![select],
            Query::UnionAll(branches) => branches
                .iter()
                .map(|b| match b {
                    Query::Select(select) => Some(&**select),
                    _ => None,
                })
                .collect::<Option<_>>()?,
            Query::With { .. } => return None,
        };
        ctx.outer.push(Frame {
            schema: schema.to_vec(),
            read: false,
        });
        let built = self.plan_build(&branches, schema, ctx);
        let frame = ctx.outer.pop().expect("the frame pushed above");
        built.ok().flatten().filter(|_| !frame.read)
    }

    /// The build side of [`decorrelate`](Self::decorrelate), or `None` when
    /// a branch reads the rows otherwise.
    fn plan_build(
        &self,
        branches: &[&Select],
        frame: &[SchemaCol],
        ctx: &mut PlanCtx,
    ) -> Result<Option<(PhysicalPlan, Vec<Expr>)>, EngineError> {
        let mut blocks = Vec::with_capacity(branches.len());
        for select in branches {
            let rels = self.plan_rels(select, ctx)?;
            let local = rels_schema(&rels);
            let specs = crate::exec::collect_row_number_specs(select);
            // The select list is dropped, but must plan.
            let rn = RnMap {
                specs: &specs,
                base: local.len(),
            };
            for item in &select.items {
                if item.expr.contains_exists() {
                    return Ok(None);
                }
                self.resolve(&item.expr, ctx, &local, Some(&rn))?;
            }
            let mut placement = place(select, &rels);
            // Under a window every conjunct stays: it decides what is
            // numbered.
            let keys = if specs.is_empty() {
                match placement.take_keys(&local, frame) {
                    Some(keys) => keys,
                    None => return Ok(None),
                }
            } else {
                Vec::new()
            };
            blocks.push((rels, placement, specs, keys));
        }
        let Some((_, _, _, first)) = blocks.first() else {
            return Ok(None);
        };
        let outer: Vec<Expr> = first.iter().map(|(o, _)| o.clone()).collect();
        let single = blocks.len() == 1;
        let mut plans = Vec::with_capacity(blocks.len());
        for (rels, placement, specs, mut keys) in blocks {
            let mut locals = Vec::with_capacity(outer.len());
            for o in &outer {
                let Some(j) = keys.iter().position(|(k, _)| k == o) else {
                    return Ok(None);
                };
                locals.push(keys.remove(j).1);
            }
            if !keys.is_empty() {
                return Ok(None);
            }
            // A lone branch with no keys is its rows: only their existence
            // is read. Union branches share a layout, so each projects.
            plans.push(if outer.is_empty() && single {
                self.plan_block(rels, placement, &specs, &[], ctx)?.0
            } else {
                let reads: Vec<&Expr> = locals.iter().collect();
                let (plan, schema) = self.plan_block(rels, placement, &specs, &reads, ctx)?;
                let keys = locals
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (e, format!("#k{}", i)));
                self.project(plan, keys, &schema, None, ctx)?
            });
        }
        let build = match plans.len() {
            1 => plans.pop().expect("one plan"),
            _ => PhysicalPlan::UnionAll(plans),
        };
        Ok(Some((build, outer)))
    }

    /// A `Project` of `items` over `input`, whose columns are `schema`.
    fn project<'e>(
        &self,
        input: PhysicalPlan,
        items: impl Iterator<Item = (&'e Expr, String)>,
        schema: &[SchemaCol],
        rn: Option<&RnMap<'_>>,
        ctx: &mut PlanCtx,
    ) -> Result<PhysicalPlan, EngineError> {
        let (mut exprs, mut columns) = (Vec::new(), Vec::new());
        for (expr, column) in items {
            exprs.push(self.resolve(expr, ctx, schema, rn)?);
            columns.push(column);
        }
        Ok(PhysicalPlan::Project {
            input: Box::new(input),
            exprs,
            columns,
        })
    }

    fn plan_from_item(&self, item: &FromItem, ctx: &mut PlanCtx) -> Result<Rel, EngineError> {
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
        Ok(Rel {
            plan,
            alias: item.alias.clone(),
            columns,
        })
    }

    /// Plan a correlated subquery: the enclosing schema becomes an outer
    /// frame its column references may resolve against.
    fn plan_subquery(
        &self,
        query: &Query,
        ctx: &mut PlanCtx,
        schema: &[SchemaCol],
    ) -> Result<PhysicalPlan, EngineError> {
        ctx.outer.push(Frame {
            schema: schema.to_vec(),
            read: false,
        });
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
            Expr::Column { table, column } => resolve_column(table, column, ctx, schema),
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
}

/// Resolve a column reference against `schema`, then against the enclosing
/// frames (innermost first), marking the frame it resolves into as read.
fn resolve_column(
    table: &Option<String>,
    column: &str,
    ctx: &mut PlanCtx,
    schema: &[SchemaCol],
) -> Result<VExpr, EngineError> {
    let outer = || VExpr::Outer {
        table: table.clone(),
        column: column.to_string(),
    };
    let Some(alias) = table else {
        // Mirror the interpreter: an unqualified name must be unique across
        // the current schema *and* every enclosing frame.
        let local: Vec<usize> = (0..schema.len())
            .filter(|&i| schema[i].1 == column)
            .collect();
        let outer_hits: usize = ctx
            .outer
            .iter()
            .map(|frame| frame.schema.iter().filter(|(_, c)| c == column).count())
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
        return match ctx
            .outer
            .iter_mut()
            .find(|frame| frame.schema.iter().any(|(_, c)| c == column))
        {
            Some(frame) => {
                frame.read = true;
                Ok(outer())
            }
            None => Err(EngineError::UnknownColumn {
                qualifier: None,
                name: column.to_string(),
            }),
        };
    };
    if let Some(found) = qualified(schema, alias, column) {
        return found.map(|index| VExpr::Col {
            index,
            alias: table.clone(),
            column: column.to_string(),
        });
    }
    for frame in ctx.outer.iter_mut().rev() {
        if let Some(found) = qualified(&frame.schema, alias, column) {
            frame.read = true;
            return found.map(|_| outer());
        }
    }
    Err(EngineError::UnknownAlias(alias.clone()))
}

/// Where `alias.column` sits in `schema`: `None` when `schema` binds no
/// `alias`, an error when it binds it without `column`.
fn qualified(
    schema: &[SchemaCol],
    alias: &str,
    column: &str,
) -> Option<Result<usize, EngineError>> {
    schema
        .iter()
        .any(|(a, _)| a.as_deref() == Some(alias))
        .then(|| {
            schema
                .iter()
                .position(|(a, c)| a.as_deref() == Some(alias) && c == column)
                .ok_or_else(|| EngineError::UnknownColumn {
                    qualifier: Some(alias.to_string()),
                    name: column.to_string(),
                })
        })
}

/// The columns of a block's `FROM` relations, each under its alias.
fn rels_schema(rels: &[Rel]) -> Vec<SchemaCol> {
    rels.iter()
        .flat_map(|r| r.columns.iter().map(|c| (Some(r.alias.clone()), c.clone())))
        .collect()
}

/// The columns of `full` at positions `cols`.
fn columns_of(full: &[SchemaCol], cols: &[usize]) -> Vec<SchemaCol> {
    cols.iter().map(|&p| full[p].clone()).collect()
}

/// Place a block's `WHERE` conjuncts, joining its relations left to right.
/// An equi-join conjunct between the incoming relation and the bound ones
/// becomes a hash key; any other conjunct that reads no other `FROM`
/// relation filters the incoming relation before the join; one that reads
/// several filters the join once every alias it mentions is bound. The rest
/// is residual.
fn place(select: &Select, rels: &[Rel]) -> Placement {
    let aliases: Vec<&str> = rels.iter().map(|r| r.alias.as_str()).collect();
    let mut residual = select
        .where_clause
        .as_ref()
        .map(Expr::conjuncts)
        .unwrap_or_default();
    let mut levels = Vec::with_capacity(rels.len());
    for (i, &alias) in aliases.iter().enumerate() {
        let bound = &aliases[..i];
        let mut level = Level::default();
        for conj in std::mem::take(&mut residual) {
            let refs = conj.referenced_aliases();
            let within = |ok: &dyn Fn(&str) -> bool| {
                refs.iter()
                    .all(|a| a == alias || ok(a) || !aliases.contains(&a.as_str()))
            };
            if conj.contains_unqualified_column()
                || conj.contains_exists()
                || !within(&|a| bound.contains(&a))
            {
                residual.push(conj);
            } else if let Some(key) = hash_key(&conj, bound, alias) {
                level.hash.push(key);
            } else if within(&|_| false) {
                level.own.push(conj);
            } else {
                level.spanning.push(conj);
            }
        }
        levels.push(level);
    }
    Placement { levels, residual }
}

/// `conj` as an equi-join key `(bound side, incoming side)`: one side reads
/// only bound relations, the other only the incoming one.
fn hash_key(conj: &Expr, bound: &[&str], alias: &str) -> Option<(Expr, Expr)> {
    let Expr::BinOp {
        op: BinOp::Eq,
        left,
        right,
    } = conj
    else {
        return None;
    };
    let bound_only = |e: &Expr| {
        !bound.is_empty()
            && e.referenced_aliases()
                .iter()
                .all(|a| bound.contains(&a.as_str()))
    };
    let incoming_only = |e: &Expr| {
        let refs = e.referenced_aliases();
        !refs.is_empty() && refs.iter().all(|a| a == alias)
    };
    if bound_only(left) && incoming_only(right) {
        Some(((**left).clone(), (**right).clone()))
    } else if bound_only(right) && incoming_only(left) {
        Some(((**right).clone(), (**left).clone()))
    } else {
        None
    }
}

impl Placement {
    /// Take the conjuncts that read `frame` out as `(outer, local)`
    /// correlation keys, in the order the block runs them; `None` when one
    /// reads it other than as `outer = local`.
    fn take_keys(&mut self, local: &[SchemaCol], frame: &[SchemaCol]) -> Option<Vec<(Expr, Expr)>> {
        let mut keys = Vec::new();
        let mut sound = true;
        let Placement { levels, residual } = self;
        let lists = levels
            .iter_mut()
            .flat_map(|l| [&mut l.own, &mut l.spanning])
            .chain([residual]);
        for list in lists {
            list.retain(|conj| {
                if !reads(conj, frame, local) {
                    return true;
                }
                match correlation(conj, local, frame) {
                    Some(key) => keys.push(key),
                    None => sound = false,
                }
                false
            });
        }
        sound.then_some(keys)
    }
}

/// A conjunct as `(outer side, local side)`: an equality, one side of which
/// reads `frame` and nothing of `local`, the other nothing of `frame`.
fn correlation(conj: &Expr, local: &[SchemaCol], frame: &[SchemaCol]) -> Option<(Expr, Expr)> {
    let Expr::BinOp {
        op: BinOp::Eq,
        left,
        right,
    } = conj
    else {
        return None;
    };
    let outer = |e: &Expr| reads(e, frame, local) && !reads(e, local, &[]);
    if conj.contains_exists() {
        None
    } else if outer(left) && !reads(right, frame, local) {
        Some(((**left).clone(), (**right).clone()))
    } else if outer(right) && !reads(left, frame, local) {
        Some(((**right).clone(), (**left).clone()))
    } else {
        None
    }
}

/// Does a column reference of `expr` (outside its subqueries) resolve into
/// `scope` rather than `inner`: a qualified one to an alias only `scope`
/// binds, an unqualified one to a column only `scope` has?
fn reads(expr: &Expr, scope: &[SchemaCol], inner: &[SchemaCol]) -> bool {
    let binds = |schema: &[SchemaCol], table: &Option<String>, column: &str| match table {
        Some(alias) => schema.iter().any(|(a, _)| a.as_deref() == Some(alias)),
        None => schema.iter().any(|(_, c)| c == column),
    };
    expr.any(|e| {
        matches!(e, Expr::Column { table, column }
            if binds(scope, table, column) && !binds(inner, table, column))
    })
}

/// Flag in `need` the columns of `schema` that `expr` reads (outside its
/// subqueries): for a qualified reference the one it resolves to, for an
/// unqualified one every column of its name (two are an ambiguity that
/// resolution reports).
fn mark(expr: &Expr, schema: &[SchemaCol], need: &mut [bool]) -> Result<(), EngineError> {
    let mut result = Ok(());
    expr.any(|e| {
        match e {
            Expr::Column {
                table: Some(alias),
                column,
            } => match qualified(schema, alias, column) {
                Some(Ok(index)) => need[index] = true,
                Some(Err(missing)) => result = Err(missing),
                None => {}
            },
            Expr::Column {
                table: None,
                column,
            } => {
                for (flag, (_, c)) in need.iter_mut().zip(schema) {
                    *flag |= c == column;
                }
            }
            _ => {}
        }
        result.is_err()
    });
    result
}

/// A join input whose columns are `full` at `cols`, cut down to those
/// `keep` flags by a `Project` of bare columns — which shares its input's
/// columns at run time, so costs nothing — unless it keeps them all or there
/// is no `keep`. Returns the input and the positions of its columns.
/// `projected` flags the positions a narrowing `Project` has already
/// passed, which no longer carry their alias.
fn narrow_input(
    input: PhysicalPlan,
    cols: Vec<usize>,
    keep: Option<&[bool]>,
    full: &[SchemaCol],
    projected: &mut [bool],
) -> (PhysicalPlan, Vec<usize>) {
    let Some(keep) = keep.filter(|keep| !cols.iter().all(|&p| keep[p])) else {
        return (input, cols);
    };
    let kept: Vec<(usize, usize)> = cols
        .into_iter()
        .enumerate()
        .filter(|&(_, p)| keep[p])
        .collect();
    let project = PhysicalPlan::Project {
        input: Box::new(input),
        exprs: kept
            .iter()
            .map(|&(index, p)| VExpr::Col {
                index,
                alias: full[p].0.clone().filter(|_| !projected[p]),
                column: full[p].1.clone(),
            })
            .collect(),
        columns: kept.iter().map(|&(_, p)| full[p].1.clone()).collect(),
    };
    for &(_, p) in &kept {
        projected[p] = true;
    }
    (project, kept.into_iter().map(|(_, p)| p).collect())
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
        assert!(
            rendered.contains("HashSemiJoin anti keys=[e.dept = #k0]"),
            "{}",
            rendered
        );
    }

    /// The node under a `SELECT`'s projection.
    fn below_projection(plan: &PhysicalPlan) -> &PhysicalPlan {
        let PhysicalPlan::Project { input, .. } = plan else {
            panic!("expected a projection, got\n{}", plan);
        };
        input
    }

    #[test]
    fn conjuncts_over_the_incoming_relation_filter_it_below_its_join() {
        let salary = Expr::binop(BinOp::Gt, Expr::col("e", "salary"), Expr::lit(10_000));
        let spanning = Expr::binop(BinOp::Lt, Expr::col("d", "id"), Expr::col("e", "id"));
        for equi_join in [true, false] {
            let mut conjuncts = vec![salary.clone(), spanning.clone()];
            if equi_join {
                conjuncts.push(Expr::eq(Expr::col("d", "name"), Expr::col("e", "dept")));
            }
            let q = Query::select(
                Select::new()
                    .item(Expr::col("e", "name"), "name")
                    .from_named("departments", "d")
                    .from_named("employees", "e")
                    .filter(Expr::conj(conjuncts)),
            );
            let plan = plan_query(&q, &catalog()).unwrap();
            let PhysicalPlan::Filter { input, predicate } = below_projection(&plan) else {
                panic!("the spanning conjunct filters the join:\n{}", plan);
            };
            assert_eq!(predicate.to_string(), "(d.id < e.id)");
            let right = match input.as_ref() {
                PhysicalPlan::HashJoin { right, .. } if equi_join => right,
                PhysicalPlan::NestedLoopJoin { right, .. } if !equi_join => right,
                other => panic!("unexpected join:\n{}", other),
            };
            // Under the projection that narrows employees to what the join
            // and the spanning filter read.
            let PhysicalPlan::Project { input: right, .. } = right.as_ref() else {
                panic!("employees is narrowed above its filter:\n{}", plan);
            };
            let PhysicalPlan::Filter { input, predicate } = right.as_ref() else {
                panic!("employees is filtered below the join:\n{}", plan);
            };
            assert_eq!(predicate.to_string(), "(e.salary > 10000)");
            // Resolved against employees alone, where `salary` is column 3.
            assert!(matches!(
                predicate,
                VExpr::BinOp { left, .. } if matches!(**left, VExpr::Col { index: 3, .. })
            ));
            assert!(matches!(input.as_ref(), PhysicalPlan::TableScan { .. }));
        }
    }

    #[test]
    fn not_chains_over_exists_plan_as_semi_joins_by_parity() {
        let exists = || {
            Expr::Exists(Box::new(Query::select(
                Select::new()
                    .item(Expr::lit(1), "one")
                    .from_named("departments", "d")
                    .filter(Expr::eq(Expr::col("d", "name"), Expr::col("e", "dept"))),
            )))
        };
        let over_employees = |condition: Expr| {
            let q = Query::select(
                Select::new()
                    .item(Expr::col("e", "name"), "name")
                    .from_named("employees", "e")
                    .filter(condition),
            );
            plan_query(&q, &catalog()).unwrap()
        };
        for (nots, anti) in [(2, false), (3, true)] {
            let condition = (0..nots).fold(exists(), |e, _| Expr::not(e));
            let plan = over_employees(condition);
            assert!(
                matches!(
                    below_projection(&plan),
                    PhysicalPlan::HashSemiJoin { anti: a, .. } if *a == anti
                ),
                "{} NOTs:\n{}",
                nots,
                plan
            );
        }
        let salary = Expr::binop(BinOp::Gt, Expr::col("e", "salary"), Expr::lit(10_000));
        let plan = over_employees(Expr::or(exists(), salary));
        let PhysicalPlan::Filter { predicate, .. } = below_projection(&plan) else {
            panic!("an EXISTS under OR stays a filter:\n{}", plan);
        };
        assert!(matches!(predicate, VExpr::BinOp { op: BinOp::Or, .. }));
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

    // Decorrelation and narrowing, over t(a, b, c), u(x, y, z) and c(x, y).

    fn tuc() -> SchemaCatalog {
        let table = |name: &str, columns: &[&str]| {
            TableDef::new(
                name,
                columns.iter().map(|c| (*c, ColumnType::Int)).collect(),
            )
        };
        SchemaCatalog::new(vec![
            table("t", &["a", "b", "c"]),
            table("u", &["x", "y", "z"]),
            table("c", &["x", "y"]),
        ])
    }

    fn plan_sql(sql: &str) -> PhysicalPlan {
        let query = crate::parser::parse_query(sql).unwrap();
        plan_query(&query, &tuc()).unwrap()
    }

    fn scan(table: &str, alias: &str, columns: &[&str]) -> PhysicalPlan {
        PhysicalPlan::TableScan {
            table: table.to_string(),
            alias: alias.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    fn col(index: usize, alias: Option<&str>, column: &str) -> VExpr {
        VExpr::Col {
            index,
            alias: alias.map(str::to_string),
            column: column.to_string(),
        }
    }

    fn acol(index: usize, alias: &str, column: &str) -> VExpr {
        col(index, Some(alias), column)
    }

    fn binop(op: BinOp, left: VExpr, right: VExpr) -> VExpr {
        VExpr::BinOp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// A `Project` of `exprs` named after their columns.
    fn project(input: PhysicalPlan, exprs: Vec<VExpr>) -> PhysicalPlan {
        let columns = exprs
            .iter()
            .map(|e| match e {
                VExpr::Col { column, .. } => column.clone(),
                other => other.to_string(),
            })
            .collect();
        PhysicalPlan::Project {
            input: Box::new(input),
            exprs,
            columns,
        }
    }

    #[test]
    fn decorrelates_simple_equality_exists() {
        let plan = plan_sql(
            "SELECT t.b AS b FROM t AS t \
             WHERE EXISTS (SELECT 1 AS one FROM c AS c WHERE ((c.x = t.a) AND (c.y = 7)))",
        );
        // The uncorrelated residue (c.y = 7) stays on the build side.
        let build = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan("c", "c", &["x", "y"])),
                predicate: binop(BinOp::Eq, acol(1, "c", "y"), VExpr::Lit(SqlValue::Int(7))),
            }),
            exprs: vec![acol(0, "c", "x")],
            columns: vec!["#k0".to_string()],
        };
        let expected = project(
            PhysicalPlan::HashSemiJoin {
                input: Box::new(scan("t", "t", &["a", "b", "c"])),
                build: Box::new(build),
                probe_keys: vec![acol(0, "t", "a")],
                build_keys: vec![col(0, None, "#k0")],
                anti: false,
            },
            vec![acol(1, "t", "b")],
        );
        assert_eq!(plan, expected, "got:\n{}", plan);
    }

    #[test]
    fn keeps_a_non_equality_correlation_beside_one_it_hashes() {
        let plan = plan_sql(
            "SELECT t.a AS a FROM t AS t \
             WHERE NOT (EXISTS (SELECT 1 AS one FROM c AS c WHERE (c.x < t.a))) \
             AND EXISTS (SELECT 1 AS one FROM c AS c WHERE (c.x = t.a))",
        );
        let PhysicalPlan::HashSemiJoin {
            input, anti: false, ..
        } = below_projection(&plan)
        else {
            panic!("the equality hashes:\n{}", plan);
        };
        let PhysicalPlan::ExistsSemiJoin {
            subplan,
            anti: true,
            ..
        } = input.as_ref()
        else {
            panic!("the `<` keeps its correlated subplan:\n{}", plan);
        };
        assert!(
            subplan.to_string().contains("(c.x < outer(t.a))"),
            "{}",
            subplan
        );
    }

    #[test]
    fn decorrelates_union_all_branches_with_reordered_keys() {
        let plan = plan_sql(
            "SELECT t.c AS c FROM t AS t WHERE EXISTS (\
             (SELECT 1 AS one FROM c AS c WHERE ((t.a = c.x) AND (t.b = c.y))) UNION ALL \
             (SELECT 1 AS one FROM c AS c WHERE ((t.b = c.y) AND (t.a = c.x))))",
        );
        let PhysicalPlan::HashSemiJoin {
            probe_keys, build, ..
        } = below_projection(&plan)
        else {
            panic!("expected HashSemiJoin, got {}", plan);
        };
        assert_eq!(probe_keys, &vec![acol(0, "t", "a"), acol(1, "t", "b")]);
        let PhysicalPlan::UnionAll(branches) = build.as_ref() else {
            panic!("expected a union build, got {}", build);
        };
        assert_eq!(branches.len(), 2);
        for branch in branches {
            let PhysicalPlan::Project { exprs, columns, .. } = branch else {
                panic!("expected a key projection, got {}", branch);
            };
            assert_eq!(exprs, &vec![acol(0, "c", "x"), acol(1, "c", "y")]);
            assert_eq!(columns, &vec!["#k0".to_string(), "#k1".to_string()]);
        }
    }

    #[test]
    fn narrows_join_inputs_to_the_columns_read_above() {
        // t.c and u.z over t ⋈ u on t.b = u.x read 4 of 6 columns.
        let plan = plan_sql("SELECT t.c AS c, u.z AS z FROM t AS t, u AS u WHERE (t.b = u.x)");
        let expected = project(
            PhysicalPlan::HashJoin {
                left: Box::new(project(
                    scan("t", "t", &["a", "b", "c"]),
                    vec![acol(1, "t", "b"), acol(2, "t", "c")],
                )),
                right: Box::new(project(
                    scan("u", "u", &["x", "y", "z"]),
                    vec![acol(0, "u", "x"), acol(2, "u", "z")],
                )),
                left_keys: vec![acol(0, "t", "b")],
                right_keys: vec![acol(0, "u", "x")],
            },
            vec![acol(1, "t", "c"), acol(3, "u", "z")],
        );
        assert_eq!(plan, expected, "got:\n{}", plan);
    }

    #[test]
    fn narrowing_sees_through_filters_and_row_numbers() {
        // `u.y < t.a` spans both relations, so it filters the join; the
        // window reads t.c.
        let plan = plan_sql(
            "SELECT ROW_NUMBER() OVER (ORDER BY t.c) AS rank FROM t AS t, u AS u \
             WHERE (u.y < t.a)",
        );
        let join = PhysicalPlan::NestedLoopJoin {
            left: Box::new(project(
                scan("t", "t", &["a", "b", "c"]),
                vec![acol(0, "t", "a"), acol(2, "t", "c")],
            )),
            right: Box::new(project(
                scan("u", "u", &["x", "y", "z"]),
                vec![acol(1, "u", "y")],
            )),
        };
        let expected = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::RowNumber {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(join),
                    predicate: binop(BinOp::Lt, acol(2, "u", "y"), acol(0, "t", "a")),
                }),
                specs: vec![vec![acol(1, "t", "c")]],
            }),
            exprs: vec![col(3, None, "#rn0")],
            columns: vec!["rank".to_string()],
        };
        assert_eq!(plan, expected, "got:\n{}", plan);
    }

    #[test]
    fn with_definitions_and_union_branches_keep_their_outputs() {
        // Each block narrows its own join inputs to its select list, and
        // keeps that list whole, however little of it is read above.
        let join = |items: Vec<VExpr>| {
            project(
                PhysicalPlan::HashJoin {
                    left: Box::new(project(
                        scan("t", "t", &["a", "b", "c"]),
                        vec![acol(0, "t", "a"), acol(1, "t", "b")],
                    )),
                    right: Box::new(project(
                        scan("u", "u", &["x", "y", "z"]),
                        vec![acol(0, "u", "x"), acol(2, "u", "z")],
                    )),
                    left_keys: vec![acol(1, "t", "b")],
                    right_keys: vec![acol(0, "u", "x")],
                },
                items,
            )
        };
        let with = plan_sql(
            "WITH q AS (SELECT t.a AS a, t.b AS b, u.z AS z FROM t AS t, u AS u \
             WHERE (t.b = u.x)) SELECT q.a AS a FROM q AS q",
        );
        let PhysicalPlan::With { definition, .. } = &with else {
            panic!("expected With, got {}", with);
        };
        let items = vec![acol(0, "t", "a"), acol(1, "t", "b"), acol(3, "u", "z")];
        assert_eq!(definition.as_ref(), &join(items), "got:\n{}", with);

        let union = plan_sql(
            "SELECT q.a AS a FROM ((SELECT t.a AS a, u.z AS z FROM t AS t, u AS u \
             WHERE (t.b = u.x)) UNION ALL (SELECT t.a AS a, u.z AS z FROM t AS t, u AS u \
             WHERE (t.b = u.x))) AS q",
        );
        let PhysicalPlan::SubqueryScan { input, .. } = below_projection(&union) else {
            panic!("expected SubqueryScan, got {}", union);
        };
        let branch = join(vec![acol(0, "t", "a"), acol(3, "u", "z")]);
        let expected = PhysicalPlan::UnionAll(vec![branch.clone(), branch]);
        assert_eq!(input.as_ref(), &expected, "got:\n{}", union);
    }

    #[test]
    fn a_block_that_keeps_a_correlated_subplan_keeps_its_join_inputs() {
        // `t.a < c.y` cannot hash, so the subplan runs once per row of
        // t ⋈ u with that row pushed as a frame, resolved by alias: the
        // join's inputs keep their aliases, i.e. stay as they are, though
        // the projection reads one column. The subquery's own join narrows.
        let plan = plan_sql(
            "SELECT t.c AS c FROM t AS t, u AS u WHERE (t.b = u.x) AND EXISTS \
             (SELECT 1 AS one FROM c AS c, u AS v WHERE ((c.x = v.x) AND (t.a < c.y)))",
        );
        let PhysicalPlan::ExistsSemiJoin { input, subplan, .. } = below_projection(&plan) else {
            panic!("expected ExistsSemiJoin, got {}", plan);
        };
        let PhysicalPlan::HashJoin { left, right, .. } = input.as_ref() else {
            panic!("expected HashJoin, got {}", input);
        };
        assert_eq!(left.as_ref(), &scan("t", "t", &["a", "b", "c"]));
        assert_eq!(right.as_ref(), &scan("u", "u", &["x", "y", "z"]));
        let PhysicalPlan::HashJoin { left, right, .. } = below_projection(subplan) else {
            panic!("expected HashJoin, got {}", subplan);
        };
        assert!(
            matches!(left.as_ref(), PhysicalPlan::Project { exprs, .. } if exprs == &vec![acol(0, "c", "x")]),
            "{}",
            left
        );
        assert_eq!(
            right.as_ref(),
            &project(scan("u", "v", &["x", "y", "z"]), vec![acol(0, "v", "x")])
        );
    }
}
