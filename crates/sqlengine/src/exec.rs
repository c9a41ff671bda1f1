//! Query execution.
//!
//! [`Engine`] runs queries on the vectorized executor — [`Engine::prepare`]
//! compiles the AST into a [`PhysicalPlan`] once and the `execute_plan_*`
//! methods run it column-wise through [`crate::vexec::execute_plan`], the
//! engine's one plan-execution function; [`Engine::execute`] chains the two
//! for ad-hoc queries.
//!
//! This module also keeps the **interpreter** —
//! [`Engine::execute_interpreted`] evaluates the AST directly, re-deriving
//! its join strategy on every call — as the reference implementation the
//! executor is differentially tested against; no product path runs it.
//!
//! The interpreter performs the planning PostgreSQL would do for the query
//! shapes the translation emits:
//!
//! * `FROM` lists are joined left to right, using **hash joins** for
//!   equi-join conjuncts and falling back to nested-loop (cross product)
//!   joins otherwise — this is what makes the relative performance of
//!   shredding vs. loop-lifting comparable to the paper's PostgreSQL numbers,
//!   where loop-lifting's `ROW_NUMBER` over a cross product is the pathology.
//! * `WHERE` conjuncts are applied as soon as every alias they mention is
//!   bound (predicate pushdown within the join loop).
//! * `ROW_NUMBER() OVER (ORDER BY …)` is computed per select block after the
//!   join, with a deterministic total order.
//! * `WITH` binds a named result set used by `FROM` references.
//! * `EXISTS` subqueries are evaluated with correlation to the enclosing row.

use crate::ast::{BinOp, Expr, FromItem, Query, Select, TableSource};
use crate::delta::{StorageDelta, WriteBatch};
use crate::error::EngineError;
use crate::par::{ExecOptions, ExecStats};
use crate::plan::PhysicalPlan;
use crate::storage::{ColumnarResult, ResultSet, Storage};
use crate::value::{compare_rows, ParamValues, Row, SqlValue};
use crate::vexec::{execute_plan, ExecRequest, PlanProfile};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A SQL engine: storage plus an execution entry point.
///
/// An `Engine` is `Send + Sync`: storage sits behind an `RwLock`, so any
/// number of concurrent executions share read guards (the lazily built
/// columnar views sit behind version-stamped cells and the plan counter is
/// atomic) while write batches ([`Engine::apply_batch`]) take the write
/// lock. One engine instance — typically behind an `Arc` — serves any
/// number of threads concurrently.
#[derive(Debug, Default)]
pub struct Engine {
    storage: RwLock<Storage>,
    plans_built: AtomicU64,
}

impl Clone for Engine {
    fn clone(&self) -> Engine {
        Engine {
            storage: RwLock::new(self.storage().clone()),
            plans_built: AtomicU64::new(self.plans_built.load(Ordering::Relaxed)),
        }
    }
}

impl Engine {
    /// An engine over empty storage.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine over existing storage.
    pub fn with_storage(storage: Storage) -> Engine {
        Engine {
            storage: RwLock::new(storage),
            plans_built: AtomicU64::new(0),
        }
    }

    /// A read guard over the engine's storage. Any number of guards may be
    /// live at once; a write batch waits for them to drop.
    pub fn storage(&self) -> RwLockReadGuard<'_, Storage> {
        self.storage.read().expect("engine storage lock")
    }

    /// A write guard over the engine's storage, for callers that stage
    /// validation, subscription maintenance and commit under one exclusion
    /// span.
    pub fn storage_mut(&self) -> RwLockWriteGuard<'_, Storage> {
        self.storage.write().expect("engine storage lock")
    }

    /// Validate and commit a write batch under the storage write lock,
    /// returning the typed [`StorageDelta`] it induced (see
    /// [`Storage::apply_batch`]).
    pub fn apply_batch(&self, batch: &WriteBatch) -> Result<StorageDelta, EngineError> {
        self.storage_mut().apply_batch(batch)
    }

    /// Compile a query AST into a physical plan, consulting storage for
    /// table layouts. The returned plan can be executed any number of times
    /// with [`execute_plan_bound_opts`](Engine::execute_plan_bound_opts)
    /// without re-planning.
    pub fn prepare(&self, query: &Query) -> Result<PhysicalPlan, EngineError> {
        self.plans_built.fetch_add(1, Ordering::Relaxed);
        crate::plan::plan_query(query, &*self.storage())
    }

    /// Run a pre-compiled physical plan with bound values for its param
    /// slots (`:name` placeholders) on the calling thread. Binding happens at
    /// evaluation time — re-executing the same plan with different bindings
    /// does zero parsing or planning work. Like its two siblings, this is
    /// [`execute_plan`] under a read guard of the engine's storage.
    ///
    /// A plan runs on one thread whatever the [`ExecOptions`] (only a
    /// package's stage fan-out and stitch read `workers`), and the [`ExecStats`] are
    /// always `ExecStats::default()`; the three `*_opts` methods keep both
    /// in their signatures for the benchmark adapter that calls them.
    pub fn execute_plan_bound_opts(
        &self,
        plan: &PhysicalPlan,
        params: &ParamValues,
        _opts: ExecOptions,
    ) -> Result<(ColumnarResult, ExecStats), EngineError> {
        let req = ExecRequest::new(params);
        execute_plan(plan, &self.storage(), &req).map(|e| (e.result, ExecStats::default()))
    }

    /// Like [`execute_plan_bound_opts`](Engine::execute_plan_bound_opts),
    /// but with pre-bound `WITH` results (see [`ExecRequest::ctes`]).
    pub fn execute_plan_bound_ctes_opts(
        &self,
        plan: &PhysicalPlan,
        params: &ParamValues,
        ctes: &[(String, ColumnarResult)],
        _opts: ExecOptions,
    ) -> Result<(ColumnarResult, ExecStats), EngineError> {
        let req = ExecRequest {
            ctes,
            ..ExecRequest::new(params)
        };
        execute_plan(plan, &self.storage(), &req).map(|e| (e.result, ExecStats::default()))
    }

    /// Like [`execute_plan_bound_opts`](Engine::execute_plan_bound_opts),
    /// but also collect per-operator actuals (batches, rows, inclusive
    /// elapsed time) for every plan node. Pair the returned profile with
    /// [`PhysicalPlan::render_analyzed`] for an `EXPLAIN ANALYZE` tree.
    pub fn execute_plan_profiled_opts(
        &self,
        plan: &PhysicalPlan,
        params: &ParamValues,
        _opts: ExecOptions,
    ) -> Result<(ColumnarResult, PlanProfile, ExecStats), EngineError> {
        let req = ExecRequest {
            profile: true,
            ..ExecRequest::new(params)
        };
        execute_plan(plan, &self.storage(), &req).map(|e| {
            let profile = e.profile.unwrap_or_default();
            (e.result, profile, ExecStats::default())
        })
    }

    /// Execute a query AST: plan it and run the plan on the vectorized
    /// executor (the default path). Callers that execute the same query
    /// repeatedly should [`prepare`](Engine::prepare) once instead.
    pub fn execute(&self, query: &Query) -> Result<ColumnarResult, EngineError> {
        self.execute_bound(query, &ParamValues::new())
    }

    /// Plan and execute a query AST with bound values for its `:name`
    /// placeholders.
    pub fn execute_bound(
        &self,
        query: &Query,
        params: &ParamValues,
    ) -> Result<ColumnarResult, EngineError> {
        let plan = self.prepare(query)?;
        Ok(execute_plan(&plan, &self.storage(), &ExecRequest::new(params))?.result)
    }

    /// Execute a query AST on the row-at-a-time interpreter. This is the
    /// original execution path, kept as the oracle the vectorized executor
    /// is differentially tested against.
    pub fn execute_interpreted(&self, query: &Query) -> Result<ResultSet, EngineError> {
        self.execute_interpreted_bound(query, &ParamValues::new())
    }

    /// Execute a query AST on the interpreter with bound values for its
    /// `:name` placeholders (the interpreter-side counterpart of
    /// [`execute_bound`](Engine::execute_bound)).
    pub fn execute_interpreted_bound(
        &self,
        query: &Query,
        params: &ParamValues,
    ) -> Result<ResultSet, EngineError> {
        let storage = self.storage();
        let ctx = ExecCtx {
            storage: &storage,
            params,
        };
        exec_query(query, &ctx, &CteEnv::default(), &Scope::default())
    }

    /// Parse and execute a SQL string (the dialect produced by the printer),
    /// transposed into a row-major result set — text consumers want rows.
    pub fn execute_sql(&self, sql: &str) -> Result<ResultSet, EngineError> {
        let query = crate::parser::parse_query(sql)?;
        self.execute(&query).map(ColumnarResult::into_result_set)
    }

    /// How many physical plans this engine has built (via
    /// [`prepare`](Engine::prepare) or ad-hoc [`execute`](Engine::execute)).
    /// Sessions that cache prepared plans assert this stays flat across
    /// repeat executions (including concurrent ones: the counter is atomic).
    pub fn plans_built(&self) -> u64 {
        self.plans_built.load(Ordering::Relaxed)
    }
}

/// Execution context: shared immutable state.
struct ExecCtx<'a> {
    storage: &'a Storage,
    params: &'a ParamValues,
}

/// Environment of `WITH`-bound result sets, innermost last.
#[derive(Default, Clone)]
struct CteEnv {
    bindings: Vec<(String, ResultSet)>,
}

impl CteEnv {
    fn lookup(&self, name: &str) -> Option<&ResultSet> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, rs)| rs)
    }

    fn extended(&self, name: &str, rs: ResultSet) -> CteEnv {
        let mut bindings = self.bindings.clone();
        bindings.push((name.to_string(), rs));
        CteEnv { bindings }
    }
}

/// A scope of bound row frames, used for correlated subquery evaluation. The
/// outermost frames come first; lookup searches innermost first.
#[derive(Default, Clone)]
struct Scope {
    frames: Vec<Frame>,
}

#[derive(Clone)]
struct Frame {
    alias: String,
    columns: Vec<String>,
    row: Row,
}

impl Scope {
    fn extended_with(&self, frames: Vec<Frame>) -> Scope {
        let mut all = self.frames.clone();
        all.extend(frames);
        Scope { frames: all }
    }

    fn lookup(&self, table: &Option<String>, column: &str) -> Result<SqlValue, EngineError> {
        match table {
            Some(alias) => {
                for frame in self.frames.iter().rev() {
                    if &frame.alias == alias {
                        if let Some(idx) = frame.columns.iter().position(|c| c == column) {
                            return Ok(frame.row[idx].clone());
                        }
                        return Err(EngineError::UnknownColumn {
                            qualifier: Some(alias.clone()),
                            name: column.to_string(),
                        });
                    }
                }
                Err(EngineError::UnknownAlias(alias.clone()))
            }
            None => {
                let mut found: Option<SqlValue> = None;
                for frame in self.frames.iter().rev() {
                    if let Some(idx) = frame.columns.iter().position(|c| c == column) {
                        if found.is_some() {
                            return Err(EngineError::AmbiguousColumn(column.to_string()));
                        }
                        found = Some(frame.row[idx].clone());
                    }
                }
                found.ok_or_else(|| EngineError::UnknownColumn {
                    qualifier: None,
                    name: column.to_string(),
                })
            }
        }
    }
}

/// A relation bound in the `FROM` clause, fully materialised.
struct BoundRelation {
    alias: String,
    columns: Vec<String>,
    rows: Vec<Row>,
}

fn exec_query(
    query: &Query,
    ctx: &ExecCtx<'_>,
    ctes: &CteEnv,
    outer: &Scope,
) -> Result<ResultSet, EngineError> {
    match query {
        Query::Select(s) => exec_select(s, ctx, ctes, outer),
        Query::UnionAll(branches) => {
            let mut iter = branches.iter();
            let first = iter
                .next()
                .ok_or_else(|| EngineError::TypeError("empty UNION ALL".to_string()))?;
            let mut acc = exec_query(first, ctx, ctes, outer)?;
            for branch in iter {
                let next = exec_query(branch, ctx, ctes, outer)?;
                if next.columns.len() != acc.columns.len() {
                    return Err(EngineError::TypeError(format!(
                        "UNION ALL branches have {} and {} columns",
                        acc.columns.len(),
                        next.columns.len()
                    )));
                }
                acc.rows.extend(next.rows);
            }
            Ok(acc)
        }
        Query::With {
            name,
            definition,
            body,
        } => {
            let bound = exec_select(definition, ctx, ctes, outer)?;
            let extended = ctes.extended(name, bound);
            exec_query(body, ctx, &extended, outer)
        }
    }
}

fn exec_select(
    select: &Select,
    ctx: &ExecCtx<'_>,
    ctes: &CteEnv,
    outer: &Scope,
) -> Result<ResultSet, EngineError> {
    // 1. Materialise the FROM relations.
    let relations = select
        .from
        .iter()
        .map(|f| bind_from_item(f, ctx, ctes, outer))
        .collect::<Result<Vec<_>, _>>()?;

    // 2. Split the WHERE clause into conjuncts and join.
    let conjuncts = select
        .where_clause
        .as_ref()
        .map(|w| w.conjuncts())
        .unwrap_or_default();
    let joined = join_relations(&relations, &conjuncts, ctx, ctes, outer)?;

    // 3. Precompute ROW_NUMBER assignments over the joined rows.
    let row_number_specs = collect_row_number_specs(select);
    let row_numbers =
        compute_row_numbers(&row_number_specs, &joined, &relations, ctx, ctes, outer)?;

    // 4. Project.
    let columns: Vec<String> = select.items.iter().map(|i| i.alias.clone()).collect();
    let mut out_rows = Vec::with_capacity(joined.len());
    for (row_idx, combo) in joined.iter().enumerate() {
        let scope = scope_for(outer, &relations, combo);
        let numbering = RowNumbers {
            specs: &row_number_specs,
            values: row_numbers.get(row_idx).map(Vec::as_slice).unwrap_or(&[]),
        };
        let mut out = Vec::with_capacity(select.items.len());
        for item in &select.items {
            out.push(eval_expr(&item.expr, &scope, ctx, ctes, Some(&numbering))?);
        }
        out_rows.push(out);
    }
    Ok(ResultSet {
        columns,
        rows: out_rows,
    })
}

fn bind_from_item(
    item: &FromItem,
    ctx: &ExecCtx<'_>,
    ctes: &CteEnv,
    outer: &Scope,
) -> Result<BoundRelation, EngineError> {
    let (columns, rows) = match &item.source {
        TableSource::Named(name) => {
            if let Some(rs) = ctes.lookup(name) {
                (rs.columns.clone(), rs.rows.clone())
            } else {
                let table = ctx.storage.table(name)?;
                (table.def.column_names(), table.rows.clone())
            }
        }
        TableSource::Subquery(q) => {
            let rs = exec_query(q, ctx, ctes, outer)?;
            (rs.columns, rs.rows)
        }
    };
    Ok(BoundRelation {
        alias: item.alias.clone(),
        columns,
        rows,
    })
}

/// Join the FROM relations left to right, using a hash join whenever an
/// equi-join conjunct connects the next relation to the rows joined so far,
/// and applying every conjunct as soon as all its aliases are bound.
///
/// The joined result is a vector of index combinations: `combo[i]` is the row
/// index into `relations[i]`.
fn join_relations(
    relations: &[BoundRelation],
    conjuncts: &[Expr],
    ctx: &ExecCtx<'_>,
    ctes: &CteEnv,
    outer: &Scope,
) -> Result<Vec<Vec<usize>>, EngineError> {
    let from_aliases: Vec<&str> = relations.iter().map(|r| r.alias.as_str()).collect();
    let mut pending: Vec<Expr> = conjuncts.to_vec();
    // Rows joined so far, as index combinations into the bound relations.
    let mut joined: Vec<Vec<usize>> = vec![Vec::new()];
    let mut bound_aliases: Vec<String> = Vec::new();

    for (rel_idx, rel) in relations.iter().enumerate() {
        // Partition pending conjuncts into equi-join keys usable for a hash
        // join with this relation, conjuncts that become fully bound once this
        // relation is added, and the rest.
        let mut hash_keys: Vec<(Expr, Expr)> = Vec::new(); // (bound side, new side)
        let mut now_applicable: Vec<Expr> = Vec::new();
        let mut still_pending: Vec<Expr> = Vec::new();

        for conj in pending.drain(..) {
            let refs = conj.referenced_aliases();
            let from_refs: Vec<&String> = refs
                .iter()
                .filter(|a| from_aliases.contains(&a.as_str()))
                .collect();
            let all_bound_after = from_refs
                .iter()
                .all(|a| bound_aliases.contains(a) || *a == &rel.alias)
                && !conj.contains_unqualified_column()
                && !conj.contains_exists();
            if !all_bound_after {
                still_pending.push(conj);
                continue;
            }
            // Prefer using pure equi-joins as hash keys. One side must
            // reference only bound aliases and the other only the incoming
            // relation (the build side is evaluated in a scope holding just
            // that relation's frame, so a mixed-side expression like
            // `b.y + a.z` must stay a filter — the planner applies the same
            // rule).
            if let Expr::BinOp {
                op: BinOp::Eq,
                left,
                right,
            } = &conj
            {
                let l_refs = left.referenced_aliases();
                let r_refs = right.referenced_aliases();
                let l_new = l_refs.iter().any(|a| a == &rel.alias);
                let r_new = r_refs.iter().any(|a| a == &rel.alias);
                let l_bound_only = l_refs.iter().all(|a| bound_aliases.contains(a));
                let r_bound_only = r_refs.iter().all(|a| bound_aliases.contains(a));
                let l_new_only = l_refs.iter().all(|a| a == &rel.alias);
                let r_new_only = r_refs.iter().all(|a| a == &rel.alias);
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

        let next = if !hash_keys.is_empty() {
            hash_join(&joined, relations, rel_idx, &hash_keys, ctx, ctes, outer)?
        } else {
            nested_loop_join(&joined, rel.rows.len())
        };

        bound_aliases.push(rel.alias.clone());

        // Apply the now-applicable conjuncts as filters.
        let mut filtered = Vec::with_capacity(next.len());
        'rows: for combo in next {
            let scope = scope_for(outer, &relations[..=rel_idx], &combo);
            for conj in &now_applicable {
                let v = eval_expr(conj, &scope, ctx, ctes, None)?;
                if v.as_bool() != Some(true) {
                    continue 'rows;
                }
            }
            filtered.push(combo);
        }
        joined = filtered;
    }

    // Apply any remaining conjuncts (correlated EXISTS, unqualified columns).
    if !pending.is_empty() {
        let mut filtered = Vec::with_capacity(joined.len());
        'rows2: for combo in joined {
            let scope = scope_for(outer, relations, &combo);
            for conj in &pending {
                let v = eval_expr(conj, &scope, ctx, ctes, None)?;
                if v.as_bool() != Some(true) {
                    continue 'rows2;
                }
            }
            filtered.push(combo);
        }
        joined = filtered;
    }

    Ok(joined)
}

fn nested_loop_join(joined: &[Vec<usize>], new_len: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::with_capacity(joined.len() * new_len.max(1));
    for combo in joined {
        for i in 0..new_len {
            let mut c = combo.clone();
            c.push(i);
            out.push(c);
        }
    }
    out
}

fn hash_join(
    joined: &[Vec<usize>],
    relations: &[BoundRelation],
    rel_idx: usize,
    keys: &[(Expr, Expr)],
    ctx: &ExecCtx<'_>,
    ctes: &CteEnv,
    outer: &Scope,
) -> Result<Vec<Vec<usize>>, EngineError> {
    let rel = &relations[rel_idx];
    // Build: hash each row of the new relation by its key values.
    let mut table: HashMap<Vec<SqlValue>, Vec<usize>> = HashMap::new();
    for (i, row) in rel.rows.iter().enumerate() {
        let frame = Frame {
            alias: rel.alias.clone(),
            columns: rel.columns.clone(),
            row: row.clone(),
        };
        let scope = outer.extended_with(vec![frame]);
        let mut key = Vec::with_capacity(keys.len());
        let mut has_null = false;
        for (_, new_side) in keys {
            let v = eval_expr(new_side, &scope, ctx, ctes, None)?;
            if v.is_null() {
                has_null = true;
            }
            key.push(v);
        }
        if !has_null {
            table.entry(key).or_default().push(i);
        }
    }
    // Probe with the rows joined so far.
    let mut out = Vec::new();
    for combo in joined {
        let scope = scope_for(outer, &relations[..rel_idx], combo);
        let mut key = Vec::with_capacity(keys.len());
        let mut has_null = false;
        for (bound_side, _) in keys {
            let v = eval_expr(bound_side, &scope, ctx, ctes, None)?;
            if v.is_null() {
                has_null = true;
            }
            key.push(v);
        }
        if has_null {
            continue;
        }
        if let Some(matches) = table.get(&key) {
            for &i in matches {
                let mut c = combo.clone();
                c.push(i);
                out.push(c);
            }
        }
    }
    Ok(out)
}

fn scope_for(outer: &Scope, relations: &[BoundRelation], combo: &[usize]) -> Scope {
    let frames = relations
        .iter()
        .zip(combo.iter())
        .map(|(rel, &idx)| Frame {
            alias: rel.alias.clone(),
            columns: rel.columns.clone(),
            row: rel.rows[idx].clone(),
        })
        .collect();
    outer.extended_with(frames)
}

/// The distinct `ROW_NUMBER` window specifications of a select block (also
/// used by the physical planner).
pub(crate) fn collect_row_number_specs(select: &Select) -> Vec<Vec<Expr>> {
    fn collect(e: &Expr, acc: &mut Vec<Vec<Expr>>) {
        match e {
            Expr::RowNumber { order_by } if !acc.contains(order_by) => {
                acc.push(order_by.clone());
            }
            Expr::BinOp { left, right, .. } => {
                collect(left, acc);
                collect(right, acc);
            }
            Expr::Not(inner) => collect(inner, acc),
            _ => {}
        }
    }
    let mut acc = Vec::new();
    for item in &select.items {
        collect(&item.expr, &mut acc);
    }
    acc
}

/// For each joined row, the `ROW_NUMBER` value of each window specification.
fn compute_row_numbers(
    specs: &[Vec<Expr>],
    joined: &[Vec<usize>],
    relations: &[BoundRelation],
    ctx: &ExecCtx<'_>,
    ctes: &CteEnv,
    outer: &Scope,
) -> Result<Vec<Vec<i64>>, EngineError> {
    let mut out = vec![vec![0i64; specs.len()]; joined.len()];
    for (spec_idx, order_by) in specs.iter().enumerate() {
        // Evaluate the sort key of every row, sort (stably) and number.
        let mut keys: Vec<(usize, Vec<SqlValue>)> = Vec::with_capacity(joined.len());
        for (row_idx, combo) in joined.iter().enumerate() {
            let scope = scope_for(outer, relations, combo);
            let mut key = Vec::with_capacity(order_by.len());
            for k in order_by {
                key.push(eval_expr(k, &scope, ctx, ctes, None)?);
            }
            keys.push((row_idx, key));
        }
        keys.sort_by(|a, b| compare_rows(&a.1, &b.1));
        for (number, (row_idx, _)) in keys.into_iter().enumerate() {
            out[row_idx][spec_idx] = (number + 1) as i64;
        }
    }
    Ok(out)
}

/// `ROW_NUMBER` values for the current row, keyed by window specification.
struct RowNumbers<'a> {
    specs: &'a [Vec<Expr>],
    values: &'a [i64],
}

fn eval_expr(
    expr: &Expr,
    scope: &Scope,
    ctx: &ExecCtx<'_>,
    ctes: &CteEnv,
    row_numbers: Option<&RowNumbers<'_>>,
) -> Result<SqlValue, EngineError> {
    match expr {
        Expr::Column { table, column } => scope.lookup(table, column),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(name) => ctx
            .params
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnboundParameter(name.clone())),
        Expr::BinOp { op, left, right } => {
            let l = eval_expr(left, scope, ctx, ctes, row_numbers)?;
            let r = eval_expr(right, scope, ctx, ctes, row_numbers)?;
            eval_binop(*op, &l, &r)
        }
        Expr::Not(inner) => {
            let v = eval_expr(inner, scope, ctx, ctes, row_numbers)?;
            match v {
                SqlValue::Bool(b) => Ok(SqlValue::Bool(!b)),
                SqlValue::Null => Ok(SqlValue::Null),
                other => Err(EngineError::TypeError(format!(
                    "NOT applied to {}",
                    other.type_name()
                ))),
            }
        }
        Expr::Exists(q) => {
            let rs = exec_query(q, ctx, ctes, scope)?;
            Ok(SqlValue::Bool(!rs.is_empty()))
        }
        Expr::RowNumber { order_by } => match row_numbers {
            Some(rn) => {
                let idx =
                    rn.specs.iter().position(|s| s == order_by).ok_or_else(|| {
                        EngineError::TypeError("unplanned ROW_NUMBER".to_string())
                    })?;
                Ok(SqlValue::Int(rn.values[idx]))
            }
            None => Err(EngineError::TypeError(
                "ROW_NUMBER is only allowed in the select list".to_string(),
            )),
        },
    }
}

/// Scalar binary-operator semantics, shared between the interpreter and the
/// vectorized executor so the two paths cannot diverge.
pub(crate) fn eval_binop(op: BinOp, l: &SqlValue, r: &SqlValue) -> Result<SqlValue, EngineError> {
    use BinOp::*;
    // SQL three-valued logic, simplified: any NULL operand yields NULL except
    // for AND/OR short-circuit cases that are determined by the other operand.
    if l.is_null() || r.is_null() {
        return Ok(match op {
            And => {
                if l.as_bool() == Some(false) || r.as_bool() == Some(false) {
                    SqlValue::Bool(false)
                } else {
                    SqlValue::Null
                }
            }
            Or => {
                if l.as_bool() == Some(true) || r.as_bool() == Some(true) {
                    SqlValue::Bool(true)
                } else {
                    SqlValue::Null
                }
            }
            _ => SqlValue::Null,
        });
    }
    let type_err =
        |msg: &str| EngineError::TypeError(format!("{}: {} {} {}", msg, l, op.symbol(), r));
    match op {
        Eq => Ok(SqlValue::Bool(l.sql_eq(r))),
        Neq => Ok(SqlValue::Bool(!l.sql_eq(r))),
        Lt | Le | Gt | Ge => {
            if std::mem::discriminant(l) != std::mem::discriminant(r) {
                return Err(type_err("cannot compare"));
            }
            let c = l.sql_cmp(r);
            let b = match op {
                Lt => c == std::cmp::Ordering::Less,
                Le => c != std::cmp::Ordering::Greater,
                Gt => c == std::cmp::Ordering::Greater,
                Ge => c != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(SqlValue::Bool(b))
        }
        And | Or => match (l.as_bool(), r.as_bool()) {
            (Some(a), Some(b)) => Ok(SqlValue::Bool(if op == And { a && b } else { a || b })),
            _ => Err(type_err("boolean operands required")),
        },
        Add | Sub | Mul | Div | Mod => match (l.as_int(), r.as_int()) {
            (Some(a), Some(b)) => {
                let v = match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    Div => {
                        if b == 0 {
                            return Err(EngineError::DivisionByZero);
                        }
                        a / b
                    }
                    Mod => {
                        if b == 0 {
                            return Err(EngineError::DivisionByZero);
                        }
                        a % b
                    }
                    _ => unreachable!(),
                };
                Ok(SqlValue::Int(v))
            }
            _ => Err(type_err("integer operands required")),
        },
        Concat => match (l.as_str(), r.as_str()) {
            (Some(a), Some(b)) => Ok(SqlValue::str(format!("{}{}", a, b))),
            _ => Err(type_err("text operands required")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ColumnType, TableDef};

    fn engine() -> Engine {
        let mut storage = Storage::new();
        storage
            .create_table(
                TableDef::new(
                    "employees",
                    vec![
                        ("id", ColumnType::Int),
                        ("dept", ColumnType::Text),
                        ("name", ColumnType::Text),
                        ("salary", ColumnType::Int),
                    ],
                )
                .with_key(vec!["id"]),
            )
            .unwrap();
        storage
            .create_table(
                TableDef::new(
                    "tasks",
                    vec![
                        ("id", ColumnType::Int),
                        ("employee", ColumnType::Text),
                        ("task", ColumnType::Text),
                    ],
                )
                .with_key(vec!["id"]),
            )
            .unwrap();
        let employees = vec![
            (1, "Product", "Alex", 20000),
            (2, "Product", "Bert", 900),
            (3, "Research", "Cora", 50000),
            (4, "Sales", "Erik", 2000000),
        ];
        for (id, dept, name, salary) in employees {
            storage
                .insert(
                    "employees",
                    vec![
                        SqlValue::Int(id),
                        SqlValue::str(dept),
                        SqlValue::str(name),
                        SqlValue::Int(salary),
                    ],
                )
                .unwrap();
        }
        let tasks = vec![
            (1, "Alex", "build"),
            (2, "Bert", "build"),
            (3, "Cora", "abstract"),
        ];
        for (id, emp, task) in tasks {
            storage
                .insert(
                    "tasks",
                    vec![SqlValue::Int(id), SqlValue::str(emp), SqlValue::str(task)],
                )
                .unwrap();
        }
        Engine::with_storage(storage)
    }

    #[test]
    fn simple_filter() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("e", "name"), "name")
                .from_named("employees", "e")
                .filter(Expr::binop(
                    BinOp::Gt,
                    Expr::col("e", "salary"),
                    Expr::lit(10000),
                )),
        );
        let rs = engine().execute(&q).unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn equi_join_uses_hash_join_and_matches() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("e", "name"), "name")
                .item(Expr::col("t", "task"), "task")
                .from_named("employees", "e")
                .from_named("tasks", "t")
                .filter(Expr::eq(Expr::col("e", "name"), Expr::col("t", "employee"))),
        );
        let rs = engine().execute(&q).unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn cross_product_without_predicate() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("a", "id"), "x")
                .item(Expr::col("b", "id"), "y")
                .from_named("employees", "a")
                .from_named("employees", "b"),
        );
        let rs = engine().execute(&q).unwrap();
        assert_eq!(rs.len(), 16);
    }

    #[test]
    fn union_all_preserves_duplicates() {
        let s = Select::new()
            .item(Expr::col("e", "dept"), "dept")
            .from_named("employees", "e");
        let q = Query::UnionAll(vec![Query::select(s.clone()), Query::select(s)]);
        let rs = engine().execute(&q).unwrap();
        assert_eq!(rs.len(), 8);
    }

    #[test]
    fn with_binds_a_result_set() {
        let def = Select::new()
            .item(Expr::col("e", "name"), "n")
            .from_named("employees", "e")
            .filter(Expr::binop(
                BinOp::Lt,
                Expr::col("e", "salary"),
                Expr::lit(1000),
            ));
        let body = Query::select(
            Select::new()
                .item(Expr::col("q", "n"), "n")
                .from_named("q", "q"),
        );
        let q = Query::with("q", def, body);
        let rs = engine().execute(&q).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.value(0, "n"), Some(&SqlValue::str("Bert")));
    }

    #[test]
    fn row_number_is_deterministic_and_dense() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("e", "name"), "name")
                .item(Expr::row_number(vec![Expr::col("e", "name")]), "rn")
                .from_named("employees", "e"),
        );
        let rs = engine().execute(&q).unwrap().into_result_set();
        // Alex < Bert < Cora < Erik alphabetically.
        let mut pairs: Vec<(String, i64)> = rs
            .rows
            .iter()
            .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_int().unwrap()))
            .collect();
        pairs.sort_by_key(|(_, rn)| *rn);
        assert_eq!(
            pairs,
            vec![
                ("Alex".to_string(), 1),
                ("Bert".to_string(), 2),
                ("Cora".to_string(), 3),
                ("Erik".to_string(), 4)
            ]
        );
    }

    #[test]
    fn correlated_exists_subquery() {
        // Employees that have at least one task.
        let sub = Query::select(
            Select::new()
                .item(Expr::lit(1), "one")
                .from_named("tasks", "t")
                .filter(Expr::eq(Expr::col("t", "employee"), Expr::col("e", "name"))),
        );
        let q = Query::select(
            Select::new()
                .item(Expr::col("e", "name"), "name")
                .from_named("employees", "e")
                .filter(Expr::Exists(Box::new(sub))),
        );
        let rs = engine().execute(&q).unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn not_exists_subquery() {
        let sub = Query::select(
            Select::new()
                .item(Expr::lit(1), "one")
                .from_named("tasks", "t")
                .filter(Expr::eq(Expr::col("t", "employee"), Expr::col("e", "name"))),
        );
        let q = Query::select(
            Select::new()
                .item(Expr::col("e", "name"), "name")
                .from_named("employees", "e")
                .filter(Expr::not(Expr::Exists(Box::new(sub)))),
        );
        let rs = engine().execute(&q).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.value(0, "name"), Some(&SqlValue::str("Erik")));
    }

    #[test]
    fn subquery_in_from_clause() {
        let inner = Query::select(
            Select::new()
                .item(Expr::col("e", "dept"), "dept")
                .item(Expr::col("e", "salary"), "salary")
                .from_named("employees", "e"),
        );
        let q = Query::select(
            Select::new()
                .item(Expr::col("s", "dept"), "dept")
                .from_item(TableSource::Subquery(Box::new(inner)), "s")
                .filter(Expr::binop(
                    BinOp::Ge,
                    Expr::col("s", "salary"),
                    Expr::lit(50000),
                )),
        );
        let rs = engine().execute(&q).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn unknown_column_is_an_error() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("e", "missing"), "x")
                .from_named("employees", "e"),
        );
        assert!(matches!(
            engine().execute(&q),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn unknown_table_is_an_error() {
        let q = Query::select(
            Select::new()
                .item(Expr::lit(1), "x")
                .from_named("missing", "m"),
        );
        assert!(matches!(
            engine().execute(&q),
            Err(EngineError::NoSuchTable(_))
        ));
    }

    #[test]
    fn null_comparisons_filter_rows_out() {
        let mut storage = Storage::new();
        storage
            .create_table(TableDef::new("t", vec![("a", ColumnType::Int)]))
            .unwrap();
        storage.insert("t", vec![SqlValue::Null]).unwrap();
        storage.insert("t", vec![SqlValue::Int(1)]).unwrap();
        let engine = Engine::with_storage(storage);
        let q = Query::select(
            Select::new()
                .item(Expr::col("t", "a"), "a")
                .from_named("t", "t")
                .filter(Expr::eq(Expr::col("t", "a"), Expr::lit(1))),
        );
        let rs = engine.execute(&q).unwrap();
        assert_eq!(rs.len(), 1);
    }
}
