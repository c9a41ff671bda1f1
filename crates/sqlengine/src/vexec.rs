//! Vectorized execution of [`PhysicalPlan`] trees over columnar batches:
//! the one operator walk of the engine.
//!
//! Where the interpreter in [`crate::exec`] walks the AST row by row —
//! cloning a scope frame per joined row combination — this executor runs a
//! pre-compiled plan over a columnar representation:
//!
//! * a `Batch` holds one `Vec<SqlValue>` per column, shared by `Arc` so
//!   table scans and CTE references are zero-copy and batches are
//!   `Send + Sync` (plans execute against a storage read guard and mutate
//!   nothing through it, so any number of threads can run plans over one
//!   engine),
//! * filters and semi-joins produce **selection vectors** instead of moving
//!   data; a filter evaluates its predicate as three-valued truth bitsets
//!   (`select_true`, on the predicate kernel of `crate::kernels`),
//! * expressions are evaluated column-at-a-time into borrowed `Vector`s
//!   ([`VExpr::Col`] is a resolved position read in place, a literal stays
//!   one value — no name lookup and no copy per row),
//! * keyed operators (joins, semi-joins, row-numbering) run on the key
//!   kernels of `crate::kernels`,
//! * only joins, computed projections and row-numbering materialise new
//!   columns.
//!
//! There is one walk (`exec`) and one entry point ([`execute_plan`]). Each
//! operator runs its kernel once over its whole batch on the calling thread;
//! the only parallelism is above a plan ([`crate::par`]).
//!
//! Correlated subqueries (`EXISTS`, semi/anti joins) necessarily fall back to
//! one subplan execution per outer row; the row's values are pushed as a
//! scope frame that the subplan's [`VExpr::Outer`] references resolve
//! against, mirroring the interpreter's correlation semantics exactly. The
//! interpreter remains the executable oracle this module is differentially
//! tested against (see `tests/vexec_differential.rs`).
//!
//! The second half of the module is the **incremental executor**
//! ([`DeltaExec`]), which keeps a plan's result maintained across committed
//! writes. What flows between its plan nodes is a *signed* batch — a
//! `Batch` plus one `i64` weight per row, negative for a retraction — and
//! its operator bodies are calls into this module's own kernels (`eval`,
//! `select_true`, `project_columns`, `join_gather`) and those of
//! `crate::kernels`: the column hashes, a persistent chained index for the
//! operators that must remember their input (joins and semi-joins), and a
//! sort-and-merge rank shift for `ROW_NUMBER`. Seeding
//! is the same pass over whole tables. No operator hashes or compares a
//! materialised row.

use crate::ast::BinOp;
use crate::error::EngineError;
use crate::exec::eval_binop;
use crate::kernels::{self, KeyIndex, Keys, NullMode, Rows, Truth, Vector};
use crate::plan::{OpActuals, PhysicalPlan, SchemaCol, VExpr};
use crate::storage::{ColumnarResult, Storage};
use crate::value::{ParamValues, Row, SqlValue};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Everything one plan execution takes besides the plan and the storage it
/// reads.
#[derive(Debug, Clone, Copy)]
pub struct ExecRequest<'a> {
    /// Bound values for the plan's param slots (`:name` placeholders). The
    /// plan itself is immutable — the same compiled plan can be run any
    /// number of times with different bindings and no re-planning.
    pub params: &'a ParamValues,
    /// Pre-bound `WITH` results: each `(name, result)` pair is visible to
    /// `CteScan`s of that free name inside the plan. This is how
    /// package-level shared subplans (`shredding`'s cross-stage CSE) run: a
    /// shared definition is executed once per package and its columnar
    /// result re-bound — zero-copy, the column `Arc`s are shared — under
    /// each consuming stage's CTE name.
    pub ctes: &'a [(String, ColumnarResult)],
    /// Collect per-operator actuals: every `exec` of a plan node
    /// additionally accumulates its batch count, output rows and inclusive
    /// wall time. The result path is unchanged; the per-node overhead is two
    /// `Instant` reads and a pointer-keyed map lookup.
    pub profile: bool,
}

impl<'a> ExecRequest<'a> {
    /// A request with `params` bound and the defaults for everything else:
    /// no pre-bound CTEs, no profiling.
    pub fn new(params: &'a ParamValues) -> ExecRequest<'a> {
        ExecRequest {
            params,
            ctes: &[],
            profile: false,
        }
    }
}

/// What one plan execution produced.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The batch's `Arc`-shared columns, handed over without a row-major
    /// transpose (see [`ColumnarResult`]).
    pub result: ColumnarResult,
    /// Per-operator actuals, when the request asked for them.
    pub profile: Option<PlanProfile>,
}

/// Execute a physical plan against storage: the engine's one plan-execution
/// function.
pub fn execute_plan(
    plan: &PhysicalPlan,
    storage: &Storage,
    req: &ExecRequest<'_>,
) -> Result<Execution, EngineError> {
    let prof = req.profile.then(|| Profiler::new(plan));
    let ctx = VecCtx {
        storage,
        params: req.params,
        prof: prof.as_ref(),
    };
    let mut env = CteEnv::default();
    for (name, result) in req.ctes {
        env = env.extended(name, batch_from_columnar(result));
    }
    let batch = exec(plan, &ctx, &env, &ScopeStack::default())?;
    Ok(Execution {
        result: batch.into_columnar(),
        profile: prof.map(|p| PlanProfile {
            ops: p.actuals(plan),
        }),
    })
}

/// Per-operator actuals for one profiled plan execution, indexed by the
/// node's pre-order index in [`PhysicalPlan::nodes`]. Feed `ops` to
/// [`PhysicalPlan::render_analyzed`] for an `EXPLAIN ANALYZE`-style tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanProfile {
    pub ops: Vec<OpActuals>,
}

/// Rewrap a columnar result as an executable batch (shared columns, no
/// aliases — a `CteScan` re-aliases on use, exactly as for a `With`-bound
/// batch).
fn batch_from_columnar(result: &ColumnarResult) -> Batch {
    let schema: Vec<SchemaCol> = result.columns.iter().map(|c| (None, c.clone())).collect();
    Batch {
        schema: Arc::new(schema),
        columns: (0..result.width())
            .map(|i| result.column(i).clone())
            .collect(),
        sel: None,
        base_rows: result.len(),
    }
}

/// Accumulator for per-node actuals, keyed by node address (unique within
/// one plan tree). One execution runs on one thread, so the cells are plain
/// `Cell`s and recording needs only `&self`.
pub(crate) struct Profiler {
    ids: HashMap<usize, usize>,
    cells: Vec<ProfCell>,
}

#[derive(Default)]
struct ProfCell {
    batches: Cell<u64>,
    rows_out: Cell<u64>,
    nanos: Cell<u64>,
}

impl Profiler {
    pub(crate) fn new(plan: &PhysicalPlan) -> Profiler {
        let nodes = plan.nodes();
        Profiler {
            ids: nodes
                .iter()
                .enumerate()
                .map(|(i, n)| (*n as *const PhysicalPlan as usize, i))
                .collect(),
            cells: (0..nodes.len()).map(|_| ProfCell::default()).collect(),
        }
    }

    /// Record one execution of `plan` producing `rows_out` rows in `nanos`
    /// inclusive wall time.
    pub(crate) fn record(&self, plan: &PhysicalPlan, rows_out: u64, nanos: u64) {
        if let Some(&id) = self.ids.get(&(plan as *const PhysicalPlan as usize)) {
            let cell = &self.cells[id];
            cell.batches.set(cell.batches.get() + 1);
            cell.rows_out.set(cell.rows_out.get() + rows_out);
            cell.nanos.set(cell.nanos.get() + nanos);
        }
    }

    /// Assemble the per-node [`OpActuals`] for the plan this profiler was
    /// built from, in pre-order node index order.
    pub(crate) fn actuals(&self, plan: &PhysicalPlan) -> Vec<OpActuals> {
        let nodes = plan.nodes();
        let rows_out: Vec<u64> = self.cells.iter().map(|c| c.rows_out.get()).collect();
        nodes
            .iter()
            .enumerate()
            .map(|(i, node)| OpActuals {
                batches: self.cells[i].batches.get(),
                // Actual input rows = what the direct children actually
                // produced (every child execution is triggered by this node).
                rows_in: node
                    .children()
                    .iter()
                    .map(|ch| rows_out[self.ids[&(*ch as *const PhysicalPlan as usize)]])
                    .sum(),
                rows_out: rows_out[i],
                nanos: self.cells[i].nanos.get(),
            })
            .collect()
    }
}

/// A columnar batch: a schema, shared column vectors and an optional
/// selection vector picking the live rows.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    pub(crate) schema: Arc<Vec<SchemaCol>>,
    pub(crate) columns: Vec<Arc<Vec<SqlValue>>>,
    pub(crate) sel: Option<Arc<Vec<usize>>>,
    /// Number of physical rows in `columns` (needed explicitly because a
    /// batch may have zero columns but a positive row count).
    pub(crate) base_rows: usize,
}

impl Batch {
    /// Number of live (selected) rows.
    pub(crate) fn len(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.base_rows,
        }
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical rows the batch's logical rows map to.
    pub(crate) fn rows(&self) -> Rows<'_> {
        match &self.sel {
            Some(sel) => Rows::Sel(sel),
            None => Rows::Range {
                start: 0,
                end: self.base_rows,
            },
        }
    }

    /// The values of physical row `p`, gathered across columns.
    pub(crate) fn row_at(&self, p: usize) -> Row {
        self.columns.iter().map(|c| c[p].clone()).collect()
    }

    /// Every column as a key vector over the live rows: the whole-row key
    /// the incremental executor nets weights and stores rows on.
    pub(crate) fn column_vectors(&self) -> Vec<Vector<'_>> {
        let rows = self.rows();
        self.columns
            .iter()
            .map(|data| Vector::Col { data, rows })
            .collect()
    }

    /// Gather one column into a dense vector (respecting the selection).
    pub(crate) fn gather(&self, col: usize) -> Vec<SqlValue> {
        let data = &self.columns[col];
        match &self.sel {
            None => data.as_ref().clone(),
            Some(sel) => sel.iter().map(|&p| data[p].clone()).collect(),
        }
    }

    /// The same columns under a selection of physical rows.
    pub(crate) fn with_sel(self, sel: Vec<usize>) -> Batch {
        Batch {
            sel: Some(Arc::new(sel)),
            ..self
        }
    }

    /// Compact the selection away so columns can be extended or shared.
    pub(crate) fn materialised(&self) -> Batch {
        match &self.sel {
            None => self.clone(),
            Some(_) => Batch {
                schema: self.schema.clone(),
                columns: (0..self.columns.len())
                    .map(|c| Arc::new(self.gather(c)))
                    .collect(),
                sel: None,
                base_rows: self.len(),
            },
        }
    }

    /// Rebuild a batch from explicit rows (a table delta's signed rows).
    pub(crate) fn from_rows(schema: Arc<Vec<SchemaCol>>, rows: Vec<Row>) -> Batch {
        let width = schema.len();
        let base_rows = rows.len();
        let mut columns: Vec<Vec<SqlValue>> =
            (0..width).map(|_| Vec::with_capacity(base_rows)).collect();
        for row in rows {
            for (c, v) in row.into_iter().enumerate() {
                columns[c].push(v);
            }
        }
        Batch {
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
            sel: None,
            base_rows,
        }
    }

    /// Hand the batch over as a [`ColumnarResult`]: compact the selection
    /// if there is one, then move the `Arc`-shared columns out. When the
    /// batch is already dense (no selection vector) this is zero-copy.
    pub(crate) fn into_columnar(self) -> ColumnarResult {
        let compact = match self.sel {
            None => self,
            Some(_) => self.materialised(),
        };
        let columns = compact.schema.iter().map(|(_, c)| c.clone()).collect();
        ColumnarResult::new(columns, compact.columns, compact.base_rows)
    }
}

/// Execution context shared by every node.
#[derive(Clone, Copy)]
pub(crate) struct VecCtx<'a> {
    pub(crate) storage: &'a Storage,
    pub(crate) params: &'a ParamValues,
    /// Per-operator profiler; `None` keeps execution on the unprofiled path
    /// (the only cost is this `Option` check per node execution).
    pub(crate) prof: Option<&'a Profiler>,
}

/// Runtime environment of `WITH`-bound batches, innermost last. Cloning is
/// cheap: batches share their columns by `Arc`.
#[derive(Default, Clone)]
pub(crate) struct CteEnv {
    bindings: Vec<(String, Batch)>,
}

impl CteEnv {
    pub(crate) fn lookup(&self, name: &str) -> Option<&Batch> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b)
    }

    pub(crate) fn extended(&self, name: &str, batch: Batch) -> CteEnv {
        let mut bindings = self.bindings.clone();
        bindings.push((name.to_string(), batch));
        CteEnv { bindings }
    }
}

/// The scope stack for correlated subqueries: one frame per enclosing row,
/// innermost last.
#[derive(Default, Clone)]
pub(crate) struct ScopeStack {
    frames: Vec<ScopeFrame>,
}

#[derive(Clone)]
pub(crate) struct ScopeFrame {
    pub(crate) schema: Arc<Vec<SchemaCol>>,
    pub(crate) values: Row,
}

impl ScopeStack {
    pub(crate) fn pushed(&self, frame: ScopeFrame) -> ScopeStack {
        let mut frames = self.frames.clone();
        frames.push(frame);
        ScopeStack { frames }
    }

    pub(crate) fn lookup(
        &self,
        table: &Option<String>,
        column: &str,
    ) -> Result<SqlValue, EngineError> {
        match table {
            Some(alias) => {
                for frame in self.frames.iter().rev() {
                    if frame
                        .schema
                        .iter()
                        .any(|(a, _)| a.as_deref() == Some(alias.as_str()))
                    {
                        return match frame
                            .schema
                            .iter()
                            .position(|(a, c)| a.as_deref() == Some(alias.as_str()) && c == column)
                        {
                            Some(idx) => Ok(frame.values[idx].clone()),
                            None => Err(EngineError::UnknownColumn {
                                qualifier: Some(alias.clone()),
                                name: column.to_string(),
                            }),
                        };
                    }
                }
                Err(EngineError::UnknownAlias(alias.clone()))
            }
            None => {
                for frame in self.frames.iter().rev() {
                    if let Some(idx) = frame.schema.iter().position(|(_, c)| c == column) {
                        return Ok(frame.values[idx].clone());
                    }
                }
                Err(EngineError::UnknownColumn {
                    qualifier: None,
                    name: column.to_string(),
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------------

/// Execute one plan node and, in debug builds, check the dynamic twin of the
/// static plan validator (`analysis::plan_check`): the produced batch's
/// column count matches the node's declared `output_columns()` arity, the
/// schema is as wide as the data, and every selection-vector entry is in
/// bounds of the physical rows.
pub(crate) fn exec(
    plan: &PhysicalPlan,
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Batch, EngineError> {
    let timer = ctx.prof.map(|p| (p, Instant::now()));
    let batch = exec_node(plan, ctx, ctes, scope)?;
    if let Some((prof, start)) = timer {
        prof.record(
            plan,
            batch.len() as u64,
            start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
    }
    debug_assert_eq!(
        batch.columns.len(),
        plan.output_columns().len(),
        "plan node produced a batch of {} columns but declares {} output columns",
        batch.columns.len(),
        plan.output_columns().len(),
    );
    debug_assert_eq!(
        batch.schema.len(),
        batch.columns.len(),
        "batch schema names {} columns but the batch holds {}",
        batch.schema.len(),
        batch.columns.len(),
    );
    if let Some(sel) = &batch.sel {
        debug_assert!(
            sel.iter().all(|&p| p < batch.base_rows),
            "selection vector references a physical row >= {}",
            batch.base_rows,
        );
    }
    Ok(batch)
}

/// The operator walk. Every operator body is a kernel, of this module or of
/// [`crate::kernels`], called once over the operator's whole batch.
fn exec_node(
    plan: &PhysicalPlan,
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Batch, EngineError> {
    match plan {
        PhysicalPlan::UnitRow => Ok(Batch {
            schema: Arc::new(Vec::new()),
            columns: Vec::new(),
            sel: None,
            base_rows: 1,
        }),
        // Scans are zero-copy `Arc` clones of the storage columns.
        PhysicalPlan::TableScan {
            table,
            alias,
            columns,
            ..
        } => {
            let table = ctx.storage.table(table)?;
            let names = table.def.column_names();
            // Column references were resolved to positions at plan time;
            // refuse to scan a table whose live layout differs from the one
            // the plan was compiled against (e.g. a plan compiled for one
            // schema executed on an engine loaded from another).
            if names != *columns {
                return Err(EngineError::TypeError(format!(
                    "physical plan for table {} was compiled against columns ({}) \
                     but storage has ({})",
                    table.def.name,
                    columns.join(", "),
                    names.join(", ")
                )));
            }
            let schema: Vec<SchemaCol> = names
                .into_iter()
                .map(|c| (Some(alias.clone()), c))
                .collect();
            Ok(Batch {
                schema: Arc::new(schema),
                columns: table.columnar().to_vec(),
                sel: None,
                base_rows: table.len(),
            })
        }
        PhysicalPlan::CteScan { name, alias, .. } => {
            let bound = ctes
                .lookup(name)
                .ok_or_else(|| EngineError::UnknownCte(name.clone()))?;
            Ok(realias(bound, alias))
        }
        PhysicalPlan::SubqueryScan { input, alias } => {
            let inner = exec(input, ctx, ctes, scope)?;
            Ok(realias(&inner, alias))
        }
        PhysicalPlan::NestedLoopJoin { left, right } => {
            let l = exec(left, ctx, ctes, scope)?;
            let r = exec(right, ctx, ctes, scope)?;
            Ok(join_gather(&l, &r, &cross_pairs(l.len(), r.len())))
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let l = exec(left, ctx, ctes, scope)?;
            let r = exec(right, ctx, ctes, scope)?;
            let lk = Keys::new(eval_all(left_keys, &l, ctx, ctes, scope)?, l.len());
            let rk = Keys::new(eval_all(right_keys, &r, ctx, ctes, scope)?, r.len());
            // Both inputs are in hand, so their sizes are known exactly: the
            // smaller one builds the hash table, the right one on a tie.
            let (build_keys, probe_keys, probe_is_left) = if r.len() <= l.len() {
                (&rk, &lk, true)
            } else {
                (&lk, &rk, false)
            };
            let index = KeyIndex::new(build_keys, NullMode::NeverMatches)?;
            let pairs = index.join_pairs(probe_keys, probe_is_left);
            Ok(join_gather(&l, &r, &pairs))
        }
        PhysicalPlan::Filter { input, predicate } => {
            let batch = exec(input, ctx, ctes, scope)?;
            let sel = select_true(predicate, &batch, ctx, ctes, scope)?;
            Ok(batch.with_sel(sel))
        }
        PhysicalPlan::ExistsSemiJoin {
            input,
            subplan,
            anti,
        } => {
            let batch = exec(input, ctx, ctes, scope)?;
            let sel = exists_select(subplan, *anti, &batch, ctx, ctes, scope)?;
            Ok(batch.with_sel(sel))
        }
        PhysicalPlan::HashSemiJoin {
            input,
            build,
            probe_keys,
            build_keys,
            anti,
        } => {
            let batch = exec(input, ctx, ctes, scope)?;
            // The build side runs exactly once, under the *same* scope as
            // this node (no frame is pushed: after decorrelation the build
            // holds no references to the input's rows).
            let built = exec(build, ctx, ctes, scope)?;
            let bk = Keys::new(eval_all(build_keys, &built, ctx, ctes, scope)?, built.len());
            let pk = Keys::new(eval_all(probe_keys, &batch, ctx, ctes, scope)?, batch.len());
            let index = KeyIndex::new(&bk, NullMode::NeverMatches)?;
            let sel = index.semi_select(&pk, *anti, batch.rows());
            Ok(batch.with_sel(sel))
        }
        PhysicalPlan::RowNumber { input, specs } => {
            // Ties in a window's keys are broken by the batch's row order
            // (stable sort), which may differ from the interpreter's join
            // order when a hash join below built on its left input — the
            // same latitude PostgreSQL has for tied ROW_NUMBER keys. The
            // shredding translation only numbers over key columns that
            // uniquely identify rows, so its stages are never affected.
            let batch = exec(input, ctx, ctes, scope)?.materialised();
            let ranks = specs
                .iter()
                .map(|keys| {
                    let keys = eval_all(keys, &batch, ctx, ctes, scope)?;
                    Ok(rank_column(&kernels::sort_rows(&keys, 0..batch.len())))
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            Ok(with_rank_columns(batch, ranks))
        }
        PhysicalPlan::Project {
            input,
            exprs,
            columns,
        } => {
            let batch = exec(input, ctx, ctes, scope)?;
            if let Some(renamed) = project_columns(&batch, exprs, columns) {
                return Ok(renamed);
            }
            let out = eval_all(exprs, &batch, ctx, ctes, scope)?
                .into_iter()
                .zip(exprs)
                .map(|(v, e)| shared_column(&batch, e).unwrap_or_else(|| Arc::new(v.into_vec())))
                .collect();
            Ok(projected(columns, out, batch.len()))
        }
        PhysicalPlan::UnionAll(branches) => union_all(branches, ctx, ctes, scope),
        PhysicalPlan::With {
            name,
            definition,
            body,
        } => {
            // Compact once here, so no `CteScan` of the binding gathers or
            // reads through a selection.
            let bound = exec(definition, ctx, ctes, scope)?.materialised();
            let extended = ctes.extended(name, bound);
            exec(body, ctx, &extended, scope)
        }
    }
}

/// Rebind a batch's columns under a new `FROM` alias: a schema rename, the
/// columns and the selection are shared as they are.
fn realias(batch: &Batch, alias: &str) -> Batch {
    let schema: Vec<SchemaCol> = batch
        .schema
        .iter()
        .map(|(_, c)| (Some(alias.to_string()), c.clone()))
        .collect();
    Batch {
        schema: Arc::new(schema),
        ..batch.clone()
    }
}

/// Every pair of a cross product, left-major.
fn cross_pairs(left: usize, right: usize) -> Vec<(usize, usize)> {
    (0..left)
        .flat_map(|i| (0..right).map(move |j| (i, j)))
        .collect()
}

/// One output column of a join: `column` of `side` at the side's rows of
/// `pairs` (`pick` chooses the pair component).
fn gather_pairs(
    side: &Batch,
    column: usize,
    pairs: &[(usize, usize)],
    pick: impl Fn(&(usize, usize)) -> usize,
) -> Arc<Vec<SqlValue>> {
    let data = &side.columns[column];
    Arc::new(match &side.sel {
        None => pairs.iter().map(|p| data[pick(p)].clone()).collect(),
        Some(sel) => pairs.iter().map(|p| data[sel[pick(p)]].clone()).collect(),
    })
}

/// Materialise the concatenation of two batches at the given row pairs: the
/// left columns, then the right ones.
fn join_gather(left: &Batch, right: &Batch, pairs: &[(usize, usize)]) -> Batch {
    let mut schema = left.schema.as_ref().clone();
    schema.extend(right.schema.iter().cloned());
    let columns = (0..left.columns.len())
        .map(|c| gather_pairs(left, c, pairs, |p| p.0))
        .chain((0..right.columns.len()).map(|c| gather_pairs(right, c, pairs, |p| p.1)))
        .collect();
    Batch {
        schema: Arc::new(schema),
        columns,
        sel: None,
        base_rows: pairs.len(),
    }
}

/// The `#rn` column of a window: row `order[k]` gets number `k + 1`.
fn rank_column(order: &[usize]) -> Arc<Vec<SqlValue>> {
    let mut rn = vec![SqlValue::Null; order.len()];
    for (number, &row) in order.iter().enumerate() {
        rn[row] = SqlValue::Int((number + 1) as i64);
    }
    Arc::new(rn)
}

/// A dense batch extended by one `#rn<i>` column per window.
fn with_rank_columns(batch: Batch, ranks: Vec<Arc<Vec<SqlValue>>>) -> Batch {
    let mut schema = batch.schema.as_ref().clone();
    schema.extend((0..ranks.len()).map(|i| (None, format!("#rn{}", i))));
    let mut columns = batch.columns;
    columns.extend(ranks);
    Batch {
        schema: Arc::new(schema),
        columns,
        sel: None,
        base_rows: batch.base_rows,
    }
}

/// A projection that only picks and renames columns shares them — and the
/// input's selection — instead of gathering. `None` when some expression
/// computes.
fn project_columns(batch: &Batch, exprs: &[VExpr], names: &[String]) -> Option<Batch> {
    let columns = exprs
        .iter()
        .map(|e| match e {
            VExpr::Col { index, .. } => Some(batch.columns[*index].clone()),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Batch {
        sel: batch.sel.clone(),
        ..projected(names, columns, batch.base_rows)
    })
}

/// A bare column reference over a dense batch is the column itself.
fn shared_column(batch: &Batch, expr: &VExpr) -> Option<Arc<Vec<SqlValue>>> {
    match expr {
        VExpr::Col { index, .. } if batch.sel.is_none() => Some(batch.columns[*index].clone()),
        _ => None,
    }
}

/// The dense output batch of a projection.
fn projected(names: &[String], columns: Vec<Arc<Vec<SqlValue>>>, rows: usize) -> Batch {
    Batch {
        schema: Arc::new(names.iter().map(|c| (None, c.clone())).collect()),
        columns,
        sel: None,
        base_rows: rows,
    }
}

/// `UNION ALL`: the branches' rows appended column by column, under the
/// first branch's schema.
fn union_all(
    branches: &[PhysicalPlan],
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Batch, EngineError> {
    let (first, rest) = branches
        .split_first()
        .ok_or_else(|| EngineError::TypeError("empty UNION ALL".to_string()))?;
    let first = exec(first, ctx, ctes, scope)?;
    let width = first.columns.len();
    let mut columns: Vec<Vec<SqlValue>> = (0..width).map(|c| first.gather(c)).collect();
    let mut total = first.len();
    for branch in rest {
        let next = exec(branch, ctx, ctes, scope)?;
        if next.columns.len() != width {
            return Err(EngineError::TypeError(format!(
                "UNION ALL branches have {} and {} columns",
                width,
                next.columns.len()
            )));
        }
        total += next.len();
        for (c, column) in columns.iter_mut().enumerate() {
            column.extend(next.gather(c));
        }
    }
    Ok(Batch {
        schema: first.schema,
        columns: columns.into_iter().map(Arc::new).collect(),
        sel: None,
        base_rows: total,
    })
}

/// The selection of a correlated semi (`anti`: anti) join over `batch`: the
/// subplan runs once per row, the row pushed as a scope frame.
fn exists_select(
    subplan: &PhysicalPlan,
    anti: bool,
    batch: &Batch,
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Vec<usize>, EngineError> {
    let rows = batch.rows();
    let mut sel = Vec::new();
    for i in 0..rows.len() {
        let p = rows.phys(i);
        if exists_at(subplan, batch, p, ctx, ctes, scope)? != anti {
            sel.push(p);
        }
    }
    Ok(sel)
}

/// Is the correlated `subplan` non-empty for physical row `p` of `batch`?
fn exists_at(
    subplan: &PhysicalPlan,
    batch: &Batch,
    p: usize,
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<bool, EngineError> {
    let frame = ScopeFrame {
        schema: batch.schema.clone(),
        values: batch.row_at(p),
    };
    Ok(!exec(subplan, ctx, ctes, &scope.pushed(frame))?.is_empty())
}

/// The physical rows of `batch` on which `predicate` is `TRUE` — a filter's
/// selection vector, written from the predicate's TRUE set
/// ([`truth_of`]). When some leaf yields a cell that is neither boolean nor
/// `NULL`, the generic path — [`eval`] and a boolean test per row — decides
/// the rows and the first error.
fn select_true(
    predicate: &VExpr,
    batch: &Batch,
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Vec<usize>, EngineError> {
    let rows = batch.rows();
    if let Some(truth) = truth_of(predicate, false, batch, ctx, ctes, scope)? {
        let mut sel = Vec::with_capacity(truth.count_true());
        truth.for_each_true(|i| sel.push(rows.phys(i)));
        return Ok(sel);
    }
    let values = eval(predicate, batch, ctx, ctes, scope)?;
    Ok((0..rows.len())
        .filter(|&i| values.get(i).as_bool() == Some(true))
        .map(|i| rows.phys(i))
        .collect())
}

/// The three-valued truth of `predicate` on every live row of `batch`, its
/// FALSE set included when `with_false` (an operand of `NOT` needs it):
/// comparisons run on [`kernels::compare`], `AND`, `OR` and `NOT` combine
/// the sets word by word, and any other leaf is [`eval`]uated and read as
/// bits. Operands evaluate in [`eval`]'s order, so the first error is its
/// first error. `None` when a leaf yields a cell that is neither boolean
/// nor `NULL`.
fn truth_of(
    predicate: &VExpr,
    with_false: bool,
    batch: &Batch,
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Option<Truth>, EngineError> {
    match predicate {
        VExpr::BinOp {
            op: op @ (BinOp::And | BinOp::Or),
            left,
            right,
        } => {
            let Some(l) = truth_of(left, with_false, batch, ctx, ctes, scope)? else {
                return Ok(None);
            };
            let Some(r) = truth_of(right, with_false, batch, ctx, ctes, scope)? else {
                return Ok(None);
            };
            Ok(Some(if *op == BinOp::And { l.and(r) } else { l.or(r) }))
        }
        VExpr::Not(inner) => Ok(truth_of(inner, true, batch, ctx, ctes, scope)?.map(Truth::not)),
        VExpr::BinOp {
            op: op @ (BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
            left,
            right,
        } => {
            let l = eval(left, batch, ctx, ctes, scope)?;
            let r = eval(right, batch, ctx, ctes, scope)?;
            kernels::compare(*op, &l, &r, with_false).map(Some)
        }
        leaf => Ok(Truth::of_cells(
            &eval(leaf, batch, ctx, ctes, scope)?,
            with_false,
        )),
    }
}

/// Column-at-a-time evaluation of each of `exprs` over every live row of
/// `batch`.
fn eval_all<'a>(
    exprs: &[VExpr],
    batch: &'a Batch,
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Vec<Vector<'a>>, EngineError> {
    exprs
        .iter()
        .map(|e| eval(e, batch, ctx, ctes, scope))
        .collect()
}

/// Column-at-a-time expression evaluation over every live row of `batch`: a
/// column reference borrows the column, a literal, parameter or outer
/// reference stays one value, and only an operator computes a new vector.
fn eval<'a>(
    expr: &VExpr,
    batch: &'a Batch,
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Vector<'a>, EngineError> {
    let rows = batch.rows();
    let len = rows.len();
    let constant = |value: SqlValue| Vector::Const { value, len };
    match expr {
        VExpr::Col { index, .. } => Ok(Vector::Col {
            data: &batch.columns[*index],
            rows,
        }),
        // Constant within one batch: the enclosing row is fixed for the
        // whole subplan execution.
        VExpr::Outer { table, column } => scope.lookup(table, column).map(constant),
        VExpr::Lit(v) => Ok(constant(v.clone())),
        VExpr::Param(name) => ctx
            .params
            .get(name)
            .cloned()
            .map(constant)
            .ok_or_else(|| EngineError::UnboundParameter(name.clone())),
        VExpr::BinOp { op, left, right } => {
            let l = eval(left, batch, ctx, ctes, scope)?;
            let r = eval(right, batch, ctx, ctes, scope)?;
            (0..len)
                .map(|i| eval_binop(*op, l.get(i), r.get(i)))
                .collect::<Result<Vec<_>, _>>()
                .map(Vector::Owned)
        }
        VExpr::Not(inner) => {
            let values = eval(inner, batch, ctx, ctes, scope)?;
            (0..len)
                .map(|i| match values.get(i) {
                    SqlValue::Bool(b) => Ok(SqlValue::Bool(!b)),
                    SqlValue::Null => Ok(SqlValue::Null),
                    other => Err(EngineError::TypeError(format!(
                        "NOT applied to {}",
                        other.type_name()
                    ))),
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Vector::Owned)
        }
        VExpr::Exists(subplan) => (0..len)
            .map(|i| exists_at(subplan, batch, rows.phys(i), ctx, ctes, scope).map(SqlValue::Bool))
            .collect::<Result<Vec<_>, _>>()
            .map(Vector::Owned),
    }
}

// ---------------------------------------------------------------------------
// Incremental (delta) execution
// ---------------------------------------------------------------------------

use crate::delta::StorageDelta;
use crate::kernels::PersistentIndex;

/// A signed columnar batch: the delta flowing between plan nodes. A row's
/// weight is its multiplicity in the change — positive for insertions,
/// negative for retractions — and is indexed by *physical* row, so a filter's
/// selection vector and a renaming projection share the weights as they
/// share the columns. Nothing consolidates a signed batch on the way: equal
/// rows of opposite sign travel side by side until a consumer that keeps
/// state nets them out ([`net_weights`]).
#[derive(Clone)]
struct Signed {
    batch: Batch,
    weights: Arc<Vec<i64>>,
}

impl Signed {
    fn empty() -> Signed {
        Signed {
            batch: Batch {
                schema: Arc::new(Vec::new()),
                columns: Vec::new(),
                sel: None,
                base_rows: 0,
            },
            weights: Arc::new(Vec::new()),
        }
    }

    /// Every row of `batch`, inserted once.
    fn inserted(batch: Batch) -> Signed {
        let weights = Arc::new(vec![1; batch.base_rows]);
        Signed { batch, weights }
    }

    fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// The weight of logical row `i`.
    fn weight(&self, i: usize) -> i64 {
        self.weights[self.batch.rows().phys(i)]
    }

    /// The logical rows that change anything.
    fn changed(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.batch.len()).filter(|&i| self.weight(i) != 0)
    }

    /// The weights by logical row: what a dense batch of the same rows
    /// carries.
    fn logical_weights(&self) -> Arc<Vec<i64>> {
        match &self.batch.sel {
            None => self.weights.clone(),
            Some(sel) => Arc::new(sel.iter().map(|&p| self.weights[p]).collect()),
        }
    }

    /// The non-empty `parts`, appended column by column.
    fn concat(mut parts: Vec<Signed>) -> Signed {
        parts.retain(|p| !p.is_empty());
        if parts.len() <= 1 {
            return parts.pop().unwrap_or_else(Signed::empty);
        }
        let first = &parts[0].batch;
        let columns = (0..first.columns.len())
            .map(|c| Arc::new(parts.iter().flat_map(|p| p.batch.gather(c)).collect()))
            .collect();
        let weights: Vec<i64> = parts
            .iter()
            .flat_map(|p| p.logical_weights().to_vec())
            .collect();
        Signed {
            batch: Batch {
                schema: first.schema.clone(),
                columns,
                sel: None,
                base_rows: weights.len(),
            },
            weights: Arc::new(weights),
        }
    }
}

/// The weights of `d` net of cancelling rows — `keys` are the columns that
/// tell rows apart. A row retracted more often than inserted keeps its
/// deficit at its first occurrence; a surplus of insertions stays where the
/// batch has them, earliest first, so what is appended is appended in batch
/// order. This is the one place weights are consolidated, on the key hashes
/// the consumer needs anyway, and a batch of one sign — every seed, most
/// writes — has nothing to cancel and skips it.
fn net_weights(keys: &Keys<'_>, d: &Signed) -> Result<Vec<i64>, EngineError> {
    let weights: Vec<i64> = (0..keys.len()).map(|i| d.weight(i)).collect();
    if weights.iter().all(|&w| w >= 0) || weights.iter().all(|&w| w <= 0) {
        return Ok(weights);
    }
    let index = KeyIndex::new(keys, NullMode::GroupsWithNull)?;
    let first: Vec<usize> = (0..weights.len())
        .map(|i| index.first_match(keys, i).expect("a row matches itself"))
        .collect();
    let mut sum = vec![0; weights.len()];
    for (&first, w) in first.iter().zip(&weights) {
        sum[first] += w;
    }
    let mut net = vec![0; weights.len()];
    for (i, (&first, &w)) in first.iter().zip(&weights).enumerate() {
        if sum[first] < 0 {
            if i == first {
                net[i] = sum[first];
            }
        } else if w > 0 {
            net[i] = w.min(sum[first]);
            sum[first] -= net[i];
        }
    }
    Ok(net)
}

/// Why a delta pass could not produce an answer: either the plan shape is
/// outside the incremental fragment for this particular write (correlated
/// `EXISTS` over a mutated table, a retraction that finds no row), or a hard
/// execution error.
enum DeltaFail {
    /// Fall back to a full re-seed of this plan; not an error.
    Bail,
    Err(EngineError),
}

impl From<EngineError> for DeltaFail {
    fn from(e: EngineError) -> DeltaFail {
        DeltaFail::Err(e)
    }
}

struct DeltaCtx<'a> {
    vctx: VecCtx<'a>,
    /// The committed write to fold in; `None` while seeding, when every scan
    /// emits its whole table instead.
    delta: Option<&'a StorageDelta>,
}

impl DeltaCtx<'_> {
    /// `exprs` over every row of `d` (stage-level expressions have no
    /// enclosing row: the scope is empty).
    fn eval_all<'b>(
        &self,
        exprs: &[VExpr],
        d: &'b Signed,
        ctes: &CteEnv,
    ) -> Result<Vec<Vector<'b>>, EngineError> {
        eval_all(exprs, &d.batch, &self.vctx, ctes, &ScopeStack::default())
    }
}

/// Per-`With` environment threaded through a delta pass: each definition's
/// delta and, where the body runs correlated subplans, its post-state batch.
#[derive(Default, Clone)]
struct DeltaEnv {
    deltas: Vec<(String, Signed)>,
    materialised: CteEnv,
}

impl DeltaEnv {
    fn delta_of(&self, name: &str) -> Option<&Signed> {
        self.deltas
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
    }
}

/// The rows a stateful operator keeps across writes: shared columns, one
/// slot per stored copy of a row, under a [`PersistentIndex`] over the
/// operator's key. Insertions append, a retraction tombstones the first live
/// copy of its row — the discipline [`Storage::apply_delta`] commits tables
/// with — and a slot stays readable until [`RowStore::compact`] renumbers.
struct RowStore {
    schema: Arc<Vec<SchemaCol>>,
    /// `width` row columns, then one per computed key expression.
    cols: Vec<Arc<Vec<SqlValue>>>,
    width: usize,
    /// The stored columns the index is keyed on.
    key: Vec<usize>,
    /// The key expressions that are not bare column references.
    computed: Vec<VExpr>,
    /// Whole-row hashes, so a retraction walking a long chain of one hot
    /// key compares a word per candidate, not a row.
    row_hash: Vec<u64>,
    nulls: NullMode,
    index: PersistentIndex,
}

/// What [`RowStore::apply`] did: the slots it tombstoned and the slots it
/// appended.
struct Applied {
    retracted: Vec<usize>,
    inserted: std::ops::Range<usize>,
}

/// The stored column each key expression reads: a bare column reference is
/// the row's own column, anything else gets a column past `width` and is
/// added to `computed`.
fn key_columns(keys: &[VExpr], width: usize, computed: &mut Vec<VExpr>) -> Vec<usize> {
    keys.iter()
        .map(|k| match k {
            VExpr::Col { index, .. } => *index,
            other => {
                computed.push(other.clone());
                width + computed.len() - 1
            }
        })
        .collect()
}

impl RowStore {
    fn new(width: usize, key: Vec<usize>, computed: Vec<VExpr>, nulls: NullMode) -> RowStore {
        RowStore {
            schema: Arc::new(Vec::new()),
            cols: (0..width + computed.len())
                .map(|_| Arc::new(Vec::new()))
                .collect(),
            width,
            key,
            computed,
            row_hash: Vec::new(),
            nulls,
            index: PersistentIndex::new(nulls),
        }
    }

    /// A store of `width`-column rows keyed on `keys` under SQL equality.
    fn keyed(width: usize, keys: &[VExpr]) -> RowStore {
        let mut computed = Vec::new();
        let key = key_columns(keys, width, &mut computed);
        RowStore::new(width, key, computed, NullMode::NeverMatches)
    }

    /// A store keyed on the whole row, `NULL`s grouping.
    fn whole(width: usize) -> RowStore {
        let key = (0..width).collect();
        RowStore::new(width, key, Vec::new(), NullMode::GroupsWithNull)
    }

    /// Slots, dead ones included.
    fn len(&self) -> usize {
        self.index.len()
    }

    fn column(&self, c: usize) -> Vector<'_> {
        let rows = Rows::Range {
            start: 0,
            end: self.len(),
        };
        Vector::Col {
            data: &self.cols[c],
            rows,
        }
    }

    fn key_vectors(&self) -> Vec<Vector<'_>> {
        self.key.iter().map(|&c| self.column(c)).collect()
    }

    /// The stored rows as a batch whose physical row is the slot. Shares the
    /// columns: drop it before the next [`RowStore::apply`], or that copies.
    fn view(&self) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.cols[..self.width].to_vec(),
            sel: None,
            base_rows: self.len(),
        }
    }

    /// `(i, slot)` for every probe row `i` of `rows` and every live stored
    /// row whose key equals its: probe order, then ascending slot — the pair
    /// order of [`KeyIndex::join_pairs`].
    fn probe(&self, keys: &Keys<'_>, rows: impl Iterator<Item = usize>) -> Vec<(usize, usize)> {
        let stored = self.key_vectors();
        let mut pairs = Vec::new();
        for i in rows {
            self.index.for_each_match(&stored, keys, i, |slot| {
                pairs.push((i, slot));
                true
            });
        }
        pairs
    }

    /// The first live slot whose key equals that of probe row `i`, under
    /// the store's `NULL` rule. Compares the stored key columns in place.
    fn find(&self, keys: &Keys<'_>, i: usize) -> Option<usize> {
        if self.nulls == NullMode::NeverMatches && keys.hashed.has_null[i] {
            return None;
        }
        let mut found = None;
        self.index
            .for_each_candidate(keys.hashed.hashes[i], |slot| {
                let equal = self
                    .key
                    .iter()
                    .zip(&keys.cols)
                    .all(|(&c, k)| self.cols[c][slot] == *k.get(i));
                if equal {
                    found = Some(slot);
                }
                !equal
            });
        found
    }

    /// Append one copy of logical row `i` of `rows` (the store must be keyed
    /// on the whole row and compute no key).
    fn push(&mut self, rows: &Keys<'_>, i: usize) -> Result<usize, EngineError> {
        for (col, v) in self.cols.iter_mut().zip(&rows.cols) {
            Arc::make_mut(col).push(v.get(i).clone());
        }
        let hash = rows.hashed.hashes[i];
        self.row_hash.push(hash);
        let appended = self
            .index
            .append(std::iter::once((hash, rows.hashed.has_null[i])))?;
        Ok(appended.start)
    }

    /// Fold a signed batch in, net of cancelling rows: retractions first,
    /// each tombstoning the first live copy of its row (none → bail), then
    /// insertions appended in batch order. `keys` are `d`'s key columns
    /// (`None`: the store is keyed on the whole row) and `computed` the
    /// values of [`RowStore::computed`] over `d`. Rows whose key holds a
    /// `NULL` under SQL equality are not stored: nothing can match them.
    fn apply(
        &mut self,
        d: &Signed,
        keys: Option<&Keys<'_>>,
        computed: &[Vector<'_>],
    ) -> Result<Applied, DeltaFail> {
        let n = d.batch.len();
        let rows = Keys::new(d.batch.column_vectors(), n);
        let keys = keys.unwrap_or(&rows);
        let net = net_weights(&rows, d)?;
        let skip_nulls = self.nulls == NullMode::NeverMatches;
        let stored = |i: usize| !(skip_nulls && keys.hashed.has_null[i]);
        self.schema = d.batch.schema.clone();

        let mut retracted = Vec::new();
        for i in (0..n).filter(|&i| net[i] < 0 && stored(i)) {
            for _ in 0..-net[i] {
                let mut found = None;
                self.index
                    .for_each_candidate(keys.hashed.hashes[i], |slot| {
                        let equal = self.row_hash[slot] == rows.hashed.hashes[i]
                            && (0..self.width).all(|c| self.cols[c][slot] == *rows.cols[c].get(i));
                        if equal {
                            found = Some(slot);
                        }
                        !equal
                    });
                let slot = found.ok_or(DeltaFail::Bail)?;
                self.index.tombstone(slot);
                retracted.push(slot);
            }
        }

        let ins: Vec<usize> = (0..n)
            .filter(|&i| net[i] > 0 && stored(i))
            .flat_map(|i| std::iter::repeat_n(i, net[i] as usize))
            .collect();
        let values = rows.cols.iter().chain(computed);
        for (col, v) in self.cols.iter_mut().zip(values) {
            Arc::make_mut(col).extend(ins.iter().map(|&i| v.get(i).clone()));
        }
        self.row_hash
            .extend(ins.iter().map(|&i| rows.hashed.hashes[i]));
        let inserted = self
            .index
            .append(ins.iter().map(|&i| (keys.hashed.hashes[i], false)))?;
        Ok(Applied {
            retracted,
            inserted,
        })
    }

    /// Drop the dead slots once they outnumber the live ones; the surviving
    /// old slots, ascending, are the new slots `0..`.
    fn compact(&mut self) -> Option<Vec<usize>> {
        let kept = self.index.compact()?;
        for col in &mut self.cols {
            *col = Arc::new(kept.iter().map(|&slot| col[slot].clone()).collect());
        }
        self.row_hash = kept.iter().map(|&slot| self.row_hash[slot]).collect();
        Some(kept)
    }
}

/// Weight sums per distinct key: what a hash semi-join's build side keeps
/// instead of rows. An entry lives while its sum is non-zero.
struct Counts {
    rows: RowStore,
    sums: Vec<i64>,
}

impl Counts {
    fn new(width: usize) -> Counts {
        let key = (0..width).collect();
        Counts {
            rows: RowStore::new(width, key, Vec::new(), NullMode::NeverMatches),
            sums: Vec::new(),
        }
    }

    /// The sum of probe row `i`'s key.
    fn get(&self, keys: &Keys<'_>, i: usize) -> i64 {
        self.rows.find(keys, i).map_or(0, |entry| self.sums[entry])
    }

    /// Add `w` to the sum of probe row `i`'s key; returns the sum before.
    fn bump(&mut self, keys: &Keys<'_>, i: usize, w: i64) -> Result<i64, EngineError> {
        let entry = match self.rows.find(keys, i) {
            Some(entry) => entry,
            None => {
                self.sums.push(0);
                self.rows.push(keys, i)?
            }
        };
        let before = self.sums[entry];
        self.sums[entry] += w;
        if self.sums[entry] == 0 {
            self.rows.index.tombstone(entry);
            if let Some(kept) = self.rows.compact() {
                self.sums = kept.iter().map(|&entry| self.sums[entry]).collect();
            }
        }
        Ok(before)
    }
}

/// `ROW_NUMBER` state: the input rows, and per window their rank order and
/// each row's current rank.
struct RankState {
    rows: RowStore,
    /// Per window, the stored columns it orders by.
    specs: Vec<Vec<usize>>,
    /// Per window, the live slots in rank order: key order, ties to the
    /// smaller slot — the input order, since rows are appended.
    order: Vec<Vec<usize>>,
    /// Per window, the rank last emitted for each slot.
    rank: Vec<Vec<i64>>,
}

impl RankState {
    fn new(width: usize, specs: &[Vec<VExpr>]) -> RankState {
        let mut computed = Vec::new();
        let specs: Vec<Vec<usize>> = specs
            .iter()
            .map(|keys| key_columns(keys, width, &mut computed))
            .collect();
        let key = (0..width).collect();
        RankState {
            rows: RowStore::new(width, key, computed, NullMode::GroupsWithNull),
            order: vec![Vec::new(); specs.len()],
            rank: vec![Vec::new(); specs.len()],
            specs,
        }
    }

    /// Fold the input delta in and emit the exact output delta. The inserted
    /// rows are sorted once per window and merged into the cached order
    /// ([`kernels::merge_into_order`]); a surviving row is re-emitted only
    /// if its position in some window moved. Linear in cache + delta, up to
    /// the sort of the delta.
    fn apply(&mut self, din: &Signed, computed: &[Vector<'_>]) -> Result<Signed, DeltaFail> {
        let applied = self.rows.apply(din, None, computed)?;
        let first_new = applied.inserted.start;
        let mut moved: Vec<usize> = Vec::new();
        let mut merged = Vec::with_capacity(self.specs.len());
        for (s, spec) in self.specs.iter().enumerate() {
            let keys: Vec<Vector<'_>> = spec.iter().map(|&c| self.rows.column(c)).collect();
            let new = kernels::sort_rows(&keys, applied.inserted.clone());
            let order = kernels::merge_into_order(&keys, &self.order[s], &new, |slot| {
                self.rows.index.is_live(slot)
            });
            moved.extend(order.iter().enumerate().filter_map(|(at, &slot)| {
                (slot < first_new && self.rank[s][slot] != at as i64 + 1).then_some(slot)
            }));
            merged.push(order);
        }
        moved.sort_unstable();
        moved.dedup();

        // Out with the old ranks, then in with the new ones.
        let mut slots = applied.retracted;
        slots.extend(&moved);
        let retractions = slots.len();
        let ranks_of = |rank: &[i64], slots: &[usize]| -> Vec<SqlValue> {
            slots
                .iter()
                .map(|&slot| SqlValue::Int(rank[slot]))
                .collect()
        };
        let mut ranks: Vec<Vec<SqlValue>> = self.rank.iter().map(|r| ranks_of(r, &slots)).collect();
        for (s, order) in merged.into_iter().enumerate() {
            self.rank[s].resize(self.rows.len(), 0);
            for (at, &slot) in order.iter().enumerate() {
                self.rank[s][slot] = at as i64 + 1;
            }
            self.order[s] = order;
        }
        slots.extend(&moved);
        slots.extend(applied.inserted);
        for (s, column) in ranks.iter_mut().enumerate() {
            column.extend(ranks_of(&self.rank[s], &slots[retractions..]));
        }

        let mut weights = vec![-1; retractions];
        weights.resize(slots.len(), 1);
        let rows = self.rows.view().with_sel(slots).materialised();
        let out = with_rank_columns(rows, ranks.into_iter().map(Arc::new).collect());
        if let Some(kept) = self.rows.compact() {
            let mut renumbered = vec![0; kept.last().map_or(0, |&slot| slot + 1)];
            for (new, &old) in kept.iter().enumerate() {
                renumbered[old] = new;
            }
            for (order, rank) in self.order.iter_mut().zip(&mut self.rank) {
                order.iter_mut().for_each(|slot| *slot = renumbered[*slot]);
                *rank = kept.iter().map(|&slot| rank[slot]).collect();
            }
        }
        Ok(Signed {
            batch: out,
            weights: Arc::new(weights),
        })
    }
}

/// What a plan node keeps between writes.
enum NodeState {
    /// A pure delta transformer: scans, filters, projections, unions, `WITH`.
    None,
    /// Both sides of a hash join — or, keyed on nothing, of a cross product.
    Join {
        left: RowStore,
        right: RowStore,
    },
    /// A hash semi-join's input rows by probe key and build keys by count.
    Semi {
        input: RowStore,
        build: Counts,
    },
    Rank(RankState),
}

impl NodeState {
    fn of(plan: &PhysicalPlan) -> NodeState {
        match plan {
            PhysicalPlan::NestedLoopJoin { left, right } => NodeState::Join {
                left: RowStore::keyed(left.output_width(), &[]),
                right: RowStore::keyed(right.output_width(), &[]),
            },
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
            } => NodeState::Join {
                left: RowStore::keyed(left.output_width(), left_keys),
                right: RowStore::keyed(right.output_width(), right_keys),
            },
            PhysicalPlan::HashSemiJoin {
                input,
                probe_keys,
                build_keys,
                ..
            } => NodeState::Semi {
                input: RowStore::keyed(input.output_width(), probe_keys),
                build: Counts::new(build_keys.len()),
            },
            PhysicalPlan::RowNumber { input, specs } => {
                NodeState::Rank(RankState::new(input.output_width(), specs))
            }
            _ => NodeState::None,
        }
    }
}

/// Per-node static facts, indexed by pre-order position.
#[derive(Default)]
struct NodeInfo {
    /// Pre-order slots this node's subtree occupies (itself included).
    len: usize,
    /// Pre-order index of the node's first structural child (expression
    /// subplans occupy the slots in between).
    first_child: usize,
    /// Every stored table scanned anywhere in the subtree.
    tables: Vec<String>,
    /// Every free `WITH`-bound name the subtree reads.
    free_ctes: Vec<String>,
    /// Does the subtree execute a correlated subplan (exists-semijoin or an
    /// `EXISTS` inside an expression)? Only those read a `WITH` binding's
    /// *materialised* batch, so `With` maintenance binds one only then.
    execs_subplans: bool,
}

fn build_node_info(plan: &PhysicalPlan, acc: &mut Vec<NodeInfo>) {
    let idx = acc.len();
    acc.push(NodeInfo::default());
    for sub in plan.expr_subplans() {
        build_node_info(sub, acc);
    }
    let first_child = acc.len();
    for child in plan.children() {
        build_node_info(child, acc);
    }
    acc[idx] = NodeInfo {
        len: acc.len() - idx,
        first_child,
        tables: plan.referenced_tables().into_iter().collect(),
        free_ctes: plan.free_ctes().into_iter().collect(),
        execs_subplans: plan.nodes().iter().any(|n| {
            matches!(n, PhysicalPlan::ExistsSemiJoin { .. }) || !n.expr_subplans().is_empty()
        }),
    };
}

/// The change one [`DeltaExec::apply`] made to the plan's output, as slots
/// of the executor's columnar output cache ([`DeltaExec::column`]). A
/// retracted slot stays readable until [`DeltaExec::compact`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RootDelta {
    pub retracted: Vec<usize>,
    pub inserted: Vec<usize>,
}

/// The incremental twin of [`execute_plan`]: a `DeltaExec` propagates signed
/// columnar batches (`Signed`) through the plan's operators instead of
/// recomputing them, on the kernels the batch executor runs — `eval`,
/// `select_true`, `project_columns` and `join_gather` for the
/// stateless operators, `kernels::hash_keys` and a `PersistentIndex` for
/// the keyed ones. State lives only where an operator needs its past input
/// (`NodeState`) and at the root, whose columnar cache is the plan's
/// current output.
///
/// [`DeltaExec::seed`] is the same pass with every scan emitting its whole
/// table at weight +1 into empty state — an operator's output delta from
/// nothing is its output — so seeding, maintenance and fallback share one
/// operator algebra. [`DeltaExec::apply`] folds a committed
/// [`StorageDelta`] in: subtrees whose referenced tables (and `WITH`-bound
/// inputs) are untouched are skipped without recursion, and the returned
/// [`RootDelta`] tells the caller exactly which output rows changed. `apply`
/// returns `Ok(None)` when the write falls outside the incremental fragment
/// (a correlated `EXISTS` over a mutated table); the caller re-seeds against
/// post-state storage.
///
/// Determinism: every store is maintained retract-first-occurrence /
/// append-at-end — the discipline `Storage::apply_delta` (`crate::delta`)
/// uses for tables — and chains, pair lists and rank orders are all
/// ascending in slot, so no hash order reaches an output. Two structurally
/// identical subplans (e.g. the shared outer-query CTE of two shredded
/// stages) maintained from identical seeds stay row-for-row identical, so
/// `RowNumber` breaks ties the same way in every stage, which is what keeps
/// cross-stage index joins consistent under maintenance.
pub struct DeltaExec {
    /// Static per-node facts (subtree extent, referenced tables, free CTEs),
    /// computed once at construction so the per-write pass never re-walks
    /// the plan structure.
    info: Vec<NodeInfo>,
    states: Vec<NodeState>,
    /// The plan's current output.
    root: RowStore,
}

impl DeltaExec {
    /// Empty state for a plan; call [`DeltaExec::seed`] before `apply`.
    pub fn new(plan: &PhysicalPlan) -> DeltaExec {
        let mut info = Vec::new();
        build_node_info(plan, &mut info);
        DeltaExec {
            info,
            states: plan.nodes().into_iter().map(NodeState::of).collect(),
            root: RowStore::whole(plan.output_width()),
        }
    }

    /// (Re)build all state from scratch against `storage`.
    pub fn seed(
        &mut self,
        plan: &PhysicalPlan,
        storage: &Storage,
        params: &ParamValues,
    ) -> Result<(), EngineError> {
        self.states = plan.nodes().into_iter().map(NodeState::of).collect();
        self.root = RowStore::whole(plan.output_width());
        match self.pass(plan, storage, params, None) {
            Ok(_) => Ok(()),
            Err(DeltaFail::Err(e)) => Err(e),
            Err(DeltaFail::Bail) => Err(EngineError::TypeError(
                "delta seed pass bailed (internal invariant violated)".to_string(),
            )),
        }
    }

    /// Fold a committed write delta in. `storage` must be the **post-state**
    /// (the delta already applied): incremental operators work off their
    /// state and the delta alone, and the only storage reads are correlated
    /// `EXISTS` subplans over tables the delta provably did not touch (where
    /// pre- and post-state agree).
    ///
    /// Returns the net change of the output, or `None` when the write falls
    /// outside the incremental fragment — the state is then stale, as it is
    /// after an `Err`, and the caller must [`DeltaExec::seed`] again.
    pub fn apply(
        &mut self,
        plan: &PhysicalPlan,
        storage: &Storage,
        params: &ParamValues,
        delta: &StorageDelta,
    ) -> Result<Option<RootDelta>, EngineError> {
        match self.pass(plan, storage, params, Some(delta)) {
            Ok(delta) => Ok(Some(delta)),
            Err(DeltaFail::Bail) => Ok(None),
            Err(DeltaFail::Err(e)) => Err(e),
        }
    }

    fn pass(
        &mut self,
        plan: &PhysicalPlan,
        storage: &Storage,
        params: &ParamValues,
        delta: Option<&StorageDelta>,
    ) -> Result<RootDelta, DeltaFail> {
        let ctx = DeltaCtx {
            vctx: VecCtx {
                storage,
                params,
                prof: None,
            },
            delta,
        };
        let out = self.delta_node(plan, 0, &ctx, &DeltaEnv::default())?;
        if out.is_empty() {
            return Ok(RootDelta::default());
        }
        let applied = self.root.apply(&out, None, &[])?;
        Ok(RootDelta {
            retracted: applied.retracted,
            inserted: applied.inserted.collect(),
        })
    }

    /// Columns of the output cache.
    pub fn width(&self) -> usize {
        self.root.width
    }

    /// Column `c` of the output cache, by slot (dead slots included).
    pub fn column(&self, c: usize) -> &[SqlValue] {
        &self.root.cols[c]
    }

    /// Does `slot` hold a current output row?
    pub fn is_live(&self, slot: usize) -> bool {
        self.root.index.is_live(slot)
    }

    /// The slots of the plan's current output, ascending.
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.root.len()).filter(|&slot| self.is_live(slot))
    }

    /// Drop the output cache's dead slots once they outnumber the live ones.
    /// `true` if slots were renumbered: every slot handed out before is then
    /// void, and [`DeltaExec::live_slots`] lists the new ones.
    pub fn compact(&mut self) -> bool {
        self.root.compact().is_some()
    }

    /// Can the subtree at `idx` be skipped outright for this write? Yes when
    /// none of its scanned tables are touched and every free `WITH`-bound
    /// input it reads has an empty delta. Also doubles as the "is a
    /// correlated subplan safe to evaluate against post-state storage?"
    /// check — the write then provably did not change anything it reads.
    fn can_skip(&self, idx: usize, delta: &StorageDelta, env: &DeltaEnv) -> bool {
        let info = &self.info[idx];
        info.tables.iter().all(|t| !delta.touches(t))
            && info
                .free_ctes
                .iter()
                .all(|n| env.delta_of(n).is_some_and(Signed::is_empty))
    }

    fn delta_node(
        &mut self,
        plan: &PhysicalPlan,
        idx: usize,
        ctx: &DeltaCtx<'_>,
        env: &DeltaEnv,
    ) -> Result<Signed, DeltaFail> {
        if let Some(delta) = ctx.delta {
            if self.can_skip(idx, delta, env) {
                return Ok(Signed::empty());
            }
            // Expression subplans occupy the pre-order slots between this
            // node and its first structural child.
            let mut sub = idx + 1;
            while sub < self.info[idx].first_child {
                if !self.can_skip(sub, delta, env) {
                    return Err(DeltaFail::Bail);
                }
                sub += self.info[sub].len;
            }
        }
        let first = self.info[idx].first_child;
        let second = first + self.info.get(first).map_or(0, |child| child.len);
        let ctes = &env.materialised;
        let scope = ScopeStack::default();
        match plan {
            // Seeding: a leaf is its ordinary execution, every row inserted.
            PhysicalPlan::UnitRow | PhysicalPlan::TableScan { .. } if ctx.delta.is_none() => {
                Ok(Signed::inserted(exec(plan, &ctx.vctx, ctes, &scope)?))
            }
            PhysicalPlan::UnitRow => Ok(Signed::empty()),
            PhysicalPlan::TableScan {
                table,
                alias,
                columns,
                ..
            } => {
                let Some(written) = ctx.delta.and_then(|delta| delta.get(table)) else {
                    return Ok(Signed::empty());
                };
                let schema = columns
                    .iter()
                    .map(|c| (Some(alias.clone()), c.clone()))
                    .collect();
                let rows = written.signed_rows().map(|(row, _)| row.clone()).collect();
                Ok(Signed {
                    batch: Batch::from_rows(Arc::new(schema), rows),
                    weights: Arc::new(written.signed_rows().map(|(_, sign)| sign).collect()),
                })
            }
            PhysicalPlan::CteScan { name, alias, .. } => {
                let bound = env
                    .delta_of(name)
                    .ok_or_else(|| EngineError::UnknownCte(name.clone()))?;
                Ok(Signed {
                    batch: realias(&bound.batch, alias),
                    weights: bound.weights.clone(),
                })
            }
            PhysicalPlan::SubqueryScan { input, alias } => {
                let d = self.delta_node(input, first, ctx, env)?;
                Ok(Signed {
                    batch: realias(&d.batch, alias),
                    weights: d.weights,
                })
            }
            // A cross product is the join on no key.
            PhysicalPlan::NestedLoopJoin { left, right } => {
                let dl = self.delta_node(left, first, ctx, env)?;
                let dr = self.delta_node(right, second, ctx, env)?;
                self.join(idx, &dl, &dr, [&[], &[]], ctx, ctes)
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
            } => {
                let dl = self.delta_node(left, first, ctx, env)?;
                let dr = self.delta_node(right, second, ctx, env)?;
                self.join(idx, &dl, &dr, [left_keys, right_keys], ctx, ctes)
            }
            PhysicalPlan::Filter { input, predicate } => {
                let d = self.delta_node(input, first, ctx, env)?;
                if d.is_empty() {
                    return Ok(d);
                }
                let sel = select_true(predicate, &d.batch, &ctx.vctx, ctes, &scope)?;
                Ok(Signed {
                    batch: d.batch.with_sel(sel),
                    weights: d.weights,
                })
            }
            PhysicalPlan::ExistsSemiJoin {
                input,
                subplan,
                anti,
            } => {
                if ctx
                    .delta
                    .is_some_and(|delta| !self.can_skip(second, delta, env))
                {
                    return Err(DeltaFail::Bail);
                }
                let d = self.delta_node(input, first, ctx, env)?;
                if d.is_empty() {
                    return Ok(d);
                }
                let sel = exists_select(subplan, *anti, &d.batch, &ctx.vctx, ctes, &scope)?;
                Ok(Signed {
                    batch: d.batch.with_sel(sel),
                    weights: d.weights,
                })
            }
            PhysicalPlan::HashSemiJoin {
                input,
                build,
                probe_keys,
                build_keys,
                anti,
            } => {
                let din = self.delta_node(input, first, ctx, env)?;
                let db = self.delta_node(build, second, ctx, env)?;
                self.semi_join(idx, &din, &db, [probe_keys, build_keys], *anti, ctx, ctes)
            }
            PhysicalPlan::RowNumber { input, .. } => {
                let din = self.delta_node(input, first, ctx, env)?;
                if din.is_empty() {
                    return Ok(din);
                }
                let NodeState::Rank(state) = &mut self.states[idx] else {
                    unreachable!("a row-number node keeps rank state");
                };
                let computed = ctx.eval_all(&state.rows.computed, &din, ctes)?;
                state.apply(&din, &computed)
            }
            PhysicalPlan::Project {
                input,
                exprs,
                columns,
            } => {
                let d = self.delta_node(input, first, ctx, env)?;
                if d.is_empty() {
                    return Ok(d);
                }
                if let Some(batch) = project_columns(&d.batch, exprs, columns) {
                    let weights = d.weights;
                    return Ok(Signed { batch, weights });
                }
                let out = ctx
                    .eval_all(exprs, &d, ctes)?
                    .into_iter()
                    .zip(exprs)
                    .map(|(v, e)| {
                        shared_column(&d.batch, e).unwrap_or_else(|| Arc::new(v.into_vec()))
                    })
                    .collect();
                Ok(Signed {
                    batch: projected(columns, out, d.batch.len()),
                    weights: d.logical_weights(),
                })
            }
            PhysicalPlan::UnionAll(branches) => {
                let mut parts = Vec::with_capacity(branches.len());
                let mut at = first;
                for branch in branches {
                    parts.push(self.delta_node(branch, at, ctx, env)?);
                    at += self.info[at].len;
                }
                Ok(Signed::concat(parts))
            }
            PhysicalPlan::With {
                name,
                definition,
                body,
            } => {
                let ddef = self.delta_node(definition, first, ctx, env)?;
                let mut extended = env.clone();
                extended.deltas.push((name.clone(), ddef));
                // Only correlated subplans read a *materialised* binding
                // (delta consumers go through `deltas`): for them, and only
                // for them, the definition is executed on the post-state.
                if self.info[second].execs_subplans {
                    let bound = exec(definition, &ctx.vctx, ctes, &scope)?.materialised();
                    extended.materialised = ctes.extended(name, bound);
                }
                self.delta_node(body, second, ctx, &extended)
            }
        }
    }

    /// Δ(L ⋈ R) = ΔL ⋈ R_old ⊎ L_new ⋈ ΔR, off the node's two stores: ΔL
    /// probes the right one before ΔR is folded in, ΔR the left one after ΔL
    /// was. Each side costs its delta plus its matches, never a scan of the
    /// other side.
    fn join(
        &mut self,
        idx: usize,
        dl: &Signed,
        dr: &Signed,
        [left_keys, right_keys]: [&[VExpr]; 2],
        ctx: &DeltaCtx<'_>,
        ctes: &CteEnv,
    ) -> Result<Signed, DeltaFail> {
        let NodeState::Join { left, right } = &mut self.states[idx] else {
            unreachable!("a join node keeps join state");
        };
        let mut parts = Vec::new();
        if !dl.is_empty() {
            let keys = Keys::new(ctx.eval_all(left_keys, dl, ctes)?, dl.batch.len());
            let pairs = right.probe(&keys, dl.changed());
            if !pairs.is_empty() {
                parts.push(Signed {
                    batch: join_gather(&dl.batch, &right.view(), &pairs),
                    weights: Arc::new(pairs.iter().map(|p| dl.weight(p.0)).collect()),
                });
            }
            let computed = ctx.eval_all(&left.computed, dl, ctes)?;
            left.apply(dl, Some(&keys), &computed)?;
            left.compact();
        }
        if !dr.is_empty() {
            let keys = Keys::new(ctx.eval_all(right_keys, dr, ctes)?, dr.batch.len());
            let pairs: Vec<(usize, usize)> = left
                .probe(&keys, dr.changed())
                .into_iter()
                .map(|(i, slot)| (slot, i))
                .collect();
            if !pairs.is_empty() {
                parts.push(Signed {
                    batch: join_gather(&left.view(), &dr.batch, &pairs),
                    weights: Arc::new(pairs.iter().map(|p| dr.weight(p.1)).collect()),
                });
            }
            let computed = ctx.eval_all(&right.computed, dr, ctes)?;
            right.apply(dr, Some(&keys), &computed)?;
            right.compact();
        }
        Ok(Signed::concat(parts))
    }

    /// Δout = Σ_{keys whose build membership toggled} ±I_old(k)
    ///      ⊎ ΔI probed against K_new:
    /// build toggles meet the input store before ΔI is folded in, ΔI meets
    /// the key counts after ΔB was. Input rows with a `NULL` key are not
    /// stored — their membership never depends on the build side.
    #[allow(clippy::too_many_arguments)]
    fn semi_join(
        &mut self,
        idx: usize,
        din: &Signed,
        db: &Signed,
        [probe_keys, build_keys]: [&[VExpr]; 2],
        anti: bool,
        ctx: &DeltaCtx<'_>,
        ctes: &CteEnv,
    ) -> Result<Signed, DeltaFail> {
        let NodeState::Semi { input, build } = &mut self.states[idx] else {
            unreachable!("a semi-join node keeps semi-join state");
        };
        let mut parts = Vec::new();
        if !db.is_empty() {
            let keys = Keys::new(ctx.eval_all(build_keys, db, ctes)?, db.batch.len());
            let net = net_weights(&keys, db)?;
            let (mut slots, mut weights) = (Vec::new(), Vec::new());
            for i in (0..keys.len()).filter(|&i| net[i] != 0 && !keys.hashed.has_null[i]) {
                let before = build.bump(&keys, i, net[i])?;
                let after = before + net[i];
                if after < 0 {
                    return Err(DeltaFail::Bail);
                }
                if (before > 0) != (after > 0) {
                    let toggled = input.probe(&keys, std::iter::once(i));
                    weights.resize(
                        weights.len() + toggled.len(),
                        if (after > 0) != anti { 1 } else { -1 },
                    );
                    slots.extend(toggled.into_iter().map(|(_, slot)| slot));
                }
            }
            parts.push(Signed {
                batch: input.view().with_sel(slots).materialised(),
                weights: Arc::new(weights),
            });
        }
        if !din.is_empty() {
            let keys = Keys::new(ctx.eval_all(probe_keys, din, ctes)?, din.batch.len());
            let sel = (0..keys.len())
                .filter(|&i| {
                    let matched = !keys.hashed.has_null[i] && build.get(&keys, i) > 0;
                    matched != anti
                })
                .map(|i| din.batch.rows().phys(i))
                .collect();
            parts.push(Signed {
                batch: din.batch.clone().with_sel(sel),
                weights: din.weights.clone(),
            });
            let computed = ctx.eval_all(&input.computed, din, ctes)?;
            input.apply(din, Some(&keys), &computed)?;
            input.compact();
        }
        Ok(Signed::concat(parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr, Query, Select};
    use crate::exec::Engine;
    use crate::storage::{ColumnType, ResultSet, TableDef};
    use crate::value::compare_rows;

    /// A maintained plan's full current output, row-major.
    fn rows(dx: &DeltaExec) -> Vec<Row> {
        let view = dx.root.view();
        dx.live_slots().map(|slot| view.row_at(slot)).collect()
    }

    fn engine() -> Engine {
        let mut storage = Storage::new();
        storage
            .create_table(TableDef::new(
                "nums",
                vec![("n", ColumnType::Int), ("tag", ColumnType::Text)],
            ))
            .unwrap();
        for (n, tag) in [(1, "odd"), (2, "even"), (3, "odd"), (4, "even")] {
            storage
                .insert("nums", vec![SqlValue::Int(n), SqlValue::str(tag)])
                .unwrap();
        }
        Engine::with_storage(storage)
    }

    /// Run a parameter-free plan with the default options.
    fn run(engine: &Engine, plan: &PhysicalPlan) -> Result<ColumnarResult, EngineError> {
        let params = ParamValues::new();
        execute_plan(plan, &engine.storage(), &ExecRequest::new(&params)).map(|e| e.result)
    }

    fn run_both(engine: &Engine, q: &Query) -> (ResultSet, ResultSet) {
        let interpreted = engine.execute_interpreted(q).unwrap();
        let plan = engine.prepare(q).unwrap();
        let vectorized = run(engine, &plan).unwrap().into_result_set();
        (interpreted, vectorized)
    }

    #[test]
    fn scans_filters_and_projections_match_the_interpreter() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("x", "n"), "n")
                .item(
                    Expr::binop(BinOp::Mul, Expr::col("x", "n"), Expr::lit(10)),
                    "n10",
                )
                .from_named("nums", "x")
                .filter(Expr::binop(BinOp::Gt, Expr::col("x", "n"), Expr::lit(1))),
        );
        let (i, v) = run_both(&engine(), &q);
        assert_eq!(i, v);
        assert_eq!(v.rows.len(), 3);
    }

    #[test]
    fn hash_joins_match_the_interpreter() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("a", "n"), "l")
                .item(Expr::col("b", "n"), "r")
                .from_named("nums", "a")
                .from_named("nums", "b")
                .filter(Expr::eq(Expr::col("a", "tag"), Expr::col("b", "tag"))),
        );
        let (i, v) = run_both(&engine(), &q);
        assert_eq!(i.rows.len(), v.rows.len());
        let mut li = i.rows.clone();
        let mut lv = v.rows.clone();
        li.sort_by(|a, b| compare_rows(a, b));
        lv.sort_by(|a, b| compare_rows(a, b));
        assert_eq!(li, lv);
    }

    /// The hash join builds on its smaller input, the right one on a tie,
    /// and emits its pairs in probe order, then in ascending build order.
    /// Duplicate keys on both sides make the two possible orders differ.
    #[test]
    fn hash_joins_build_the_smaller_input_and_the_right_one_on_a_tie() {
        let scan = |table: &str, alias: &str| PhysicalPlan::TableScan {
            table: table.to_string(),
            alias: alias.to_string(),
            columns: vec!["k".to_string(), "s".to_string()],
        };
        let key = |alias: &str| VExpr::Col {
            index: 0,
            alias: Some(alias.to_string()),
            column: "k".to_string(),
        };
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan("l", "a")),
            right: Box::new(scan("r", "b")),
            left_keys: vec![key("a")],
            right_keys: vec![key("b")],
        };
        let q = Query::select(
            Select::new()
                .item(Expr::col("a", "k"), "k")
                .item(Expr::col("a", "s"), "s")
                .item(Expr::col("b", "k"), "k2")
                .item(Expr::col("b", "s"), "s2")
                .from_named("l", "a")
                .from_named("r", "b")
                .filter(Expr::eq(Expr::col("a", "k"), Expr::col("b", "k"))),
        );
        // The join's rows with `build` as the build side: each probe row, in
        // order, meets its matching build rows in ascending order.
        let pairs = |probe: &[Row], build: &[Row], probe_is_left: bool| -> Vec<Row> {
            let mut out = Vec::new();
            for p in probe {
                for b in build.iter().filter(|b| b[0] == p[0]) {
                    let (l, r) = if probe_is_left { (p, b) } else { (b, p) };
                    out.push(l.iter().chain(r).cloned().collect());
                }
            }
            out
        };

        let row = |k: i64, s: &str| vec![SqlValue::Int(k), SqlValue::str(s)];
        let wide = vec![row(1, "a"), row(2, "b"), row(1, "c")];
        let narrow = vec![row(1, "x"), row(1, "y")];
        let even = vec![row(1, "p"), row(1, "q"), row(3, "r")];
        for (left, right, build_right) in [
            (&narrow, &wide, false),
            (&wide, &narrow, true),
            (&wide, &even, true),
        ] {
            let mut storage = Storage::new();
            for (table, rows) in [("l", left), ("r", right)] {
                let def =
                    TableDef::new(table, vec![("k", ColumnType::Int), ("s", ColumnType::Text)]);
                storage.create_table(def).unwrap();
                for row in rows {
                    storage.insert(table, row.clone()).unwrap();
                }
            }
            let engine = Engine::with_storage(storage);
            let got = run(&engine, &plan).unwrap().into_result_set().rows;
            let (expected, other) = if build_right {
                (pairs(left, right, true), pairs(right, left, false))
            } else {
                (pairs(right, left, false), pairs(left, right, true))
            };
            assert_ne!(expected, other, "the fixture tells the two orders apart");
            assert_eq!(got, expected, "build_right = {build_right}");
            let interpreted = engine.execute_interpreted(&q).unwrap().rows;
            assert_eq!(sorted(interpreted), sorted(got));
        }
    }

    #[test]
    fn with_row_number_and_filter_match_the_interpreter() {
        let inner = Select::new()
            .item(Expr::col("x", "tag"), "tag")
            .item(Expr::row_number(vec![Expr::col("x", "n")]), "rank")
            .from_named("nums", "x");
        let outer = Select::new()
            .item(Expr::col("q", "tag"), "tag")
            .from_named("q", "q")
            .filter(Expr::binop(BinOp::Le, Expr::col("q", "rank"), Expr::lit(2)));
        let q = Query::with("q", inner, Query::select(outer));
        let (i, v) = run_both(&engine(), &q);
        assert_eq!(i, v);
    }

    #[test]
    fn correlated_exists_matches_the_interpreter() {
        let sub = Query::select(
            Select::new()
                .item(Expr::lit(1), "one")
                .from_named("nums", "y")
                .filter(Expr::and(
                    Expr::eq(Expr::col("y", "tag"), Expr::col("x", "tag")),
                    Expr::binop(BinOp::Gt, Expr::col("y", "n"), Expr::col("x", "n")),
                )),
        );
        let q = Query::select(
            Select::new()
                .item(Expr::col("x", "n"), "n")
                .from_named("nums", "x")
                .filter(Expr::not(Expr::Exists(Box::new(sub)))),
        );
        let (i, v) = run_both(&engine(), &q);
        assert_eq!(i, v);
        // The largest odd and even numbers survive the anti-join.
        assert_eq!(v.rows.len(), 2);
    }

    #[test]
    fn a_plan_compiled_against_a_different_layout_is_refused() {
        use crate::plan::{plan_query, SchemaCatalog};
        // The plan resolves columns positionally against (n, tag)…
        let stale = SchemaCatalog::new(vec![TableDef::new(
            "nums",
            vec![("tag", ColumnType::Text), ("n", ColumnType::Int)],
        )]);
        let q = Query::select(
            Select::new()
                .item(Expr::col("x", "n"), "n")
                .from_named("nums", "x"),
        );
        let plan = plan_query(&q, &stale).unwrap();
        // …but the engine's table stores (n, tag): refuse, don't transpose.
        let err = run(&engine(), &plan).unwrap_err();
        assert!(
            err.to_string().contains("different") || err.to_string().contains("columns"),
            "got: {}",
            err
        );
    }

    #[test]
    fn select_without_from_yields_one_row() {
        let q = Query::select(Select::new().item(Expr::lit(42), "x"));
        let (i, v) = run_both(&engine(), &q);
        assert_eq!(i, v);
        assert_eq!(v.rows, vec![vec![SqlValue::Int(42)]]);
    }

    // --- delta execution -------------------------------------------------

    use crate::delta::WriteBatch;

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| compare_rows(a, b));
        rows
    }

    /// Seed a `DeltaExec`, commit the batch, maintain, and assert the
    /// maintained rows are multiset-equal to a fresh execution on post-state.
    fn maintain_and_check(engine: &Engine, q: &Query, batch: WriteBatch) {
        let plan = engine.prepare(q).unwrap();
        let params = ParamValues::new();
        let mut dx = DeltaExec::new(&plan);
        dx.seed(&plan, &engine.storage(), &params).unwrap();
        assert_eq!(
            sorted(rows(&dx)),
            sorted(run(engine, &plan).unwrap().into_result_set().rows),
            "seed disagrees with the batch executor"
        );
        let delta = engine.apply_batch(&batch).unwrap();
        let storage = engine.storage();
        match dx.apply(&plan, &storage, &params, &delta).unwrap() {
            Some(_) => {}
            None => dx.seed(&plan, &storage, &params).unwrap(),
        }
        drop(storage);
        assert_eq!(
            sorted(rows(&dx)),
            sorted(run(engine, &plan).unwrap().into_result_set().rows),
            "maintained rows disagree with recompute on post-state"
        );
    }

    #[test]
    fn deltas_through_scans_filters_and_joins_match_recompute() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("a", "n"), "l")
                .item(Expr::col("b", "n"), "r")
                .from_named("nums", "a")
                .from_named("nums", "b")
                .filter(Expr::eq(Expr::col("a", "tag"), Expr::col("b", "tag"))),
        );
        let batch = WriteBatch::new()
            .insert("nums", vec![SqlValue::Int(5), SqlValue::str("odd")])
            .delete("nums", vec![SqlValue::Int(2), SqlValue::str("even")]);
        maintain_and_check(&engine(), &q, batch);
    }

    #[test]
    fn deltas_through_with_row_number_and_filter_match_recompute() {
        let inner = Select::new()
            .item(Expr::col("x", "tag"), "tag")
            .item(Expr::row_number(vec![Expr::col("x", "n")]), "rank")
            .from_named("nums", "x");
        let outer = Select::new()
            .item(Expr::col("q", "tag"), "tag")
            .from_named("q", "q")
            .filter(Expr::binop(BinOp::Le, Expr::col("q", "rank"), Expr::lit(2)));
        let q = Query::with("q", inner, Query::select(outer));
        let batch = WriteBatch::new()
            .insert("nums", vec![SqlValue::Int(0), SqlValue::str("zero")])
            .delete("nums", vec![SqlValue::Int(1), SqlValue::str("odd")]);
        maintain_and_check(&engine(), &q, batch);
    }

    #[test]
    fn a_correlated_exists_over_a_mutated_table_bails_to_reseed() {
        // Correlated through `<`, so the planner keeps the subplan per row.
        let sub = Select::new()
            .item(Expr::lit(1), "one")
            .from_named("nums", "y")
            .filter(Expr::binop(
                BinOp::Lt,
                Expr::col("y", "n"),
                Expr::col("x", "n"),
            ));
        let q = Query::select(
            Select::new()
                .item(Expr::col("x", "n"), "n")
                .from_named("nums", "x")
                .filter(Expr::Exists(Box::new(Query::select(sub)))),
        );
        let engine = engine();
        let plan = engine.prepare(&q).unwrap();
        let params = ParamValues::new();
        let mut dx = DeltaExec::new(&plan);
        dx.seed(&plan, &engine.storage(), &params).unwrap();
        let batch = WriteBatch::new().delete("nums", vec![SqlValue::Int(3), SqlValue::str("odd")]);
        let delta = engine.apply_batch(&batch).unwrap();
        let storage = engine.storage();
        assert!(
            dx.apply(&plan, &storage, &params, &delta)
                .unwrap()
                .is_none(),
            "EXISTS over a mutated table must fall back"
        );
        dx.seed(&plan, &storage, &params).unwrap();
        drop(storage);
        assert_eq!(
            sorted(rows(&dx)),
            sorted(run(&engine, &plan).unwrap().into_result_set().rows)
        );
    }

    #[test]
    fn an_untouched_subtree_is_skipped_without_losing_rows() {
        // Two tables; mutate only one. The scan of the other must be skipped
        // (its cache untouched) while the join output still updates.
        let mut storage = Storage::new();
        storage
            .create_table(TableDef::new(
                "nums",
                vec![("n", ColumnType::Int), ("tag", ColumnType::Text)],
            ))
            .unwrap();
        storage
            .create_table(TableDef::new(
                "labels",
                vec![("tag", ColumnType::Text), ("pretty", ColumnType::Text)],
            ))
            .unwrap();
        for (n, tag) in [(1, "odd"), (2, "even")] {
            storage
                .insert("nums", vec![SqlValue::Int(n), SqlValue::str(tag)])
                .unwrap();
        }
        for (tag, pretty) in [("odd", "Odd"), ("even", "Even")] {
            storage
                .insert("labels", vec![SqlValue::str(tag), SqlValue::str(pretty)])
                .unwrap();
        }
        let engine = Engine::with_storage(storage);
        let q = Query::select(
            Select::new()
                .item(Expr::col("a", "n"), "n")
                .item(Expr::col("b", "pretty"), "pretty")
                .from_named("nums", "a")
                .from_named("labels", "b")
                .filter(Expr::eq(Expr::col("a", "tag"), Expr::col("b", "tag"))),
        );
        let batch = WriteBatch::new().insert("nums", vec![SqlValue::Int(3), SqlValue::str("odd")]);
        maintain_and_check(&engine, &q, batch);
    }

    #[test]
    fn a_net_zero_batch_emits_an_empty_root_delta() {
        let engine = engine();
        let q = Query::select(
            Select::new()
                .item(Expr::col("x", "n"), "n")
                .from_named("nums", "x"),
        );
        let plan = engine.prepare(&q).unwrap();
        let params = ParamValues::new();
        let mut dx = DeltaExec::new(&plan);
        dx.seed(&plan, &engine.storage(), &params).unwrap();
        let batch = WriteBatch::new()
            .delete("nums", vec![SqlValue::Int(1), SqlValue::str("odd")])
            .insert("nums", vec![SqlValue::Int(1), SqlValue::str("odd")]);
        let delta = engine.apply_batch(&batch).unwrap();
        assert!(delta.is_empty());
        let storage = engine.storage();
        let emitted = dx.apply(&plan, &storage, &params, &delta).unwrap();
        assert_eq!(emitted, Some(RootDelta::default()));
    }

    /// Reference ranker: stable sort per window over plain key columns,
    /// ranks appended in input order.
    fn reference_rank(input: &[Row], specs: &[Vec<usize>]) -> Vec<Row> {
        let mut rows = input.to_vec();
        for cols in specs {
            let key = |r: &Row| -> Row { cols.iter().map(|&c| r[c].clone()).collect() };
            let mut order: Vec<usize> = (0..rows.len()).collect();
            order.sort_by(|&a, &b| compare_rows(&key(&input[a]), &key(&input[b])));
            let mut rn = vec![0i64; rows.len()];
            for (number, row_idx) in order.into_iter().enumerate() {
                rn[row_idx] = (number + 1) as i64;
            }
            for (row, n) in rows.iter_mut().zip(rn) {
                row.push(SqlValue::Int(n));
            }
        }
        rows
    }

    fn bag(rows: &[Row]) -> HashMap<Row, i64> {
        let mut m = HashMap::new();
        for r in rows {
            *m.entry(r.clone()).or_insert(0) += 1;
        }
        m
    }

    fn signed(rows: Vec<(Row, i64)>) -> Signed {
        let schema = Arc::new(vec![(None, "a".to_string()), (None, "b".to_string())]);
        let weights = rows.iter().map(|(_, w)| *w).collect();
        Signed {
            batch: Batch::from_rows(schema, rows.into_iter().map(|(r, _)| r).collect()),
            weights: Arc::new(weights),
        }
    }

    /// The maintained output: every live slot's row and current ranks.
    fn ranked(state: &RankState) -> Vec<Row> {
        let view = state.rows.view();
        (0..state.rows.len())
            .filter(|&slot| state.rows.index.is_live(slot))
            .map(|slot| {
                let mut row = view.row_at(slot);
                row.extend(state.rank.iter().map(|r| SqlValue::Int(r[slot])));
                row
            })
            .collect()
    }

    fn rows_of(d: &Signed) -> Vec<(Row, i64)> {
        (0..d.batch.len())
            .map(|i| (d.batch.row_at(d.batch.rows().phys(i)), d.weight(i)))
            .collect()
    }

    /// Apply `din`, then require the state to equal a fresh re-rank of
    /// `input` and the emitted delta to carry the old output to the new.
    fn rank_round(state: &mut RankState, specs: &[Vec<usize>], input: &[Row], din: Signed) {
        let mut before = bag(&ranked(state));
        let Ok(delta) = state.apply(&din, &[]) else {
            panic!("the edit is inside the incremental fragment");
        };
        let expect = reference_rank(input, specs);
        assert_eq!(ranked(state), expect, "state must equal a fresh re-rank");
        for (row, weight) in rows_of(&delta) {
            *before.entry(row).or_insert(0) += weight;
        }
        before.retain(|_, n| *n != 0);
        assert_eq!(before, bag(&expect), "the emitted delta must be exact");
    }

    #[test]
    fn rank_maintenance_matches_reference_under_random_edits() {
        // Deterministic LCG so the mixed retract/insert batches replay.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let col = |index: usize| VExpr::Col {
            index,
            alias: None,
            column: String::new(),
        };
        let specs: Vec<Vec<usize>> = vec![vec![0], vec![1, 0]];
        let mut rank = RankState::new(2, &[vec![col(0)], vec![col(1), col(0)]]);
        // Small key domains force ties, the hard case for rank maintenance.
        let fresh = |next: &mut dyn FnMut() -> i64| -> Row {
            vec![
                SqlValue::Int(next().rem_euclid(5)),
                SqlValue::Int(next().rem_euclid(3)),
            ]
        };
        // The first delta lands on an empty cache: larger than it by any
        // measure.
        let mut input: Vec<Row> = (0..40).map(|_| fresh(&mut next)).collect();
        let seed = input.iter().map(|r| (r.clone(), 1)).collect();
        rank_round(&mut rank, &specs, &input, signed(seed));
        for round in 0..80 {
            let mut din = Vec::new();
            // Retract up to 3 existing rows (first occurrence, as the stores
            // do) and insert up to 3 new ones at the end. Every twentieth
            // round inserts three times what is cached, and the round after
            // retracts half of it — enough dead slots to compact the store.
            let (retracts, inserts) = match round % 20 {
                19 => (0, 3 * input.len() as i64),
                0 if round > 0 => (input.len() as i64 / 2, 0),
                _ => (next().rem_euclid(4), next().rem_euclid(4)),
            };
            for _ in 0..retracts {
                if input.is_empty() {
                    break;
                }
                let victim = input[next().rem_euclid(input.len() as i64) as usize].clone();
                let pos = input.iter().position(|r| *r == victim).unwrap();
                input.remove(pos);
                din.push((victim, -1));
            }
            for _ in 0..inserts {
                // An insert that cancels a retraction of the same batch
                // changes nothing (the storage layer cancels them too).
                let mut row = fresh(&mut next);
                while din.contains(&(row.clone(), -1)) {
                    row = fresh(&mut next);
                }
                input.push(row.clone());
                din.push((row, 1));
            }
            rank_round(&mut rank, &specs, &input, signed(din));
        }
        assert!(
            rank.rows.len() < 3 * input.len(),
            "the store compacts its dead slots away"
        );
    }

    // --- predicates under three-valued logic ------------------------------

    /// Seeded predicate trees — `AND`, `OR` and `NOT` over comparisons of
    /// `Int`, `Str` and `Bool` columns holding `NULL`s, literals, params and
    /// outer references inside a correlated `EXISTS` — run by the vectorized
    /// executor, the interpreter and the SQL-text path over a plain table, a
    /// filter over a filter and a filter over a semi-join, and maintained
    /// through `DeltaExec`.
    mod predicates {
        use super::*;
        use crate::delta::WriteBatch;
        use crate::printer::print_query;

        /// splitmix64, so every case replays.
        struct Rng(u64);

        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }

            fn below(&mut self, n: u64) -> usize {
                (self.next() % n) as usize
            }
        }

        #[derive(Clone, Copy)]
        enum Ty {
            Int,
            Str,
            Bool,
        }

        const TYPES: [Ty; 3] = [Ty::Int, Ty::Str, Ty::Bool];
        const COMPARISONS: [BinOp; 6] = [
            BinOp::Eq,
            BinOp::Neq,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];

        impl Ty {
            /// A value of this type, `NULL` one time in four. Strings come
            /// from a shared pool, so equal cells often share one `Arc`.
            fn value(self, rng: &mut Rng, pool: &[SqlValue]) -> SqlValue {
                if rng.below(4) == 0 {
                    return SqlValue::Null;
                }
                match self {
                    Ty::Int => SqlValue::Int(rng.below(7) as i64 - 2),
                    Ty::Str => pool[rng.below(pool.len() as u64)].clone(),
                    Ty::Bool => SqlValue::Bool(rng.below(2) == 0),
                }
            }

            /// The column of `t` (and, for `Int` and `Str`, of `u`) of this
            /// type.
            fn column(self) -> &'static str {
                match self {
                    Ty::Int => "i",
                    Ty::Str => "s",
                    Ty::Bool => "b",
                }
            }

            fn param(self) -> &'static str {
                match self {
                    Ty::Int => "p_int",
                    Ty::Str => "p_str",
                    Ty::Bool => "p_bool",
                }
            }
        }

        fn pool() -> Vec<SqlValue> {
            ["", "a", "ab", "b", "a string longer than one word"]
                .into_iter()
                .map(SqlValue::str)
                .collect()
        }

        /// `t(k, i, s, b)`: 150 rows, three bitset words with a ragged
        /// tail; `u(i, s)`: 12 rows for `EXISTS` to range over.
        fn predicate_engine(seed: u64) -> Engine {
            let mut rng = Rng(seed);
            let pool = pool();
            let mut storage = Storage::new();
            let t = TableDef::new(
                "t",
                vec![
                    ("k", ColumnType::Int),
                    ("i", ColumnType::Int),
                    ("s", ColumnType::Text),
                    ("b", ColumnType::Bool),
                ],
            );
            let u = TableDef::new("u", vec![("i", ColumnType::Int), ("s", ColumnType::Text)]);
            storage.create_table(t).unwrap();
            storage.create_table(u).unwrap();
            for k in 0..150 {
                let mut row = vec![SqlValue::Int(k)];
                row.extend(TYPES.map(|ty| ty.value(&mut rng, &pool)));
                storage.insert("t", row).unwrap();
            }
            for _ in 0..12 {
                let row = vec![
                    Ty::Int.value(&mut rng, &pool),
                    Ty::Str.value(&mut rng, &pool),
                ];
                storage.insert("u", row).unwrap();
            }
            Engine::with_storage(storage)
        }

        fn params() -> ParamValues {
            [
                ("p_int", SqlValue::Int(1)),
                ("p_str", SqlValue::str("ab")),
                ("p_bool", SqlValue::Bool(false)),
                ("p_null", SqlValue::Null),
            ]
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect()
        }

        /// Generates predicates over `t AS x`.
        struct Gen {
            rng: Rng,
            pool: Vec<SqlValue>,
            /// Columns of `x` are unqualified: the planner then keeps the
            /// conjunct until every relation and semi-join has run.
            bare: bool,
            params: bool,
            exists: bool,
        }

        impl Gen {
            fn new(seed: u64) -> Gen {
                Gen {
                    rng: Rng(seed),
                    pool: pool(),
                    bare: false,
                    params: true,
                    exists: true,
                }
            }

            fn x(&self, column: &str) -> Expr {
                if self.bare {
                    Expr::Column {
                        table: None,
                        column: column.to_string(),
                    }
                } else {
                    Expr::col("x", column)
                }
            }

            /// A tree of depth at most `depth`.
            fn pred(&mut self, depth: usize) -> Expr {
                if depth == 0 || self.rng.below(4) == 0 {
                    return self.leaf();
                }
                match self.rng.below(3) {
                    0 => Expr::and(self.pred(depth - 1), self.pred(depth - 1)),
                    1 => Expr::or(self.pred(depth - 1), self.pred(depth - 1)),
                    _ => Expr::not(self.pred(depth - 1)),
                }
            }

            /// An operand of type `ty` over `x`: a column, a literal (or
            /// `NULL`) or a param.
            fn operand(&mut self, ty: Ty) -> Expr {
                match self.rng.below(if self.params { 4 } else { 3 }) {
                    0 | 1 => self.x(ty.column()),
                    2 => Expr::Literal(ty.value(&mut self.rng, &self.pool)),
                    _ if self.rng.below(5) == 0 => Expr::param("p_null"),
                    _ => Expr::param(ty.param()),
                }
            }

            fn leaf(&mut self) -> Expr {
                match self.rng.below(24) {
                    0..=1 => self.operand(Ty::Bool),
                    2..=3 if self.exists => self.exists(),
                    // A pair of different types: `=` is FALSE, `<>` TRUE.
                    4 => {
                        let op = [BinOp::Eq, BinOp::Neq][self.rng.below(2)];
                        let (l, r) = [("i", "s"), ("s", "b"), ("b", "i")][self.rng.below(3)];
                        Expr::binop(op, self.x(l), self.x(r))
                    }
                    // A non-boolean operand of `AND`: NULL on every row, and
                    // the generic path decides the whole predicate.
                    5 if self.rng.below(4) == 0 => {
                        Expr::and(self.x("i"), Expr::lit(SqlValue::Null))
                    }
                    _ => {
                        let ty = TYPES[self.rng.below(3)];
                        let op = COMPARISONS[self.rng.below(6)];
                        Expr::binop(op, self.operand(ty), self.operand(ty))
                    }
                }
            }

            /// `EXISTS` over `u AS y`, correlated through comparisons of
            /// `y`'s columns with `x`'s.
            fn exists(&mut self) -> Expr {
                let mut conjuncts = Vec::new();
                for _ in 0..1 + self.rng.below(2) {
                    let ty = [Ty::Int, Ty::Str][self.rng.below(2)];
                    let op = COMPARISONS[self.rng.below(6)];
                    let outer = Expr::col("x", ty.column());
                    let inner = match self.rng.below(3) {
                        0 => Expr::Literal(ty.value(&mut self.rng, &self.pool)),
                        _ => Expr::col("y", ty.column()),
                    };
                    let cmp = Expr::binop(op, inner, outer);
                    conjuncts.push(if self.rng.below(4) == 0 {
                        Expr::not(cmp)
                    } else {
                        cmp
                    });
                }
                let sub = Select::new()
                    .item(Expr::lit(1), "one")
                    .from_named("u", "y")
                    .filter(Expr::conj(conjuncts));
                Expr::Exists(Box::new(Query::select(sub)))
            }
        }

        fn over_t(predicate: Expr) -> Query {
            Query::select(
                Select::new()
                    .item(Expr::col("x", "k"), "k")
                    .from_named("t", "x")
                    .filter(predicate),
            )
        }

        /// Does a `Filter` of `plan` read the output of a node `below`
        /// accepts?
        fn filters_over(plan: &PhysicalPlan, below: fn(&PhysicalPlan) -> bool) -> bool {
            plan.nodes().iter().any(|node| match node {
                PhysicalPlan::Filter { input, .. } => below(input),
                _ => false,
            })
        }

        /// The vectorized executor, the interpreter and — for a query
        /// without params — the SQL text agree on `q`'s bag of rows.
        fn assert_agree(engine: &Engine, q: &Query, params: &ParamValues) {
            let text = print_query(q);
            let vectorized = engine.execute_bound(q, params);
            let interpreted = engine.execute_interpreted_bound(q, params);
            let (Ok(v), Ok(i)) = (vectorized, interpreted) else {
                panic!("{text}: an error on a well-typed predicate");
            };
            let v = v.into_result_set();
            assert_eq!(v.columns, i.columns, "{text}");
            assert_eq!(sorted(v.rows.clone()), sorted(i.rows), "{text}");
            if params.is_empty() {
                let parsed = engine.execute_sql(&text).unwrap();
                assert_eq!(sorted(parsed.rows), sorted(v.rows), "{text}: SQL text");
            }
        }

        #[test]
        fn predicates_agree_with_the_interpreter_under_three_valued_logic() {
            let engine = predicate_engine(5);
            let params = params();
            let no_params = ParamValues::new();
            let is_filter = |p: &PhysicalPlan| matches!(p, PhysicalPlan::Filter { .. });
            let is_semi = |p: &PhysicalPlan| matches!(p, PhysicalPlan::HashSemiJoin { .. });
            let mut over_semi = 0;
            for seed in 0..200 {
                let mut gen = Gen::new(seed);
                // A plain table, with and without params.
                gen.params = seed % 2 == 0;
                let q = over_t(gen.pred(4));
                assert_agree(&engine, &q, if gen.params { &params } else { &no_params });

                // A filter over a filter: two conjuncts over `x` alone.
                (gen.params, gen.exists) = (true, false);
                let q = over_t(Expr::and(gen.pred(3), gen.pred(3)));
                assert!(filters_over(&engine.prepare(&q).unwrap(), is_filter));
                assert_agree(&engine, &q, &params);

                // A filter over a semi-join: the bare conjunct waits for the
                // decorrelated `EXISTS`.
                (gen.bare, gen.exists) = (true, true);
                let semi = Select::new()
                    .item(Expr::lit(1), "one")
                    .from_named("u", "y")
                    .filter(Expr::eq(Expr::col("y", "s"), Expr::col("x", "s")));
                let semi = Expr::Exists(Box::new(Query::select(semi)));
                let q = over_t(Expr::and(semi, gen.pred(3)));
                over_semi += usize::from(filters_over(&engine.prepare(&q).unwrap(), is_semi));
                assert_agree(&engine, &q, &params);
            }
            // The rest read no column of `x` bare, or are semi-joins too.
            assert!(over_semi > 100, "{over_semi} of 200 filter a semi-join");
        }

        #[test]
        fn a_mixed_type_ordering_is_an_error_on_both_executors() {
            let engine = predicate_engine(5);
            let params = params();
            let x = |c: &str| Expr::col("x", c);
            for predicate in [
                Expr::binop(BinOp::Lt, x("i"), x("s")),
                Expr::binop(BinOp::Ge, x("s"), Expr::param("p_int")),
                Expr::binop(BinOp::Gt, Expr::lit(true), x("i")),
                Expr::not(Expr::binop(BinOp::Le, x("b"), x("s"))),
                Expr::or(x("b"), Expr::binop(BinOp::Lt, x("i"), Expr::lit("a"))),
                // A non-boolean operand where a boolean is required (under
                // `OR`: a top-level `AND` is split into conjuncts).
                Expr::or(Expr::and(x("i"), x("b")), x("b")),
                Expr::not(x("s")),
            ] {
                let q = over_t(predicate);
                let text = print_query(&q);
                assert!(
                    engine.execute_bound(&q, &params).is_err(),
                    "{text}: vectorized"
                );
                assert!(
                    engine.execute_interpreted_bound(&q, &params).is_err(),
                    "{text}: interpreted"
                );
            }
        }

        #[test]
        fn filters_maintained_through_delta_exec_match_recompute() {
            let pool = pool();
            for seed in 0..40 {
                let engine = predicate_engine(seed);
                let mut gen = Gen::new(1000 + seed);
                gen.params = false;
                let q = over_t(gen.pred(4));
                let mut rng = Rng(seed);
                let mut batch = WriteBatch::new();
                for k in 0..1 + rng.below(4) as i64 {
                    let victim = engine.storage().table("t").unwrap().rows[k as usize * 7].clone();
                    batch = batch.delete("t", victim);
                    let mut row = vec![SqlValue::Int(1000 + k)];
                    row.extend(TYPES.map(|ty| ty.value(&mut rng, &pool)));
                    batch = batch.insert("t", row);
                }
                maintain_and_check(&engine, &q, batch);
            }
        }
    }
}
