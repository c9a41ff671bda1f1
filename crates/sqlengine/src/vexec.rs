//! Vectorized execution of [`PhysicalPlan`] trees over columnar batches:
//! the one operator walk of the engine.
//!
//! Where the interpreter in [`crate::exec`] walks the AST row by row —
//! cloning a scope frame per joined row combination — this executor runs a
//! pre-compiled plan over a columnar representation:
//!
//! * a [`Batch`] holds one `Vec<SqlValue>` per column, shared by `Arc` so
//!   table scans and CTE references are zero-copy and batches are
//!   `Send + Sync` (plans execute against a storage read guard — the only
//!   interior state is each table's version-stamped columnar cell — so any
//!   number of threads can run plans over one engine),
//! * filters and sorts produce **selection vectors** instead of moving data,
//! * expressions are evaluated column-at-a-time into borrowed [`Vector`]s
//!   ([`VExpr::Col`] is a resolved position read in place, a literal stays
//!   one value — no name lookup and no copy per row),
//! * keyed operators (joins, semi-joins, `DISTINCT`, `EXCEPT ALL`, sorting)
//!   run on the key kernels of [`crate::kernels`],
//! * only joins, computed projections and row-numbering materialise new
//!   columns.
//!
//! There is one walk ([`exec`]) and one entry point ([`execute_plan`]). Each
//! operator runs its kernel either once over the whole batch or morsel by
//! morsel on the execution's worker pool ([`crate::par`]), choosing from the
//! row count it actually sees ([`VecCtx::engage`]); an execution with
//! `workers(1)`, or of a plan too small to fan out, has no pool and is the
//! same walk on the calling thread.
//!
//! Correlated subqueries (`EXISTS`, semi/anti joins) necessarily fall back to
//! one subplan execution per outer row; the row's values are pushed as a
//! scope frame that the subplan's [`VExpr::Outer`] references resolve
//! against, mirroring the interpreter's correlation semantics exactly. The
//! interpreter remains the executable oracle this module is differentially
//! tested against (see `tests/vexec_differential.rs`).

use crate::error::EngineError;
use crate::exec::eval_binop;
use crate::kernels::{self, Rows, Vector};
use crate::par::{
    par_eval_all, par_index, par_join_gather, par_keys, par_materialise, par_ranges, par_sort,
    ExecOptions, ExecStats, Pool, PAR_SUBPLAN_ROWS,
};
use crate::plan::{BuildSide, OpActuals, PhysicalPlan, VExpr};
use crate::storage::{ColumnarResult, Storage};
use crate::value::{compare_rows, ParamValues, Row, SqlValue};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
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
    /// Worker count, morsel size and the small-plan gate.
    pub opts: ExecOptions,
}

impl<'a> ExecRequest<'a> {
    /// A request with `params` bound and the defaults for everything else:
    /// no pre-bound CTEs, no profiling, one worker.
    pub fn new(params: &'a ParamValues) -> ExecRequest<'a> {
        ExecRequest {
            params,
            ctes: &[],
            profile: false,
            opts: ExecOptions::default(),
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
    /// What the worker pool dispatched; all zero when the execution ran
    /// without one.
    pub stats: ExecStats,
}

/// Execute a physical plan against storage: the engine's one plan-execution
/// function.
pub fn execute_plan(
    plan: &PhysicalPlan,
    storage: &Storage,
    req: &ExecRequest<'_>,
) -> Result<Execution, EngineError> {
    let pool = Pool::for_plan(plan, storage, req.opts);
    let prof = req.profile.then(|| Profiler::new(plan));
    let ctx = VecCtx {
        storage,
        params: req.params,
        prof: prof.as_ref(),
        pool: pool.as_ref(),
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
        stats: pool.map(Pool::into_stats).unwrap_or_default(),
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
/// one plan tree). The cells are atomics (relaxed ordering — the counters
/// are independent tallies, reconciled after all workers join) so one
/// profiler is shared by every worker of an execution's pool: concurrent
/// batches aggregate their counts instead of racing on a per-node
/// accumulator.
pub(crate) struct Profiler {
    ids: HashMap<usize, usize>,
    cells: Vec<ProfCell>,
}

#[derive(Default)]
struct ProfCell {
    batches: AtomicU64,
    rows_out: AtomicU64,
    nanos: AtomicU64,
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
    /// inclusive wall time. Safe to call from any worker thread.
    pub(crate) fn record(&self, plan: &PhysicalPlan, rows_out: u64, nanos: u64) {
        if let Some(&id) = self.ids.get(&(plan as *const PhysicalPlan as usize)) {
            let cell = &self.cells[id];
            cell.batches.fetch_add(1, AtomicOrdering::Relaxed);
            cell.rows_out.fetch_add(rows_out, AtomicOrdering::Relaxed);
            cell.nanos.fetch_add(nanos, AtomicOrdering::Relaxed);
        }
    }

    /// Assemble the per-node [`OpActuals`] for the plan this profiler was
    /// built from, in pre-order node index order.
    pub(crate) fn actuals(&self, plan: &PhysicalPlan) -> Vec<OpActuals> {
        let nodes = plan.nodes();
        let rows_out: Vec<u64> = self
            .cells
            .iter()
            .map(|c| c.rows_out.load(AtomicOrdering::Relaxed))
            .collect();
        nodes
            .iter()
            .enumerate()
            .map(|(i, node)| OpActuals {
                batches: self.cells[i].batches.load(AtomicOrdering::Relaxed),
                // Actual input rows = what the direct children actually
                // produced (every child execution is triggered by this node).
                rows_in: node
                    .children()
                    .iter()
                    .map(|ch| rows_out[self.ids[&(*ch as *const PhysicalPlan as usize)]])
                    .sum(),
                rows_out: rows_out[i],
                nanos: self.cells[i].nanos.load(AtomicOrdering::Relaxed),
            })
            .collect()
    }
}

/// One column of a batch schema: binding alias (absent after projection) and
/// column name.
pub(crate) type SchemaCol = (Option<String>, String);

/// A columnar batch: a schema, shared column vectors and an optional
/// selection vector picking the live rows.
#[derive(Debug, Clone)]
pub struct Batch {
    pub(crate) schema: Arc<Vec<SchemaCol>>,
    pub(crate) columns: Vec<Arc<Vec<SqlValue>>>,
    pub(crate) sel: Option<Arc<Vec<usize>>>,
    /// Number of physical rows in `columns` (needed explicitly because a
    /// batch may have zero columns but a positive row count).
    pub(crate) base_rows: usize,
}

impl Batch {
    /// Number of live (selected) rows.
    pub fn len(&self) -> usize {
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

    /// Every column as a key vector over the live rows (the key of
    /// `DISTINCT` and `EXCEPT ALL` is the whole row).
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

    /// Rebuild a batch from explicit rows (used by the set operations).
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
    /// The execution's worker pool; `None` is the pool of one — every
    /// operator takes its whole batch on the calling thread.
    pub(crate) pool: Option<&'a Pool>,
}

impl<'a> VecCtx<'a> {
    /// An unprofiled context without a pool, for callers outside the walk
    /// that run correlated subplans through it (the delta executor).
    fn unpooled(storage: &'a Storage, params: &'a ParamValues) -> VecCtx<'a> {
        VecCtx {
            storage,
            params,
            prof: None,
            pool: None,
        }
    }

    /// This context with the pool taken away: what morsel bodies and
    /// correlated subplans re-enter the walk with, since they already run
    /// on a worker (or once per outer row) and must not fan out again.
    pub(crate) fn sequential(&self) -> VecCtx<'a> {
        VecCtx {
            pool: None,
            ..*self
        }
    }

    /// The pool, if an operator over `len` rows should fan out on it: only
    /// when there is one and the input does not fit in a single morsel.
    pub(crate) fn engage(&self, len: usize) -> Option<&'a Pool> {
        self.pool.filter(|p| len > p.morsel_rows)
    }
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

/// The operator walk. Every operator body is a kernel (of this module or of
/// [`crate::kernels`]) run through a `par_*` helper, which takes the pool
/// when the operator's input engages it and runs the kernel once over the
/// whole batch otherwise; morsel bodies evaluate under `seq`.
fn exec_node(
    plan: &PhysicalPlan,
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Batch, EngineError> {
    let seq = ctx.sequential();
    match plan {
        PhysicalPlan::UnitRow => Ok(Batch {
            schema: Arc::new(Vec::new()),
            columns: Vec::new(),
            sel: None,
            base_rows: 1,
        }),
        // Scans are zero-copy `Arc` clones, so the parallelism lives in the
        // operators that consume them.
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
            let pairs = cross_pairs(l.len(), r.len());
            par_join_gather(ctx.engage(pairs.len()), &l, &r, &pairs)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            build,
        } => {
            let l = exec(left, ctx, ctes, scope)?;
            let r = exec(right, ctx, ctes, scope)?;
            let pool = ctx.engage(l.len()).or(ctx.engage(r.len()));
            let lk = par_keys(pool, par_eval_all(ctx, left_keys, &l, ctes, scope)?, &l)?;
            let rk = par_keys(pool, par_eval_all(ctx, right_keys, &r, ctes, scope)?, &r)?;
            let (build_keys, probe_keys, probe_is_left) = match build {
                BuildSide::Right => (&rk, &lk, true),
                BuildSide::Left => (&lk, &rk, false),
            };
            let index = par_index(pool, build_keys)?;
            let pairs = par_ranges(pool, probe_keys.len(), |range| {
                Ok(index.join_pairs(probe_keys, range, probe_is_left))
            })?;
            par_join_gather(ctx.engage(pairs.len()), &l, &r, &pairs)
        }
        PhysicalPlan::Filter { input, predicate } => {
            let batch = exec(input, ctx, ctes, scope)?;
            let sel = par_ranges(ctx.engage(batch.len()), batch.len(), |range| {
                let rows = batch.rows().slice(range);
                select_true(predicate, &batch, rows, &seq, ctes, scope)
            })?;
            Ok(batch.with_sel(sel))
        }
        PhysicalPlan::ExistsSemiJoin {
            input,
            subplan,
            anti,
        } => {
            let batch = exec(input, ctx, ctes, scope)?;
            // Per-row subplan execution dominates, so fan out well below
            // one morsel's worth of rows.
            let pool = ctx.pool.filter(|_| batch.len() >= PAR_SUBPLAN_ROWS);
            let sel = par_ranges(pool, batch.len(), |range| {
                let rows = batch.rows().slice(range);
                exists_select(subplan, *anti, &batch, rows, &seq, ctes, scope)
            })?;
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
            // holds no references to the input's rows), and its index is
            // shared read-only by every probe morsel.
            let built = exec(build, ctx, ctes, scope)?;
            let pool = ctx.engage(batch.len()).or(ctx.engage(built.len()));
            let sel = {
                let bk = par_eval_all(ctx, build_keys, &built, ctes, scope)?;
                let bk = par_keys(pool, bk, &built)?;
                let pk = par_eval_all(ctx, probe_keys, &batch, ctes, scope)?;
                let pk = par_keys(pool, pk, &batch)?;
                let index = par_index(pool, &bk)?;
                par_ranges(pool, pk.len(), |range| {
                    Ok(index.semi_select(&pk, range, *anti, batch.rows()))
                })?
            };
            Ok(batch.with_sel(sel))
        }
        PhysicalPlan::RowNumber { input, specs } => {
            // Ties in a window's keys are broken by the batch's row order
            // (stable sort), which may differ from the interpreter's join
            // order when the planner chose a different build side — the same
            // latitude PostgreSQL has for tied ROW_NUMBER keys. The shredding
            // translation only numbers over key columns that uniquely
            // identify rows, so its stages are never affected.
            let batch = exec(input, ctx, ctes, scope)?;
            let pool = ctx.engage(batch.len());
            let batch = par_materialise(pool, batch)?;
            let ranks = specs
                .iter()
                .map(|keys| {
                    let keys = par_eval_all(ctx, keys, &batch, ctes, scope)?;
                    Ok(rank_column(&par_sort(pool, &keys, batch.len())?))
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            Ok(with_rank_columns(batch, ranks))
        }
        PhysicalPlan::Sort { input, keys } => {
            let batch = exec(input, ctx, ctes, scope)?;
            let keys = par_eval_all(ctx, keys, &batch, ctes, scope)?;
            let order = par_sort(ctx.engage(batch.len()), &keys, batch.len())?;
            let sel = phys_rows(&batch, order);
            Ok(batch.with_sel(sel))
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
            let out = par_eval_all(ctx, exprs, &batch, ctes, scope)?
                .into_iter()
                .zip(exprs)
                .map(|(v, e)| shared_column(&batch, e).unwrap_or_else(|| Arc::new(v.into_vec())))
                .collect();
            Ok(projected(columns, out, batch.len()))
        }
        PhysicalPlan::Distinct { input } => {
            // Pipeline breaker: rows hash morsel by morsel, but the
            // first-occurrence scan is inherently ordered and stays on one
            // thread.
            let batch = exec(input, ctx, ctes, scope)?;
            let keys = par_keys(ctx.engage(batch.len()), batch.column_vectors(), &batch)?;
            let sel = phys_rows(&batch, kernels::distinct_rows(&keys)?);
            Ok(batch.with_sel(sel))
        }
        PhysicalPlan::UnionAll(branches) => union_all(branches, ctx, ctes, scope),
        PhysicalPlan::ExceptAll { left, right } => {
            let l = exec(left, ctx, ctes, scope)?;
            let r = exec(right, ctx, ctes, scope)?;
            let kept = kernels::except_all_rows(
                &par_keys(ctx.engage(l.len()), l.column_vectors(), &l)?,
                &par_keys(ctx.engage(r.len()), r.column_vectors(), &r)?,
            )?;
            let sel = phys_rows(&l, kept);
            Ok(l.with_sel(sel))
        }
        PhysicalPlan::With {
            name,
            definition,
            body,
        } => {
            // Compact once here, so no `CteScan` of the binding gathers or
            // reads through a selection.
            let bound = exec(definition, ctx, ctes, scope)?;
            let bound = par_materialise(ctx.engage(bound.len()), bound)?;
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

/// The physical rows of the given logical rows of `batch`.
fn phys_rows(batch: &Batch, logical: Vec<usize>) -> Vec<usize> {
    match &batch.sel {
        None => logical,
        Some(sel) => logical.into_iter().map(|i| sel[i]).collect(),
    }
}

/// One output column of a join: `column` of `side` at the side's rows of
/// `pairs` (`pick` chooses the pair component).
pub(crate) fn gather_pairs(
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

/// The schema of a join's output: the left columns, then the right ones.
pub(crate) fn joined_schema(left: &Batch, right: &Batch) -> Arc<Vec<SchemaCol>> {
    let mut schema = left.schema.as_ref().clone();
    schema.extend(right.schema.iter().cloned());
    Arc::new(schema)
}

/// Materialise the concatenation of two batches at the given row pairs.
pub(crate) fn join_gather(left: &Batch, right: &Batch, pairs: &[(usize, usize)]) -> Batch {
    let columns = (0..left.columns.len())
        .map(|c| gather_pairs(left, c, pairs, |p| p.0))
        .chain((0..right.columns.len()).map(|c| gather_pairs(right, c, pairs, |p| p.1)))
        .collect();
    Batch {
        schema: joined_schema(left, right),
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

/// The selection of a correlated semi (`anti`: anti) join over `rows` of
/// `batch`: the subplan runs once per row, the row pushed as a scope frame.
fn exists_select(
    subplan: &PhysicalPlan,
    anti: bool,
    batch: &Batch,
    rows: Rows<'_>,
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Vec<usize>, EngineError> {
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

/// The physical rows of `rows` on which `predicate` is `TRUE` — a filter's
/// selection vector, without a boolean column in between.
fn select_true(
    predicate: &VExpr,
    batch: &Batch,
    rows: Rows<'_>,
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Vec<usize>, EngineError> {
    let mut sel = Vec::new();
    match predicate {
        VExpr::BinOp { op, left, right } => {
            let l = eval(left, batch, rows, ctx, ctes, scope)?;
            let r = eval(right, batch, rows, ctx, ctes, scope)?;
            for i in 0..rows.len() {
                if eval_binop(*op, l.get(i), r.get(i))?.as_bool() == Some(true) {
                    sel.push(rows.phys(i));
                }
            }
        }
        other => {
            let values = eval(other, batch, rows, ctx, ctes, scope)?;
            for i in 0..rows.len() {
                if values.get(i).as_bool() == Some(true) {
                    sel.push(rows.phys(i));
                }
            }
        }
    }
    Ok(sel)
}

/// Column-at-a-time expression evaluation over `rows` of `batch`: a column
/// reference borrows the column, a literal, parameter or outer reference
/// stays one value, and only an operator computes a new vector.
pub(crate) fn eval<'a>(
    expr: &VExpr,
    batch: &'a Batch,
    rows: Rows<'a>,
    ctx: &VecCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Vector<'a>, EngineError> {
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
            let l = eval(left, batch, rows, ctx, ctes, scope)?;
            let r = eval(right, batch, rows, ctx, ctes, scope)?;
            (0..len)
                .map(|i| eval_binop(*op, l.get(i), r.get(i)))
                .collect::<Result<Vec<_>, _>>()
                .map(Vector::Owned)
        }
        VExpr::Not(inner) => {
            let values = eval(inner, batch, rows, ctx, ctes, scope)?;
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

/// A signed row multiset: the delta flowing between plan operators.
/// Multiplicity is by repetition; signs are ±1 after normalisation
/// (retractions first, then insertions, in first-mention order).
pub type DeltaRows = Vec<(Row, i64)>;

/// Why a delta pass could not produce an answer: either the plan shape is
/// outside the incremental fragment for this particular write (correlated
/// `EXISTS` over a mutated table), or a hard execution error.
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

#[derive(Clone, Copy, PartialEq)]
enum DeltaMode {
    /// Build every operator cache from scratch: table scans emit the full
    /// stored content as insertions against empty caches, so one code path
    /// serves both initial materialisation and maintenance.
    Seed,
    /// Propagate a committed [`StorageDelta`] through the cached operators.
    Incremental,
}

struct DeltaCtx<'a> {
    storage: &'a Storage,
    params: &'a ParamValues,
    mode: DeltaMode,
    delta: &'a StorageDelta,
}

/// Per-`With` environment threaded through a delta pass: the definition's
/// delta, its batch schema, and a materialised post-state batch for
/// correlated subplans executed via the ordinary executor.
#[derive(Default, Clone)]
struct DeltaEnv {
    deltas: Vec<(String, DeltaRows)>,
    schemas: Vec<(String, Arc<Vec<SchemaCol>>)>,
    materialised: CteEnv,
}

impl DeltaEnv {
    fn delta_of(&self, name: &str) -> Option<&DeltaRows> {
        self.deltas
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
    }
}

/// The incremental twin of [`execute_plan`]: a `DeltaExec` keeps one
/// cached output row multiset per plan node (indexed by the node's pre-order
/// position in [`PhysicalPlan::nodes`]) and propagates signed row deltas
/// through the operators instead of recomputing them.
///
/// [`DeltaExec::seed`] populates the caches from scratch — it is the same
/// delta pass run in a mode where table scans emit their full stored content
/// as insertions, so seeding, maintenance and fallback share one operator
/// algebra. [`DeltaExec::apply`] then folds a committed [`StorageDelta`] in:
/// subtrees whose referenced tables (and `WITH`-bound inputs) are untouched
/// are skipped without recursion, and the root's emitted delta tells the
/// caller exactly which output rows changed. `apply` returns `Ok(None)` when
/// the write falls outside the incremental fragment (a correlated `EXISTS`
/// over a mutated table); the caller re-seeds against post-state storage —
/// correct by construction, since seeding is the same algebra.
///
/// Determinism: caches are maintained retract-first-occurrence /
/// append-at-end — the same discipline [`Storage::apply_delta`]
/// (`crate::delta`) uses for tables — and no operator lets hash-map
/// iteration order reach its output, so two structurally identical subplans
/// (e.g. the shared outer-query CTE of two shredded stages) maintained from
/// identical seeds stay row-for-row identical. Window numbering
/// (`RowNumber`) therefore assigns the same ranks in every stage, which is
/// what keeps cross-stage index joins consistent under maintenance.
pub struct DeltaExec {
    caches: Vec<Vec<Row>>,
    /// Static per-node facts (subtree extent, referenced tables, free CTEs),
    /// computed once at construction so the per-write pass never re-walks
    /// the plan structure.
    info: Vec<NodeInfo>,
    /// Lazily memoised output schema per node (schemas are static for a
    /// fixed plan — the `WITH` bindings visible at a node never change).
    schemas: Vec<Option<Arc<Vec<SchemaCol>>>>,
    /// Set by an operator arm that installed its own cache contents (e.g.
    /// `RowNumber` keeping its cache in rank order); tells [`delta_node`] to
    /// skip the generic retract/append cache fold for that node.
    cache_replaced: bool,
    /// Per-`HashJoin`-node persistent hash indexes (one per side, keyed by
    /// the join key values), maintained incrementally from the same deltas
    /// as the row caches. A delta probes the *other* side's index instead of
    /// scanning its full cached rows, so a small write costs O(delta ×
    /// matches) rather than O(cache).
    join_index: Vec<Option<JoinIndex>>,
}

/// The two sides' hash indexes of one `HashJoin` node. Bucket order is
/// insertion order with first-occurrence removal — the same discipline as
/// the row caches — so probe output stays deterministic.
#[derive(Default)]
struct JoinIndex {
    left: HashMap<Row, Vec<Row>>,
    right: HashMap<Row, Vec<Row>>,
}

impl JoinIndex {
    /// Fold one signed row into a side's index; `Err` when a retraction
    /// misses (the write is outside the incremental fragment).
    fn fold(
        side: &mut HashMap<Row, Vec<Row>>,
        key: Row,
        row: &Row,
        sign: i64,
    ) -> Result<(), DeltaFail> {
        if sign > 0 {
            side.entry(key).or_default().push(row.clone());
            return Ok(());
        }
        let missed = match side.get_mut(&key) {
            Some(bucket) => match bucket.iter().position(|r| r == row) {
                Some(at) => {
                    bucket.remove(at);
                    if bucket.is_empty() {
                        side.remove(&key);
                    }
                    false
                }
                None => true,
            },
            None => true,
        };
        if missed {
            return Err(DeltaFail::Bail);
        }
        Ok(())
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
    /// `EXISTS` inside an expression)? Only those consult a `WITH` binding's
    /// *materialised* batch, so `With` maintenance skips materialisation
    /// when this is false.
    execs_subplans: bool,
    /// Is this node's cache read during *incremental* maintenance? Most
    /// operators are pure delta transformers — only caches somebody actually
    /// consults (the root's output, rank and bag-difference state, the sides
    /// of non-indexed joins, materialised `WITH` definitions) are worth the
    /// per-write retraction sweep; the rest go stale until the next seed,
    /// which rebuilds every cache anyway.
    live_cache: bool,
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
        execs_subplans: plan_execs_subplans(plan),
        live_cache: false,
    };
}

/// Mark the node caches that incremental maintenance actually reads (see
/// [`NodeInfo::live_cache`]). Mirrors `delta_op`'s consumers exactly:
/// anything unmarked is never consulted between seeds.
fn mark_live_caches(plan: &PhysicalPlan, idx: usize, info: &mut [NodeInfo]) {
    let child_idx = info[idx].first_child;
    match plan {
        PhysicalPlan::NestedLoopJoin { .. } => {
            // Δ(L × R) joins each side's delta against the other's cache.
            info[child_idx].live_cache = true;
            let right_idx = child_idx + info[child_idx].len;
            info[right_idx].live_cache = true;
        }
        PhysicalPlan::RowNumber { specs, .. } => {
            info[idx].live_cache = true;
            if all_col_specs(specs).is_none() {
                // The interpreter fallback re-ranks the full input.
                info[child_idx].live_cache = true;
            }
        }
        PhysicalPlan::Distinct { .. } => {
            // Multiplicity recovery reads the child's post-delta rows.
            info[child_idx].live_cache = true;
        }
        PhysicalPlan::ExceptAll { .. } => {
            // The bag difference is replayed from both children in full.
            info[idx].live_cache = true;
            info[child_idx].live_cache = true;
            let right_idx = child_idx + info[child_idx].len;
            info[right_idx].live_cache = true;
        }
        PhysicalPlan::With { .. } => {
            let body_idx = child_idx + info[child_idx].len;
            if info[body_idx].execs_subplans {
                // Correlated subplans in the body read the materialised
                // definition.
                info[child_idx].live_cache = true;
            }
        }
        _ => {}
    }
    let mut at = child_idx;
    for child in plan.children() {
        mark_live_caches(child, at, info);
        at += info[at].len;
    }
}

impl DeltaExec {
    /// Empty caches for a plan; call [`DeltaExec::seed`] before `apply`.
    pub fn new(plan: &PhysicalPlan) -> DeltaExec {
        let mut info = Vec::new();
        build_node_info(plan, &mut info);
        mark_live_caches(plan, 0, &mut info);
        // The root's cache is the public output ([`DeltaExec::rows`]).
        info[0].live_cache = true;
        let n = info.len();
        DeltaExec {
            caches: vec![Vec::new(); n],
            info,
            schemas: vec![None; n],
            cache_replaced: false,
            join_index: (0..n).map(|_| None).collect(),
        }
    }

    /// (Re)build every operator cache from scratch against `storage`. The
    /// root cache afterwards holds the plan's full output (row-major).
    pub fn seed(
        &mut self,
        plan: &PhysicalPlan,
        storage: &Storage,
        params: &ParamValues,
    ) -> Result<(), EngineError> {
        for cache in &mut self.caches {
            cache.clear();
        }
        for index in &mut self.join_index {
            *index = None;
        }
        let empty = StorageDelta::default();
        let ctx = DeltaCtx {
            storage,
            params,
            mode: DeltaMode::Seed,
            delta: &empty,
        };
        match self.delta_node(plan, 0, &ctx, &DeltaEnv::default()) {
            Ok(_) => Ok(()),
            Err(DeltaFail::Err(e)) => Err(e),
            Err(DeltaFail::Bail) => Err(EngineError::TypeError(
                "delta seed pass bailed (internal invariant violated)".to_string(),
            )),
        }
    }

    /// Fold a committed write delta into the caches. `storage` must be the
    /// **post-state** (the delta already applied): incremental operators
    /// work off their caches and the delta alone, and the only storage reads
    /// are correlated `EXISTS` subplans over tables the delta provably did
    /// not touch (where pre- and post-state agree).
    ///
    /// Returns the root's normalised output delta, or `None` when the write
    /// falls outside the incremental fragment — the caches are then stale
    /// and the caller must [`DeltaExec::seed`] again.
    pub fn apply(
        &mut self,
        plan: &PhysicalPlan,
        storage: &Storage,
        params: &ParamValues,
        delta: &StorageDelta,
    ) -> Result<Option<DeltaRows>, EngineError> {
        let ctx = DeltaCtx {
            storage,
            params,
            mode: DeltaMode::Incremental,
            delta,
        };
        match self.delta_node(plan, 0, &ctx, &DeltaEnv::default()) {
            Ok(delta) => Ok(Some(delta)),
            Err(DeltaFail::Bail) => Ok(None),
            Err(DeltaFail::Err(e)) => Err(e),
        }
    }

    /// The plan's full current output: the root node's cache.
    pub fn rows(&self) -> &[Row] {
        &self.caches[0]
    }

    /// Can the subtree at `idx` be skipped outright for this write? Yes when
    /// none of its scanned tables are touched and every free `WITH`-bound
    /// input it reads has an empty delta. Also doubles as the "is a
    /// correlated subplan safe to evaluate against post-state storage?"
    /// check — the write then provably did not change anything it reads.
    fn can_skip(&self, idx: usize, ctx: &DeltaCtx<'_>, env: &DeltaEnv) -> bool {
        let info = &self.info[idx];
        info.tables.iter().all(|t| !ctx.delta.touches(t))
            && info
                .free_ctes
                .iter()
                .all(|n| env.delta_of(n).is_some_and(Vec::is_empty))
    }

    fn delta_node(
        &mut self,
        plan: &PhysicalPlan,
        idx: usize,
        ctx: &DeltaCtx<'_>,
        env: &DeltaEnv,
    ) -> Result<DeltaRows, DeltaFail> {
        if ctx.mode == DeltaMode::Incremental {
            if self.can_skip(idx, ctx, env) {
                return Ok(Vec::new());
            }
            // Expression subplans occupy the pre-order slots between this
            // node and its first structural child.
            let mut sub = idx + 1;
            while sub < self.info[idx].first_child {
                if !self.can_skip(sub, ctx, env) {
                    return Err(DeltaFail::Bail);
                }
                sub += self.info[sub].len;
            }
        }
        // Operators that install their cache contents themselves (rank and
        // bag-difference nodes, whose caches are kept in *output* order) set
        // `cache_replaced`; everyone else gets the generic signed-delta
        // cache update.
        self.cache_replaced = false;
        let raw = self.delta_op(plan, idx, ctx, env)?;
        let replaced = std::mem::take(&mut self.cache_replaced);
        let delta = normalise_delta(raw);
        // Seeding fills every cache (the seed pass reads them as it goes);
        // afterwards only the caches some operator actually consults are
        // kept current.
        if !replaced && (ctx.mode == DeltaMode::Seed || self.info[idx].live_cache) {
            self.update_cache(idx, &delta)?;
        }
        Ok(delta)
    }

    fn delta_op(
        &mut self,
        plan: &PhysicalPlan,
        idx: usize,
        ctx: &DeltaCtx<'_>,
        env: &DeltaEnv,
    ) -> Result<DeltaRows, DeltaFail> {
        let child_idx = self.info[idx].first_child;
        match plan {
            PhysicalPlan::UnitRow => Ok(match ctx.mode {
                DeltaMode::Seed => vec![(Vec::new(), 1)],
                DeltaMode::Incremental => Vec::new(),
            }),
            PhysicalPlan::TableScan { table, columns, .. } => match ctx.mode {
                DeltaMode::Seed => {
                    let table = ctx.storage.table(table)?;
                    let names = table.def.column_names();
                    if names != *columns {
                        return Err(EngineError::TypeError(format!(
                            "physical plan for table {} was compiled against columns ({}) \
                             but storage has ({})",
                            table.def.name,
                            columns.join(", "),
                            names.join(", ")
                        ))
                        .into());
                    }
                    Ok(table.rows.iter().map(|r| (r.clone(), 1)).collect())
                }
                DeltaMode::Incremental => Ok(ctx
                    .delta
                    .get(table)
                    .map(|d| d.signed_rows().map(|(r, s)| (r.clone(), s)).collect())
                    .unwrap_or_default()),
            },
            PhysicalPlan::CteScan { name, .. } => Ok(env
                .delta_of(name)
                .ok_or_else(|| EngineError::UnknownCte(name.clone()))?
                .clone()),
            PhysicalPlan::SubqueryScan { input, .. } => self.delta_node(input, child_idx, ctx, env),
            PhysicalPlan::NestedLoopJoin { left, right } => {
                let right_idx = child_idx + self.info[child_idx].len;
                let mut out = Vec::new();
                // Δ(L × R) = ΔL × R_old ⊎ L_new × ΔR: joining each delta
                // against the *other* side's cache as it stands at that
                // point in the pass needs no pre-recursion snapshot clones.
                let dl = self.delta_node(left, child_idx, ctx, env)?;
                for (l, sl) in &dl {
                    for r in &self.caches[right_idx] {
                        out.push((concat_rows(l, r), *sl));
                    }
                }
                let dr = self.delta_node(right, right_idx, ctx, env)?;
                for l in &self.caches[child_idx] {
                    for (r, sr) in &dr {
                        out.push((concat_rows(l, r), *sr));
                    }
                }
                Ok(out)
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                ..
            } => {
                let right_idx = child_idx + self.info[child_idx].len;
                let left_schema = self.node_schema(left, child_idx, env)?;
                let right_schema = self.node_schema(right, right_idx, env)?;
                let mut out = Vec::new();
                // Δ(L ⋈ R) = ΔL ⋈ R_old ⊎ L_new ⋈ ΔR, off the node's two
                // persistent hash indexes: ΔL probes the right index before
                // ΔR is folded in (so it sees R_old), ΔR probes the left
                // index after ΔL was folded (so it sees L_new). A small
                // write therefore costs O(delta × matches), never a scan of
                // the cached side.
                let dl = self.delta_node(left, child_idx, ctx, env)?;
                let index = self.join_index[idx].get_or_insert_with(JoinIndex::default);
                for (l, sl) in &dl {
                    let Some(key) = row_key(left_keys, l, &left_schema, ctx, env)? else {
                        continue;
                    };
                    if let Some(bucket) = index.right.get(&key) {
                        for r in bucket {
                            out.push((concat_rows(l, r), *sl));
                        }
                    }
                    JoinIndex::fold(&mut index.left, key, l, *sl)?;
                }
                let dr = self.delta_node(right, right_idx, ctx, env)?;
                let index = self.join_index[idx]
                    .as_mut()
                    .expect("join index initialised above");
                for (r, sr) in &dr {
                    let Some(key) = row_key(right_keys, r, &right_schema, ctx, env)? else {
                        continue;
                    };
                    if let Some(bucket) = index.left.get(&key) {
                        for l in bucket {
                            out.push((concat_rows(l, r), *sr));
                        }
                    }
                    JoinIndex::fold(&mut index.right, key, r, *sr)?;
                }
                Ok(out)
            }
            PhysicalPlan::Filter { input, predicate } => {
                let schema = self.node_schema(input, child_idx, env)?;
                let din = self.delta_node(input, child_idx, ctx, env)?;
                let mut out = Vec::new();
                for (row, sign) in din {
                    if eval_row(predicate, &row, &schema, ctx, env)?.as_bool() == Some(true) {
                        out.push((row, sign));
                    }
                }
                Ok(out)
            }
            PhysicalPlan::ExistsSemiJoin {
                input,
                subplan,
                anti,
            } => {
                let subplan_idx = child_idx + self.info[child_idx].len;
                if ctx.mode == DeltaMode::Incremental && !self.can_skip(subplan_idx, ctx, env) {
                    return Err(DeltaFail::Bail);
                }
                let schema = self.node_schema(input, child_idx, env)?;
                let din = self.delta_node(input, child_idx, ctx, env)?;
                let vctx = VecCtx::unpooled(ctx.storage, ctx.params);
                let mut out = Vec::new();
                for (row, sign) in din {
                    let frame = ScopeFrame {
                        schema: schema.clone(),
                        values: row.clone(),
                    };
                    let inner = exec(
                        subplan,
                        &vctx,
                        &env.materialised,
                        &ScopeStack::default().pushed(frame),
                    )?;
                    if inner.is_empty() == *anti {
                        out.push((row, sign));
                    }
                }
                Ok(out)
            }
            PhysicalPlan::HashSemiJoin {
                input,
                build,
                probe_keys,
                build_keys,
                anti,
            } => {
                // Fully incremental — this is what moves decorrelated
                // Q2-shaped stages out of the reseed-on-every-write path.
                // The node keeps a `JoinIndex`: `left` holds the input rows
                // by probe key (NULL-keyed rows excluded — their membership
                // never depends on the build side), `right` the build rows
                // by build key. Δout decomposes as
                //   Δout = Σ_{keys whose build membership toggled} ±I_old(k)
                //        ⊎ ΔI probed against K_new,
                // processing build toggles against the *pre-ΔI* input index
                // and the input delta against the *post-ΔB* key set.
                let build_idx = child_idx + self.info[child_idx].len;
                let din = self.delta_node(input, child_idx, ctx, env)?;
                let db = self.delta_node(build, build_idx, ctx, env)?;
                let input_schema = self.node_schema(input, child_idx, env)?;
                let build_schema = self.node_schema(build, build_idx, env)?;
                let mut out = Vec::new();
                let semi_sign = if *anti { -1 } else { 1 };
                let index = self.join_index[idx].get_or_insert_with(JoinIndex::default);
                for (brow, sign) in &db {
                    let Some(key) = row_key(build_keys, brow, &build_schema, ctx, env)? else {
                        continue;
                    };
                    let present_before = index.right.contains_key(&key);
                    JoinIndex::fold(&mut index.right, key.clone(), brow, *sign)?;
                    let present_after = index.right.contains_key(&key);
                    if present_before != present_after {
                        if let Some(bucket) = index.left.get(&key) {
                            let toggle = if present_after { 1 } else { -1 } * semi_sign;
                            for irow in bucket {
                                out.push((irow.clone(), toggle));
                            }
                        }
                    }
                }
                for (irow, sign) in &din {
                    let key = row_key(probe_keys, irow, &input_schema, ctx, env)?;
                    let matched = key.as_ref().is_some_and(|k| index.right.contains_key(k));
                    if matched != *anti {
                        out.push((irow.clone(), *sign));
                    }
                    if let Some(key) = key {
                        JoinIndex::fold(&mut index.left, key, irow, *sign)?;
                    }
                }
                Ok(out)
            }
            PhysicalPlan::RowNumber { input, specs } => {
                let schema = self.node_schema(input, child_idx, env)?;
                let din = self.delta_node(input, child_idx, ctx, env)?;
                if din.is_empty() {
                    return Ok(Vec::new());
                }
                // The common shredded shape orders each window by plain
                // columns; ranks then shift only where sorted positions
                // move, so the cached output can be patched in place from
                // the input delta alone — no re-sort, no full-output clone.
                if ctx.mode == DeltaMode::Incremental {
                    if let Some(col_specs) = all_col_specs(specs) {
                        let delta = incremental_rank(&mut self.caches[idx], &col_specs, &din)?;
                        self.cache_replaced = true;
                        return Ok(delta);
                    }
                }
                let new_out = rank_rows(&self.caches[child_idx], specs, &schema, ctx, env)?;
                let delta = positional_diff(&new_out, &self.caches[idx]);
                // Replace the cache with the freshly ranked output instead
                // of letting the generic retract/append pass disorder it:
                // `positional_diff` only stays O(change) while the cache
                // mirrors the input order it is diffed against.
                self.caches[idx] = new_out;
                self.cache_replaced = true;
                Ok(delta)
            }
            PhysicalPlan::Sort { input, .. } => {
                // Bag semantics downstream: a sort re-orders, never changes
                // membership, so its delta is its input's.
                self.delta_node(input, child_idx, ctx, env)
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                let schema = self.node_schema(input, child_idx, env)?;
                let din = self.delta_node(input, child_idx, ctx, env)?;
                let mut out = Vec::with_capacity(din.len());
                for (row, sign) in din {
                    let projected = exprs
                        .iter()
                        .map(|e| eval_row(e, &row, &schema, ctx, env))
                        .collect::<Result<Row, _>>()?;
                    out.push((projected, sign));
                }
                Ok(out)
            }
            PhysicalPlan::Distinct { input } => {
                let din = self.delta_node(input, child_idx, ctx, env)?;
                // Pre-delta multiplicities of just the rows the delta
                // mentions, recovered from the already-updated child cache
                // (old = new − net delta) — no full-input clone or hash.
                let mut counts: HashMap<Row, i64> = HashMap::new();
                for (row, _) in &din {
                    if !counts.contains_key(row) {
                        let new_count =
                            self.caches[child_idx].iter().filter(|r| *r == row).count() as i64;
                        let net: i64 = din
                            .iter()
                            .filter(|(r, _)| r == row)
                            .map(|(_, sign)| *sign)
                            .sum();
                        counts.insert(row.clone(), new_count - net);
                    }
                }
                let mut out = Vec::new();
                for (row, sign) in din {
                    let count = counts.entry(row.clone()).or_insert(0);
                    let before = *count;
                    *count += sign;
                    if before == 0 && *count > 0 {
                        out.push((row, 1));
                    } else if before > 0 && *count == 0 {
                        out.push((row, -1));
                    }
                }
                Ok(out)
            }
            PhysicalPlan::UnionAll(branches) => {
                let mut out = Vec::new();
                let mut at = child_idx;
                for branch in branches {
                    out.extend(self.delta_node(branch, at, ctx, env)?);
                    at += self.info[at].len;
                }
                Ok(out)
            }
            PhysicalPlan::ExceptAll { left, right } => {
                let right_idx = child_idx + self.info[child_idx].len;
                let dl = self.delta_node(left, child_idx, ctx, env)?;
                let dr = self.delta_node(right, right_idx, ctx, env)?;
                if dl.is_empty() && dr.is_empty() {
                    return Ok(Vec::new());
                }
                let new_out = bag_difference(&self.caches[child_idx], &self.caches[right_idx]);
                let delta = positional_diff(&new_out, &self.caches[idx]);
                self.caches[idx] = new_out;
                self.cache_replaced = true;
                Ok(delta)
            }
            PhysicalPlan::With {
                name,
                definition,
                body,
            } => {
                let body_idx = child_idx + self.info[child_idx].len;
                let ddef = self.delta_node(definition, child_idx, ctx, env)?;
                let def_schema = self.node_schema(definition, child_idx, env)?;
                let mut extended = env.clone();
                extended.deltas.push((name.clone(), ddef));
                extended.schemas.push((name.clone(), def_schema.clone()));
                // Only correlated subplans read a *materialised* binding
                // (delta consumers go through `deltas`); skip the full
                // clone-and-transpose of the definition cache unless the
                // body actually executes one.
                if self.info[body_idx].execs_subplans {
                    let bound = Batch::from_rows(def_schema, self.caches[child_idx].clone());
                    extended.materialised = env.materialised.extended(name, bound);
                }
                self.delta_node(body, body_idx, ctx, &extended)
            }
        }
    }

    /// The batch schema a node's output rows carry (the static twin of the
    /// schemas [`exec_node`] constructs), used to build correlation frames
    /// for `EXISTS` subplans. Memoised per node: for a fixed plan, the
    /// `WITH` bindings visible at a node — and hence its schema — never
    /// change across passes.
    fn node_schema(
        &mut self,
        plan: &PhysicalPlan,
        idx: usize,
        env: &DeltaEnv,
    ) -> Result<Arc<Vec<SchemaCol>>, DeltaFail> {
        if let Some(schema) = &self.schemas[idx] {
            return Ok(Arc::clone(schema));
        }
        let schema = batch_schema(plan, &env.schemas)?;
        self.schemas[idx] = Some(Arc::clone(&schema));
        Ok(schema)
    }

    /// Fold a normalised delta into a node cache: retractions remove the
    /// first matching row, insertions append. A retraction that misses the
    /// cache signals a write outside the incremental fragment → bail.
    ///
    /// Retractions are applied in one mark-and-sweep pass (first occurrences
    /// win, matching `Storage::apply_delta`), so a delta with many
    /// retractions costs O(cache + delta) instead of one linear scan per
    /// retracted row.
    fn update_cache(&mut self, idx: usize, delta: &DeltaRows) -> Result<(), DeltaFail> {
        let mut pending: Vec<&Row> = delta
            .iter()
            .filter(|(_, sign)| *sign < 0)
            .map(|(row, _)| row)
            .collect();
        if pending.len() <= 8 {
            // The common small write: match retractions by fast-fail row
            // equality instead of hashing every cached row.
            if !pending.is_empty() {
                self.caches[idx].retain(|r| match pending.iter().position(|p| *p == r) {
                    Some(i) => {
                        pending.swap_remove(i);
                        false
                    }
                    None => true,
                });
                if !pending.is_empty() {
                    return Err(DeltaFail::Bail);
                }
            }
        } else {
            let mut counts: HashMap<&Row, i64> = HashMap::new();
            for row in &pending {
                *counts.entry(row).or_insert(0) += 1;
            }
            let mut outstanding = pending.len() as i64;
            self.caches[idx].retain(|r| match counts.get_mut(r) {
                Some(c) if *c > 0 => {
                    *c -= 1;
                    outstanding -= 1;
                    false
                }
                _ => true,
            });
            if outstanding > 0 {
                return Err(DeltaFail::Bail);
            }
        }
        for (row, sign) in delta {
            if *sign > 0 {
                self.caches[idx].push(row.clone());
            }
        }
        Ok(())
    }
}

/// Does any node of this subtree execute a correlated subplan (an
/// exists-semijoin or an `EXISTS` inside an expression)? Only those consult
/// a `WITH` binding's *materialised* batch — every other consumer works off
/// the binding's delta — so `With` maintenance can skip materialisation
/// when this is false.
fn plan_execs_subplans(plan: &PhysicalPlan) -> bool {
    plan.nodes()
        .iter()
        .any(|n| matches!(n, PhysicalPlan::ExistsSemiJoin { .. }) || !n.expr_subplans().is_empty())
}

/// Positional diff of a recomputed output against the cached one: skip the
/// longest common prefix and suffix, retract the remaining old rows, insert
/// the remaining new rows. Multiset-equivalent to a full two-sided diff, but
/// the localised edits rank recomputation produces (one row changed, a
/// shifted tail) cost O(change) instead of O(output) rows — and only the
/// changed middle is ever cloned.
fn positional_diff(new: &[Row], old: &[Row]) -> DeltaRows {
    let mut start = 0;
    while start < new.len() && start < old.len() && new[start] == old[start] {
        start += 1;
    }
    let mut old_end = old.len();
    let mut new_end = new.len();
    while old_end > start && new_end > start && old[old_end - 1] == new[new_end - 1] {
        old_end -= 1;
        new_end -= 1;
    }
    let mut out: DeltaRows = old[start..old_end]
        .iter()
        .map(|r| (r.clone(), -1))
        .collect();
    out.extend(new[start..new_end].iter().map(|r| (r.clone(), 1)));
    out
}

/// Cancel opposite-signed mentions of the same row and order the result
/// retractions-first (each with unit sign), in first-mention order — the
/// shape [`DeltaExec::update_cache`] consumes.
fn normalise_delta(rows: DeltaRows) -> DeltaRows {
    let mut order: Vec<(Row, i64)> = Vec::new();
    let mut index: HashMap<Row, usize> = HashMap::new();
    for (row, sign) in rows {
        match index.get(&row) {
            Some(&i) => order[i].1 += sign,
            None => {
                index.insert(row.clone(), order.len());
                order.push((row, sign));
            }
        }
    }
    let mut out = Vec::new();
    for (row, net) in &order {
        for _ in 0..(-net).max(0) {
            out.push((row.clone(), -1));
        }
    }
    for (row, net) in order {
        for _ in 0..net.max(0) {
            out.push((row.clone(), 1));
        }
    }
    out
}

/// Concatenate two rows (the join output shape).
fn concat_rows(l: &Row, r: &Row) -> Row {
    let mut out = Vec::with_capacity(l.len() + r.len());
    out.extend_from_slice(l);
    out.extend_from_slice(r);
    out
}

/// Evaluate join keys over one row; `None` when any key value is `NULL`
/// (`NULL` never joins, matching the batch executor).
fn row_key(
    keys: &[VExpr],
    row: &Row,
    schema: &Arc<Vec<SchemaCol>>,
    ctx: &DeltaCtx<'_>,
    env: &DeltaEnv,
) -> Result<Option<Row>, DeltaFail> {
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        let v = eval_row(k, row, schema, ctx, env)?;
        if v.is_null() {
            return Ok(None);
        }
        out.push(v);
    }
    Ok(Some(out))
}

/// When every window spec orders by plain columns, the per-spec key column
/// indices; `None` as soon as any key needs the expression interpreter.
fn all_col_specs(specs: &[Vec<VExpr>]) -> Option<Vec<Vec<usize>>> {
    specs
        .iter()
        .map(|keys| {
            keys.iter()
                .map(|k| match k {
                    VExpr::Col { index, .. } => Some(*index),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// Compare two rows on a window's key columns (both rows carry the input
/// columns in their prefix).
fn cmp_keys(a: &[SqlValue], b: &[SqlValue], cols: &[usize]) -> Ordering {
    for &c in cols {
        let ord = a[c].sql_cmp(&b[c]);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Patch a `RowNumber` node's cached output in place from its input delta,
/// returning the exact signed output delta.
///
/// The cache holds `input row ++ one rank column per spec`, aligned with the
/// child cache's row order (both are maintained retract-first-occurrence /
/// append-at-end from the same seeds). A rank only changes when a retraction
/// or insertion lands strictly before the row in a window's sort order —
/// with ties broken by input order, exactly the comparator `rank_rows`
/// numbers by — so one pass over the cache computes every shifted rank:
/// O(cache × delta) cheap key comparisons, cloning only the rows that
/// actually change.
fn incremental_rank(
    cache: &mut Vec<Row>,
    specs: &[Vec<usize>],
    din: &DeltaRows,
) -> Result<DeltaRows, DeltaFail> {
    let nspecs = specs.len();
    let mut retr: Vec<&Row> = Vec::new();
    let mut ins: Vec<&Row> = Vec::new();
    for (row, sign) in din {
        if *sign < 0 {
            retr.push(row);
        } else {
            ins.push(row);
        }
    }
    let arity = cache
        .first()
        .map(|r| r.len() - nspecs)
        .unwrap_or_else(|| ins.first().map(|r| r.len()).unwrap_or(0));
    // First-occurrence positions of the retracted input rows (matching the
    // discipline the child cache was updated with).
    let mut retr_pos: Vec<Option<usize>> = vec![None; retr.len()];
    let mut consumed = vec![false; retr.len()];
    for (pos, row) in cache.iter().enumerate() {
        for (ri, r) in retr.iter().enumerate() {
            if !consumed[ri] && row[..arity] == r[..] {
                consumed[ri] = true;
                retr_pos[ri] = Some(pos);
                break;
            }
        }
    }
    if consumed.iter().any(|c| !c) {
        return Err(DeltaFail::Bail);
    }
    let retracted: HashSet<usize> = retr_pos.iter().map(|p| p.expect("consumed")).collect();
    let mut retractions: DeltaRows = Vec::new();
    let mut insertions: DeltaRows = Vec::new();
    // For each insertion and spec, how many surviving rows sort before it
    // (ties go to the survivor: appended rows are last in input order).
    let mut ins_before: Vec<Vec<i64>> = vec![vec![0; nspecs]; ins.len()];
    for (pos, row) in cache.iter_mut().enumerate() {
        if retracted.contains(&pos) {
            retractions.push((row.clone(), -1));
            continue;
        }
        let mut adj = vec![0i64; nspecs];
        let mut changed = false;
        for (s, cols) in specs.iter().enumerate() {
            for r in &ins {
                if cmp_keys(r, row, cols) == Ordering::Less {
                    adj[s] += 1;
                }
            }
            for (ri, r) in retr.iter().enumerate() {
                match cmp_keys(r, row, cols) {
                    Ordering::Less => adj[s] -= 1,
                    // An equal-keyed retraction shifts this row only if it
                    // preceded it in input order.
                    Ordering::Equal if retr_pos[ri].expect("consumed") < pos => adj[s] -= 1,
                    _ => {}
                }
            }
            for (i, r) in ins.iter().enumerate() {
                if cmp_keys(row, r, cols) != Ordering::Greater {
                    ins_before[i][s] += 1;
                }
            }
            changed |= adj[s] != 0;
        }
        if changed {
            retractions.push((row.clone(), -1));
            for (s, a) in adj.iter().enumerate() {
                if let SqlValue::Int(n) = &mut row[arity + s] {
                    *n += a;
                }
            }
            insertions.push((row.clone(), 1));
        }
    }
    // Drop the retracted rows, then append the inserted ones with their
    // ranks: survivors before them, plus earlier-appended peers.
    let mut pos = 0;
    cache.retain(|_| {
        let keep = !retracted.contains(&pos);
        pos += 1;
        keep
    });
    for (i, r) in ins.iter().enumerate() {
        let mut row: Row = (*r).clone();
        for (s, cols) in specs.iter().enumerate() {
            // Peer insertions sort before this one when strictly smaller,
            // or equal-keyed but appended earlier.
            let peers: i64 = ins
                .iter()
                .enumerate()
                .filter(|(j, jr)| match cmp_keys(jr, r, cols) {
                    Ordering::Less => true,
                    Ordering::Equal => *j < i,
                    Ordering::Greater => false,
                })
                .count() as i64;
            row.push(SqlValue::Int(1 + ins_before[i][s] + peers));
        }
        insertions.push((row.clone(), 1));
        cache.push(row);
    }
    retractions.extend(insertions);
    Ok(retractions)
}

/// Scalar re-ranking: the row-at-a-time twin of the batch `RowNumber`
/// operator. Appends one 1-based `#rn<i>` column per window spec, numbering
/// by a stable sort over the spec's keys — identical comparator, identical
/// tie-breaking by input order, so a maintained cache and a fresh batch
/// execution over the same input order produce identical ranks.
fn rank_rows(
    input: &[Row],
    specs: &[Vec<VExpr>],
    input_schema: &Arc<Vec<SchemaCol>>,
    ctx: &DeltaCtx<'_>,
    env: &DeltaEnv,
) -> Result<Vec<Row>, DeltaFail> {
    let mut rows: Vec<Row> = input.to_vec();
    let mut schema = input_schema.as_ref().clone();
    for (spec_idx, keys) in specs.iter().enumerate() {
        // The common shredded shape orders by plain columns; indexing
        // directly keeps this maintenance hot path free of the expression
        // interpreter.
        let col_keys: Option<Vec<usize>> = keys
            .iter()
            .map(|k| match k {
                VExpr::Col { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        let key_values: Vec<Row> = match &col_keys {
            Some(cols) => rows
                .iter()
                .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
                .collect(),
            None => {
                let schema_arc = Arc::new(schema.clone());
                rows.iter()
                    .map(|r| {
                        keys.iter()
                            .map(|k| eval_row(k, r, &schema_arc, ctx, env))
                            .collect::<Result<Row, _>>()
                    })
                    .collect::<Result<Vec<Row>, _>>()?
            }
        };
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| compare_rows(&key_values[a], &key_values[b]));
        let mut rn = vec![0i64; rows.len()];
        for (number, row_idx) in order.into_iter().enumerate() {
            rn[row_idx] = (number + 1) as i64;
        }
        for (row, n) in rows.iter_mut().zip(rn) {
            row.push(SqlValue::Int(n));
        }
        schema.push((None, format!("#rn{}", spec_idx)));
    }
    Ok(rows)
}

/// Bag difference preserving left order (the `EXCEPT ALL` replay used to
/// diff an except node's output).
fn bag_difference(left: &[Row], right: &[Row]) -> Vec<Row> {
    let mut counts: HashMap<Row, usize> = HashMap::new();
    for row in right {
        *counts.entry(row.clone()).or_insert(0) += 1;
    }
    let mut out = Vec::new();
    for row in left {
        match counts.get_mut(row) {
            Some(n) if *n > 0 => *n -= 1,
            _ => out.push(row.clone()),
        }
    }
    out
}

/// Scalar expression evaluation over one cached row (the row-at-a-time twin
/// of [`eval`]). Correlated `EXISTS` subplans run on the ordinary batch
/// executor with the row pushed as a scope frame.
fn eval_row(
    expr: &VExpr,
    row: &Row,
    schema: &Arc<Vec<SchemaCol>>,
    ctx: &DeltaCtx<'_>,
    env: &DeltaEnv,
) -> Result<SqlValue, DeltaFail> {
    match expr {
        VExpr::Col { index, .. } => Ok(row[*index].clone()),
        VExpr::Outer { table, column } => {
            // Stage-level expressions never reference an enclosing query —
            // outer references only occur inside EXISTS subplans, which
            // execute via `exec` with a pushed frame.
            Err(EngineError::UnknownColumn {
                qualifier: table.clone(),
                name: column.clone(),
            }
            .into())
        }
        VExpr::Lit(v) => Ok(v.clone()),
        VExpr::Param(name) => ctx
            .params
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnboundParameter(name.clone()).into()),
        VExpr::BinOp { op, left, right } => {
            let l = eval_row(left, row, schema, ctx, env)?;
            let r = eval_row(right, row, schema, ctx, env)?;
            Ok(eval_binop(*op, &l, &r)?)
        }
        VExpr::Not(inner) => match eval_row(inner, row, schema, ctx, env)? {
            SqlValue::Bool(b) => Ok(SqlValue::Bool(!b)),
            SqlValue::Null => Ok(SqlValue::Null),
            other => {
                Err(EngineError::TypeError(format!("NOT applied to {}", other.type_name())).into())
            }
        },
        VExpr::Exists(subplan) => {
            let vctx = VecCtx::unpooled(ctx.storage, ctx.params);
            let frame = ScopeFrame {
                schema: schema.clone(),
                values: row.clone(),
            };
            let inner = exec(
                subplan,
                &vctx,
                &env.materialised,
                &ScopeStack::default().pushed(frame),
            )?;
            Ok(SqlValue::Bool(!inner.is_empty()))
        }
    }
}

/// The schema of the batch a plan node produces — a static reconstruction
/// of the decisions [`exec_node`] makes, so the delta executor can build
/// correlation frames without executing anything.
fn batch_schema(
    plan: &PhysicalPlan,
    cte_schemas: &[(String, Arc<Vec<SchemaCol>>)],
) -> Result<Arc<Vec<SchemaCol>>, DeltaFail> {
    fn lookup<'a>(
        cte_schemas: &'a [(String, Arc<Vec<SchemaCol>>)],
        name: &str,
    ) -> Option<&'a Arc<Vec<SchemaCol>>> {
        cte_schemas
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }
    match plan {
        PhysicalPlan::UnitRow => Ok(Arc::new(Vec::new())),
        PhysicalPlan::TableScan { alias, columns, .. } => Ok(Arc::new(
            columns
                .iter()
                .map(|c| (Some(alias.clone()), c.clone()))
                .collect(),
        )),
        PhysicalPlan::CteScan { name, alias, .. } => {
            let bound =
                lookup(cte_schemas, name).ok_or_else(|| EngineError::UnknownCte(name.clone()))?;
            Ok(Arc::new(
                bound
                    .iter()
                    .map(|(_, c)| (Some(alias.clone()), c.clone()))
                    .collect(),
            ))
        }
        PhysicalPlan::SubqueryScan { input, alias } => {
            let inner = batch_schema(input, cte_schemas)?;
            Ok(Arc::new(
                inner
                    .iter()
                    .map(|(_, c)| (Some(alias.clone()), c.clone()))
                    .collect(),
            ))
        }
        PhysicalPlan::NestedLoopJoin { left, right }
        | PhysicalPlan::HashJoin { left, right, .. } => {
            let mut schema = batch_schema(left, cte_schemas)?.as_ref().clone();
            schema.extend(batch_schema(right, cte_schemas)?.iter().cloned());
            Ok(Arc::new(schema))
        }
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::ExistsSemiJoin { input, .. }
        | PhysicalPlan::HashSemiJoin { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Distinct { input } => batch_schema(input, cte_schemas),
        PhysicalPlan::RowNumber { input, specs } => {
            let mut schema = batch_schema(input, cte_schemas)?.as_ref().clone();
            schema.extend((0..specs.len()).map(|i| (None, format!("#rn{}", i))));
            Ok(Arc::new(schema))
        }
        PhysicalPlan::Project { columns, .. } => Ok(Arc::new(
            columns.iter().map(|c| (None, c.clone())).collect(),
        )),
        PhysicalPlan::UnionAll(branches) => {
            let first = branches
                .first()
                .ok_or_else(|| EngineError::TypeError("empty UNION ALL".to_string()))?;
            batch_schema(first, cte_schemas)
        }
        PhysicalPlan::ExceptAll { left, .. } => batch_schema(left, cte_schemas),
        PhysicalPlan::With {
            name,
            definition,
            body,
        } => {
            let def = batch_schema(definition, cte_schemas)?;
            let mut extended = cte_schemas.to_vec();
            extended.push((name.clone(), def));
            batch_schema(body, &extended)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr, Query, Select};
    use crate::exec::Engine;
    use crate::storage::{ColumnType, ResultSet, TableDef};

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
        assert_eq!(v.len(), 3);
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
        assert_eq!(i.len(), v.len());
        let mut li = i.rows.clone();
        let mut lv = v.rows.clone();
        li.sort_by(|a, b| compare_rows(a, b));
        lv.sort_by(|a, b| compare_rows(a, b));
        assert_eq!(li, lv);
    }

    #[test]
    fn with_row_number_union_and_distinct_match_the_interpreter() {
        let inner = Select::new()
            .item(Expr::col("x", "tag"), "tag")
            .item(Expr::row_number(vec![Expr::col("x", "n")]), "rank")
            .from_named("nums", "x");
        let outer = Select::new()
            .item(Expr::col("q", "tag"), "tag")
            .from_named("q", "q")
            .filter(Expr::binop(BinOp::Le, Expr::col("q", "rank"), Expr::lit(2)))
            .distinct();
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
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn order_by_and_except_all_match_the_interpreter() {
        let all = Select::new()
            .item(Expr::col("x", "tag"), "tag")
            .from_named("nums", "x")
            .order_by(Expr::col("x", "n"));
        let odd = Select::new()
            .item(Expr::col("x", "tag"), "tag")
            .from_named("nums", "x")
            .filter(Expr::eq(Expr::col("x", "tag"), Expr::lit("odd")));
        let q = Query::ExceptAll(Box::new(Query::select(all)), Box::new(Query::select(odd)));
        let (i, v) = run_both(&engine(), &q);
        assert_eq!(i, v);
        assert_eq!(v.len(), 2);
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
            sorted(dx.rows().to_vec()),
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
            sorted(dx.rows().to_vec()),
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
    fn deltas_through_with_row_number_and_distinct_match_recompute() {
        let inner = Select::new()
            .item(Expr::col("x", "tag"), "tag")
            .item(Expr::row_number(vec![Expr::col("x", "n")]), "rank")
            .from_named("nums", "x");
        let outer = Select::new()
            .item(Expr::col("q", "tag"), "tag")
            .from_named("q", "q")
            .filter(Expr::binop(BinOp::Le, Expr::col("q", "rank"), Expr::lit(2)))
            .distinct();
        let q = Query::with("q", inner, Query::select(outer));
        let batch = WriteBatch::new()
            .insert("nums", vec![SqlValue::Int(0), SqlValue::str("zero")])
            .delete("nums", vec![SqlValue::Int(1), SqlValue::str("odd")]);
        maintain_and_check(&engine(), &q, batch);
    }

    #[test]
    fn a_correlated_exists_over_a_mutated_table_bails_to_reseed() {
        let sub = Select::new()
            .item(Expr::lit(1), "one")
            .from_named("nums", "y")
            .filter(Expr::eq(Expr::col("y", "tag"), Expr::col("x", "tag")));
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
            sorted(dx.rows().to_vec()),
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
        let emitted = dx.apply(&plan, &storage, &params, &delta).unwrap().unwrap();
        assert!(emitted.is_empty());
    }

    /// Reference ranker: stable sort per spec over plain key columns, ranks
    /// appended in input order — the col-spec fragment of `rank_rows`.
    fn reference_rank(input: &[Row], specs: &[Vec<usize>]) -> Vec<Row> {
        let mut rows = input.to_vec();
        for cols in specs {
            let mut order: Vec<usize> = (0..rows.len()).collect();
            order.sort_by(|&a, &b| cmp_keys(&input[a], &input[b], cols));
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

    fn bag(rows: &[Row]) -> std::collections::HashMap<Row, i64> {
        let mut m = std::collections::HashMap::new();
        for r in rows {
            *m.entry(r.clone()).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn incremental_rank_matches_reference_under_random_edits() {
        // Deterministic LCG so the mixed retract/insert batches replay.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let specs: Vec<Vec<usize>> = vec![vec![0], vec![1, 0]];
        // Small key domains force ties, the hard case for rank maintenance.
        let mut input: Vec<Row> = (0..40)
            .map(|_| {
                vec![
                    SqlValue::Int(next().rem_euclid(5)),
                    SqlValue::Int(next().rem_euclid(3)),
                ]
            })
            .collect();
        let mut cache = reference_rank(&input, &specs);
        for round in 0..60 {
            let mut din: DeltaRows = Vec::new();
            // Retract up to 3 existing rows (first occurrence, like
            // update_cache) and insert up to 3 new ones at the end.
            for _ in 0..next().rem_euclid(4) {
                if input.is_empty() {
                    break;
                }
                let victim = input[next().rem_euclid(input.len() as i64) as usize].clone();
                let pos = input.iter().position(|r| *r == victim).unwrap();
                input.remove(pos);
                din.push((victim, -1));
            }
            for _ in 0..next().rem_euclid(4) {
                let row = vec![
                    SqlValue::Int(next().rem_euclid(5)),
                    SqlValue::Int(next().rem_euclid(3)),
                ];
                input.push(row.clone());
                din.push((row, 1));
            }
            let before = cache.clone();
            let delta = match incremental_rank(&mut cache, &specs, &din) {
                Ok(d) => d,
                Err(_) => panic!("in fragment (round {round})"),
            };
            let expect = reference_rank(&input, &specs);
            assert_eq!(
                cache, expect,
                "cache must equal a fresh re-rank (round {round})"
            );
            // The emitted delta must carry the old output to the new one.
            let mut b = bag(&before);
            for (row, sign) in &delta {
                *b.entry(row.clone()).or_insert(0) += sign;
            }
            b.retain(|_, n| *n != 0);
            assert_eq!(b, bag(&expect), "delta must be exact (round {round})");
        }
    }
}
