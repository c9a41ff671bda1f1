//! Morsel-driven parallel execution of [`PhysicalPlan`] trees.
//!
//! [`crate::vexec`] executes a plan bottom-up with each operator consuming
//! its input batch whole, on one thread. This module re-runs the same
//! operator algebra as a pull-based pipeline of bounded **morsels**: an
//! operator's input is split into contiguous logical row ranges of at most
//! [`ExecOptions::morsel_rows`] rows (a [`crate::kernels::Rows`] view of the
//! batch — a row range of a dense batch, a slice of a selection vector;
//! nothing is copied or allocated), and the ranges are handed out to a pool
//! of scoped worker threads from an atomic cursor ([`par_map`]). Each worker
//! owns the morsels it claims; per-morsel results are reassembled **in
//! morsel index order**, which is what makes the executor deterministic:
//!
//! > for every plan, every parameter binding and every storage state, the
//! > parallel executor produces byte-identical results to the sequential
//! > [`vexec::exec`] path at *any* worker count and *any* morsel size.
//!
//! The operator bodies themselves are not here. Expression evaluation,
//! filtering, gathering and projection are [`vexec`]'s, called per morsel;
//! hashing, join tables and key ordering are [`crate::kernels`]', called per
//! morsel, per partition or per run. What this module adds is the
//! scheduling (see `DESIGN.md` § Morsel-driven parallel execution):
//!
//! * **Streaming operators** (filter, project, exists-semijoin, expression
//!   evaluation, join gather) are embarrassingly parallel per morsel: each
//!   morsel's output depends only on that morsel's rows, and concatenating
//!   outputs in morsel order reproduces the sequential order. Their
//!   intermediate buffers are bounded by the morsel size.
//! * **Hash join** hashes key columns per morsel, then builds a
//!   *partitioned* index: build rows are split by key hash into one
//!   partition per worker, each partition's chains in global build-row
//!   order, so every key's match list is identical to the single sequential
//!   table's. Probing scans probe morsels in parallel; each morsel emits
//!   pairs in probe order and the chunks concatenate to the sequential
//!   pair list.
//! * **Pipeline breakers** ([`PhysicalPlan::is_pipeline_breaker`]: sort,
//!   row-number, distinct, set operations) cannot stream — they accumulate
//!   per-worker partial state and merge. Sorting sorts per-worker
//!   contiguous runs and merges them with a row tie-break, which is
//!   provably equal to one global stable sort; distinct/except hash their
//!   rows in parallel but keep the order-dependent first-occurrence /
//!   cancellation pass sequential.
//! * **Scans** stay zero-copy (a table scan is an `Arc` clone of the
//!   storage columns); the atomic cursor hands out morsel *ranges over the
//!   scanned batch* to the consuming operator rather than copying the scan
//!   output itself.
//!
//! `workers(1)` bypasses this module entirely and runs the sequential
//! executor, which keeps the interpreter oracle and the delta path
//! ([`crate::vexec::DeltaExec`]) valid differential baselines.

use crate::error::EngineError;
use crate::kernels::{self, JoinTable, KeyHashes, KeyIndex, Keys, NullMode, Vector};
use crate::opt::live_estimate;
use crate::plan::{BuildSide, PhysicalPlan, VExpr};
use crate::storage::{ColumnarResult, Storage};
use crate::value::ParamValues;
use crate::vexec::{self, Batch, CteEnv, PlanProfile, Profiler, ScopeStack, VecCtx};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default morsel size: bounds the rows a streaming operator touches (and
/// the intermediate buffers it allocates) per unit of scheduled work.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Per-row subplan execution (correlated `EXISTS`) is expensive enough that
/// parallelism pays for itself well below one morsel's worth of rows.
const PAR_SUBPLAN_ROWS: usize = 16;

/// Default estimated-row threshold below which a plan runs sequentially even
/// when `workers > 1`: sub-10ms pipelines lose more to thread hand-off than
/// they gain from fan-out (BENCH_pr9 measured 0.6–0.85× on every small
/// query), and ~8k rows is where fan-out starts paying for itself.
pub const DEFAULT_MIN_PARALLEL_ROWS: usize = 8192;

/// Execution options for one plan run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads to fan morsels across. `1` means the sequential
    /// executor (the degenerate case every differential baseline runs on).
    pub workers: usize,
    /// Upper bound on rows per morsel.
    pub morsel_rows: usize,
    /// Plans whose catalog-informed row estimate ([`crate::opt::live_estimate`])
    /// falls below this stay on the sequential executor regardless of
    /// `workers`. `0` disables the gate (always fan out when `workers > 1`).
    pub min_parallel_rows: usize,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            workers: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            min_parallel_rows: DEFAULT_MIN_PARALLEL_ROWS,
        }
    }
}

impl ExecOptions {
    /// Options with `workers` threads and the default morsel size.
    pub fn with_workers(workers: usize) -> ExecOptions {
        ExecOptions {
            workers: workers.max(1),
            ..ExecOptions::default()
        }
    }
}

/// What one parallel execution did: how many morsels were dispatched, the
/// peak number of workers simultaneously busy, and each morsel's wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub morsels_dispatched: u64,
    pub peak_workers: u64,
    pub morsel_nanos: Vec<u64>,
}

/// Shared tally behind [`ExecStats`], updated by every worker.
#[derive(Default)]
struct ParStats {
    morsels: AtomicU64,
    active: AtomicU64,
    peak: AtomicU64,
    nanos: Mutex<Vec<u64>>,
}

impl ParStats {
    fn begin(&self) {
        self.morsels.fetch_add(1, AtomicOrdering::Relaxed);
        let active = self.active.fetch_add(1, AtomicOrdering::Relaxed) + 1;
        self.peak.fetch_max(active, AtomicOrdering::Relaxed);
    }

    fn end(&self, nanos: u64) {
        self.active.fetch_sub(1, AtomicOrdering::Relaxed);
        if let Ok(mut v) = self.nanos.lock() {
            v.push(nanos);
        }
    }

    fn snapshot(&self) -> ExecStats {
        ExecStats {
            morsels_dispatched: self.morsels.load(AtomicOrdering::Relaxed),
            peak_workers: self.peak.load(AtomicOrdering::Relaxed),
            morsel_nanos: self.nanos.lock().map(|v| v.clone()).unwrap_or_default(),
        }
    }
}

/// Everything a parallel plan execution shares across workers.
struct ParCtx<'a> {
    storage: &'a Storage,
    params: &'a ParamValues,
    prof: Option<&'a Profiler>,
    workers: usize,
    morsel_rows: usize,
    stats: &'a ParStats,
}

impl<'a> ParCtx<'a> {
    /// The sequential-executor view of this context, for running whole
    /// sub-batches (morsels, correlated subplans) through [`vexec`].
    fn vec_ctx(&self) -> VecCtx<'a> {
        VecCtx {
            storage: self.storage,
            params: self.params,
            prof: self.prof,
        }
    }

    /// Should an operator over `len` rows fan out? Only when the input does
    /// not fit in a single morsel — small inputs stay on the inline path so
    /// the parallel executor never pays thread hand-off for trivial work.
    fn engage(&self, len: usize) -> bool {
        self.workers > 1 && len > self.morsel_rows
    }
}

/// Like [`vexec::execute_plan_bound`], but fanning morsels across
/// `opts.workers` threads. `workers <= 1` delegates to the sequential
/// executor (identical code path, no thread machinery).
pub fn execute_plan_bound_opts(
    plan: &PhysicalPlan,
    storage: &Storage,
    params: &ParamValues,
    opts: ExecOptions,
) -> Result<(ColumnarResult, ExecStats), EngineError> {
    if opts.workers <= 1 || below_parallel_threshold(plan, storage, opts) {
        let result = vexec::execute_plan_bound(plan, storage, params)?;
        return Ok((result, ExecStats::default()));
    }
    let stats = ParStats::default();
    let ctx = ParCtx {
        storage,
        params,
        prof: None,
        workers: opts.workers,
        morsel_rows: opts.morsel_rows.max(1),
        stats: &stats,
    };
    let batch = pexec(plan, &ctx, &CteEnv::default(), &ScopeStack::default())?;
    Ok((batch.into_columnar(), stats.snapshot()))
}

/// Like [`execute_plan_bound_opts`], but with pre-bound `WITH` results
/// visible to free `CteScan`s of those names — the parallel entry point for
/// package-level shared subplans (cross-stage CSE): a shared definition is
/// executed once per package and its columnar result re-bound, zero-copy,
/// under each consuming stage's CTE name. Falls back to the sequential
/// bound-CTE executor under the same adaptive-parallelism gate.
pub fn execute_plan_bound_ctes_opts(
    plan: &PhysicalPlan,
    storage: &Storage,
    params: &ParamValues,
    ctes: &[(String, ColumnarResult)],
    opts: ExecOptions,
) -> Result<(ColumnarResult, ExecStats), EngineError> {
    if opts.workers <= 1 || below_parallel_threshold(plan, storage, opts) {
        let result = vexec::execute_plan_bound_ctes(plan, storage, params, ctes)?;
        return Ok((result, ExecStats::default()));
    }
    let stats = ParStats::default();
    let ctx = ParCtx {
        storage,
        params,
        prof: None,
        workers: opts.workers,
        morsel_rows: opts.morsel_rows.max(1),
        stats: &stats,
    };
    let mut env = CteEnv::default();
    for (name, result) in ctes {
        env = env.extended(name, vexec::batch_from_columnar(result));
    }
    let batch = pexec(plan, &ctx, &env, &ScopeStack::default())?;
    Ok((batch.into_columnar(), stats.snapshot()))
}

/// Like [`vexec::execute_plan_profiled`], but parallel: every worker
/// aggregates its batches/rows/nanos into the shared atomic [`Profiler`],
/// so `EXPLAIN ANALYZE` actuals stay exact under parallelism.
pub fn execute_plan_profiled_opts(
    plan: &PhysicalPlan,
    storage: &Storage,
    params: &ParamValues,
    opts: ExecOptions,
) -> Result<(ColumnarResult, PlanProfile, ExecStats), EngineError> {
    if opts.workers <= 1 || below_parallel_threshold(plan, storage, opts) {
        let (result, prof) = vexec::execute_plan_profiled(plan, storage, params)?;
        return Ok((result, prof, ExecStats::default()));
    }
    let stats = ParStats::default();
    let prof = Profiler::new(plan);
    let ctx = ParCtx {
        storage,
        params,
        prof: Some(&prof),
        workers: opts.workers,
        morsel_rows: opts.morsel_rows.max(1),
        stats: &stats,
    };
    let batch = pexec(plan, &ctx, &CteEnv::default(), &ScopeStack::default())?;
    let result = batch.into_columnar();
    let ops = prof.actuals(plan);
    Ok((result, PlanProfile { ops }, stats.snapshot()))
}

/// The adaptive-parallelism gate: true when the plan's estimated output (and
/// therefore its likely working set) is too small for fan-out to pay for the
/// thread hand-off. Both entry points fall back to the sequential executor
/// in that case, which is byte-identical by the determinism guarantee.
fn below_parallel_threshold(plan: &PhysicalPlan, storage: &Storage, opts: ExecOptions) -> bool {
    opts.min_parallel_rows > 0 && live_estimate(plan, storage) < opts.min_parallel_rows as f64
}

// ---------------------------------------------------------------------------
// The worker pool primitive
// ---------------------------------------------------------------------------

/// Map `f` over `items` on up to `ctx.workers` scoped threads. Items are
/// handed out by an atomic cursor (morsel dispatch); each worker collects
/// `(index, result)` locally and the caller reassembles results **in item
/// order**, so the output is independent of scheduling. The first error (in
/// item order) aborts remaining dispatch and is returned; worker panics
/// propagate to the caller.
fn par_map<'env, T, R, F>(ctx: &ParCtx<'_>, items: &'env [T], f: F) -> Result<Vec<R>, EngineError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &'env T) -> Result<R, EngineError> + Sync,
{
    let n = items.len();
    let workers = ctx.workers.min(n);
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                ctx.stats.begin();
                let start = Instant::now();
                let r = f(i, item);
                ctx.stats
                    .end(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                r
            })
            .collect();
    }

    let cursor = AtomicU64::new(0);
    let failed = AtomicBool::new(false);
    let run = || {
        let mut local: Vec<(usize, Result<R, EngineError>)> = Vec::new();
        loop {
            if failed.load(AtomicOrdering::Relaxed) {
                break;
            }
            let i = cursor.fetch_add(1, AtomicOrdering::Relaxed) as usize;
            if i >= n {
                break;
            }
            ctx.stats.begin();
            let start = Instant::now();
            let r = f(i, &items[i]);
            ctx.stats
                .end(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            if r.is_err() {
                failed.store(true, AtomicOrdering::Relaxed);
            }
            local.push((i, r));
        }
        local
    };

    let mut collected: Vec<Vec<(usize, Result<R, EngineError>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(run)).collect();
        let mine = run();
        let mut all = vec![mine];
        for h in handles {
            match h.join() {
                Ok(v) => all.push(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut first_err: Option<(usize, EngineError)> = None;
    for (i, r) in collected.drain(..).flatten() {
        match r {
            Ok(v) => slots[i] = Some(v),
            Err(e) => {
                if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_err = Some((i, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    slots
        .into_iter()
        .map(|s| {
            s.ok_or_else(|| {
                EngineError::TypeError("internal: morsel result missing after join".to_string())
            })
        })
        .collect()
}

/// Split `0..len` into contiguous morsel ranges: at most `morsel_rows`
/// each, and small enough that every worker gets several morsels to keep
/// the atomic-cursor dispatch load-balanced.
fn morsel_ranges(ctx: &ParCtx<'_>, len: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let balanced = len.div_ceil(ctx.workers.max(1) * 4).max(1);
    let target = ctx.morsel_rows.min(balanced).max(1);
    (0..len)
        .step_by(target)
        .map(|s| s..(s + target).min(len))
        .collect()
}

/// Split `0..len` into one contiguous run per worker — the accumulation
/// granularity for pipeline breakers ([`PhysicalPlan::is_pipeline_breaker`]),
/// which merge per-worker state instead of streaming morsels.
fn worker_ranges(len: usize, workers: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let n = workers.min(len).max(1);
    let chunk = len.div_ceil(n).max(1);
    (0..len)
        .step_by(chunk)
        .map(|s| s..(s + chunk).min(len))
        .collect()
}

// ---------------------------------------------------------------------------
// Parallel plan execution
// ---------------------------------------------------------------------------

/// Execute one plan node with morsel parallelism, recording profiler
/// actuals and the same dynamic invariants as the sequential [`vexec::exec`].
fn pexec(
    plan: &PhysicalPlan,
    ctx: &ParCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Batch, EngineError> {
    let timer = ctx.prof.map(|p| (p, Instant::now()));
    let batch = pexec_node(plan, ctx, ctes, scope)?;
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
    debug_assert_eq!(batch.schema.len(), batch.columns.len());
    if let Some(sel) = &batch.sel {
        debug_assert!(sel.iter().all(|&p| p < batch.base_rows));
    }
    Ok(batch)
}

fn pexec_node(
    plan: &PhysicalPlan,
    ctx: &ParCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Batch, EngineError> {
    let vctx = ctx.vec_ctx();
    match plan {
        // Leaves and structural nodes run exactly as in the sequential
        // executor: scans are zero-copy Arc clones, so the parallelism
        // lives in the operators that consume them.
        PhysicalPlan::UnitRow | PhysicalPlan::TableScan { .. } | PhysicalPlan::CteScan { .. } => {
            vexec::exec(plan, &vctx, ctes, scope)
        }
        PhysicalPlan::SubqueryScan { input, alias } => {
            Ok(vexec::realias(&pexec(input, ctx, ctes, scope)?, alias))
        }
        PhysicalPlan::NestedLoopJoin { left, right } => {
            let l = pexec(left, ctx, ctes, scope)?;
            let r = pexec(right, ctx, ctes, scope)?;
            par_join_gather(ctx, &l, &r, &vexec::cross_pairs(l.len(), r.len()))
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            build,
        } => {
            let l = pexec(left, ctx, ctes, scope)?;
            let r = pexec(right, ctx, ctes, scope)?;
            let engaged = ctx.engage(l.len()) || ctx.engage(r.len());
            let lk = par_keys(
                ctx,
                engaged,
                par_eval_all(ctx, left_keys, &l, ctes, scope)?,
                &l,
            )?;
            let rk = par_keys(
                ctx,
                engaged,
                par_eval_all(ctx, right_keys, &r, ctes, scope)?,
                &r,
            )?;
            let (build_keys, probe_keys, probe_is_left) = match build {
                BuildSide::Right => (&rk, &lk, true),
                BuildSide::Left => (&lk, &rk, false),
            };
            let index = par_index(ctx, engaged, build_keys)?;
            let pairs = par_ranges(ctx, engaged, probe_keys.len(), |range| {
                Ok(index.join_pairs(probe_keys, range, probe_is_left))
            })?;
            par_join_gather(ctx, &l, &r, &pairs)
        }
        PhysicalPlan::Filter { input, predicate } => {
            let batch = pexec(input, ctx, ctes, scope)?;
            let sel = par_ranges(ctx, ctx.engage(batch.len()), batch.len(), |range| {
                let rows = batch.rows().slice(range);
                vexec::select_true(predicate, &batch, rows, &vctx, ctes, scope)
            })?;
            Ok(batch.with_sel(sel))
        }
        PhysicalPlan::ExistsSemiJoin {
            input,
            subplan,
            anti,
        } => {
            let batch = pexec(input, ctx, ctes, scope)?;
            // Per-row subplan execution dominates, so fan out well below
            // one morsel's worth of rows.
            let engaged = ctx.workers > 1 && batch.len() >= PAR_SUBPLAN_ROWS;
            let sel = par_ranges(ctx, engaged, batch.len(), |range| {
                let rows = batch.rows().slice(range);
                vexec::exists_select(subplan, *anti, &batch, rows, &vctx, ctes, scope)
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
            let batch = pexec(input, ctx, ctes, scope)?;
            // The build side runs exactly once, under the same scope as this
            // node (decorrelation guarantees it holds no references to the
            // input's rows), and its index is shared read-only by every
            // probe morsel.
            let built = pexec(build, ctx, ctes, scope)?;
            let engaged = ctx.engage(batch.len()) || ctx.engage(built.len());
            let sel = {
                let bk = par_eval_all(ctx, build_keys, &built, ctes, scope)?;
                let bk = par_keys(ctx, engaged, bk, &built)?;
                let pk = par_eval_all(ctx, probe_keys, &batch, ctes, scope)?;
                let pk = par_keys(ctx, engaged, pk, &batch)?;
                let index = par_index(ctx, engaged, &bk)?;
                par_ranges(ctx, engaged, pk.len(), |range| {
                    Ok(index.semi_select(&pk, range, *anti, batch.rows()))
                })?
            };
            Ok(batch.with_sel(sel))
        }
        PhysicalPlan::RowNumber { input, specs } => {
            let batch = par_materialise(ctx, pexec(input, ctx, ctes, scope)?)?;
            let ranks = specs
                .iter()
                .map(|keys| {
                    let keys = par_eval_all(ctx, keys, &batch, ctes, scope)?;
                    Ok(vexec::rank_column(&par_sort(ctx, &keys, batch.len())?))
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            Ok(vexec::with_rank_columns(batch, ranks))
        }
        PhysicalPlan::Sort { input, keys } => {
            let batch = pexec(input, ctx, ctes, scope)?;
            let order = par_sort(
                ctx,
                &par_eval_all(ctx, keys, &batch, ctes, scope)?,
                batch.len(),
            )?;
            let sel = vexec::phys_rows(&batch, order);
            Ok(batch.with_sel(sel))
        }
        PhysicalPlan::Project {
            input,
            exprs,
            columns,
        } => {
            let batch = pexec(input, ctx, ctes, scope)?;
            if let Some(renamed) = vexec::project_columns(&batch, exprs, columns) {
                return Ok(renamed);
            }
            let out = par_eval_all(ctx, exprs, &batch, ctes, scope)?
                .into_iter()
                .zip(exprs)
                .map(|(v, e)| {
                    vexec::shared_column(&batch, e).unwrap_or_else(|| Arc::new(v.into_vec()))
                })
                .collect();
            Ok(vexec::projected(columns, out, batch.len()))
        }
        PhysicalPlan::Distinct { input } => {
            // Pipeline breaker: rows hash in parallel, but the
            // first-occurrence scan is inherently ordered and stays
            // sequential.
            let batch = pexec(input, ctx, ctes, scope)?;
            let engaged = ctx.engage(batch.len());
            let firsts =
                kernels::distinct_rows(&par_keys(ctx, engaged, batch.column_vectors(), &batch)?)?;
            let sel = vexec::phys_rows(&batch, firsts);
            Ok(batch.with_sel(sel))
        }
        PhysicalPlan::UnionAll(branches) => {
            vexec::union_all(branches, &mut |branch| pexec(branch, ctx, ctes, scope))
        }
        PhysicalPlan::ExceptAll { left, right } => {
            let l = pexec(left, ctx, ctes, scope)?;
            let r = pexec(right, ctx, ctes, scope)?;
            let kept = kernels::except_all_rows(
                &par_keys(ctx, ctx.engage(l.len()), l.column_vectors(), &l)?,
                &par_keys(ctx, ctx.engage(r.len()), r.column_vectors(), &r)?,
            )?;
            let sel = vexec::phys_rows(&l, kept);
            Ok(l.with_sel(sel))
        }
        PhysicalPlan::With {
            name,
            definition,
            body,
        } => {
            let bound = par_materialise(ctx, pexec(definition, ctx, ctes, scope)?)?;
            let extended = ctes.extended(name, bound);
            pexec(body, ctx, &extended, scope)
        }
    }
}

// ---------------------------------------------------------------------------
// Morsel scheduling around the shared kernels
// ---------------------------------------------------------------------------

/// Run `f` over `0..len` — as one range when not `engaged`, else morsel by
/// morsel on the pool — and concatenate the outputs in range order.
fn par_ranges<T, F>(
    ctx: &ParCtx<'_>,
    engaged: bool,
    len: usize,
    f: F,
) -> Result<Vec<T>, EngineError>
where
    T: Send,
    F: Fn(Range<usize>) -> Result<Vec<T>, EngineError> + Sync,
{
    if !engaged {
        return f(0..len);
    }
    let ranges = morsel_ranges(ctx, len);
    let chunks = par_map(ctx, &ranges, |_, range| f(range.clone()))?;
    Ok(chunks.into_iter().flatten().collect())
}

/// Parallel [`Batch::materialised`]: gather each column on its own worker.
fn par_materialise(ctx: &ParCtx<'_>, batch: Batch) -> Result<Batch, EngineError> {
    if batch.sel.is_none() || !ctx.engage(batch.len()) || batch.columns.len() <= 1 {
        return Ok(batch.materialised());
    }
    let cols: Vec<usize> = (0..batch.columns.len()).collect();
    let columns = par_map(ctx, &cols, |_, &c| Ok(Arc::new(batch.gather(c))))?;
    Ok(Batch {
        schema: batch.schema.clone(),
        columns,
        sel: None,
        base_rows: batch.len(),
    })
}

/// Parallel [`vexec::eval_all`]: expressions that only borrow (columns,
/// constants) cost nothing either way; the ones that compute are evaluated
/// morsel by morsel and concatenated in morsel order.
fn par_eval_all<'a>(
    ctx: &ParCtx<'_>,
    exprs: &[VExpr],
    batch: &'a Batch,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Vec<Vector<'a>>, EngineError> {
    let vctx = ctx.vec_ctx();
    let computes = |e: &VExpr| matches!(e, VExpr::BinOp { .. } | VExpr::Not(_) | VExpr::Exists(_));
    exprs
        .iter()
        .map(|e| {
            if !(ctx.engage(batch.len()) && computes(e)) {
                return vexec::eval(e, batch, batch.rows(), &vctx, ctes, scope);
            }
            par_ranges(ctx, true, batch.len(), |range| {
                let rows = batch.rows().slice(range);
                Ok(vexec::eval(e, batch, rows, &vctx, ctes, scope)?.into_vec())
            })
            .map(Vector::Owned)
        })
        .collect()
}

/// Hash evaluated key columns of `batch`, morsel-parallel when `engaged`.
fn par_keys<'a>(
    ctx: &ParCtx<'_>,
    engaged: bool,
    cols: Vec<Vector<'a>>,
    batch: &Batch,
) -> Result<Keys<'a>, EngineError> {
    if !engaged {
        return Ok(Keys::new(cols, batch.len()));
    }
    let ranges = morsel_ranges(ctx, batch.len());
    let chunks = par_map(ctx, &ranges, |_, range| {
        Ok(kernels::hash_keys(&cols, range.clone()))
    })?;
    let hashed = KeyHashes::concat(chunks);
    Ok(Keys { cols, hashed })
}

/// Index a join's build side: when `engaged`, one hash partition per
/// worker, each built in global build-row order, so every key's match list
/// is the one a single table would hold.
fn par_index<'k>(
    ctx: &ParCtx<'_>,
    engaged: bool,
    build: &'k Keys<'k>,
) -> Result<KeyIndex<'k>, EngineError> {
    let nulls = NullMode::NeverMatches;
    if !engaged {
        return KeyIndex::new(build, nulls);
    }
    let parts: Vec<usize> = (0..ctx.workers).collect();
    let tables = par_map(ctx, &parts, |_, &p| {
        JoinTable::build(&build.hashed, nulls, p, parts.len())
    })?;
    Ok(KeyIndex::from_partitions(build, nulls, tables))
}

/// Parallel [`vexec::join_gather`]: one worker per output column (the unit
/// that avoids any cross-worker writes and any post-merge copy).
fn par_join_gather(
    ctx: &ParCtx<'_>,
    left: &Batch,
    right: &Batch,
    pairs: &[(usize, usize)],
) -> Result<Batch, EngineError> {
    let lw = left.columns.len();
    let width = lw + right.columns.len();
    if !ctx.engage(pairs.len()) || width <= 1 {
        return Ok(vexec::join_gather(left, right, pairs));
    }
    let cols: Vec<usize> = (0..width).collect();
    let columns = par_map(ctx, &cols, |_, &c| {
        Ok(if c < lw {
            vexec::gather_pairs(left, c, pairs, |p| p.0)
        } else {
            vexec::gather_pairs(right, c - lw, pairs, |p| p.1)
        })
    })?;
    Ok(Batch {
        schema: vexec::joined_schema(left, right),
        columns,
        sel: None,
        base_rows: pairs.len(),
    })
}

/// Stable sort of `0..len` by key, parallel: per-worker contiguous runs are
/// stably sorted, then merged with a row tie-break — exactly "sorted by
/// (key, row)", which is what one global stable sort produces, so the result
/// is independent of worker count and run boundaries.
fn par_sort(ctx: &ParCtx<'_>, keys: &[Vector<'_>], len: usize) -> Result<Vec<usize>, EngineError> {
    if !ctx.engage(len) {
        return Ok(kernels::sort_rows(keys, 0..len));
    }
    let ranges = worker_ranges(len, ctx.workers);
    let runs = par_map(ctx, &ranges, |_, range| {
        Ok(kernels::sort_rows(keys, range.clone()))
    })?;
    Ok(kernels::merge_sorted_runs(keys, &runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx<'a>(
        storage: &'a Storage,
        params: &'a ParamValues,
        stats: &'a ParStats,
        workers: usize,
        morsel_rows: usize,
    ) -> ParCtx<'a> {
        ParCtx {
            storage,
            params,
            prof: None,
            workers,
            morsel_rows,
            stats,
        }
    }

    #[test]
    fn par_map_preserves_item_order() {
        let storage = Storage::new();
        let params = ParamValues::new();
        let stats = ParStats::default();
        let ctx = test_ctx(&storage, &params, &stats, 4, 1);
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&ctx, &items, |_, &x| Ok(x * 2)).unwrap();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        let snap = stats.snapshot();
        assert_eq!(snap.morsels_dispatched, 100);
        assert!(snap.peak_workers >= 1);
        assert_eq!(snap.morsel_nanos.len(), 100);
    }

    #[test]
    fn par_map_returns_first_error_in_item_order() {
        let storage = Storage::new();
        let params = ParamValues::new();
        let stats = ParStats::default();
        let ctx = test_ctx(&storage, &params, &stats, 4, 1);
        let items: Vec<usize> = (0..64).collect();
        let err = par_map(&ctx, &items, |_, &x| {
            if x >= 10 {
                Err(EngineError::TypeError(format!("boom {x}")))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        // Workers may hit later failing items first, but the reported error
        // is the smallest failing index among those actually executed —
        // item 10 always executes because dispatch is in index order and
        // nothing before it fails.
        assert_eq!(
            err.to_string(),
            EngineError::TypeError("boom 10".into()).to_string()
        );
    }

    #[test]
    fn morsel_ranges_cover_and_bound() {
        let storage = Storage::new();
        let params = ParamValues::new();
        let stats = ParStats::default();
        for (workers, morsel, len) in [(4, 1, 17), (4, 7, 100), (2, 4096, 10_000), (8, 3, 3)] {
            let ctx = test_ctx(&storage, &params, &stats, workers, morsel);
            let ranges = morsel_ranges(&ctx, len);
            assert!(ranges.iter().all(|r| r.len() <= morsel && !r.is_empty()));
            let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(flat, (0..len).collect::<Vec<_>>());
        }
        let ctx = test_ctx(&storage, &params, &stats, 4, 8);
        assert!(morsel_ranges(&ctx, 0).is_empty());
    }

    #[test]
    fn worker_ranges_cover() {
        for (len, workers) in [(10, 3), (3, 8), (1, 1), (4096, 4)] {
            let ranges = worker_ranges(len, workers);
            assert!(ranges.len() <= workers);
            let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(flat, (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_stable_sort_matches_sequential() {
        let storage = Storage::new();
        let params = ParamValues::new();
        let stats = ParStats::default();
        // Lots of duplicate keys to exercise the stability tie-break.
        let keys = [Vector::Owned(
            (0..1000)
                .map(|i| crate::value::SqlValue::Int((i * 37 % 11) as i64))
                .collect(),
        )];
        let expected = kernels::sort_rows(&keys, 0..1000);
        for workers in [2, 3, 8] {
            let ctx = test_ctx(&storage, &params, &stats, workers, 16);
            assert_eq!(par_sort(&ctx, &keys, 1000).unwrap(), expected);
        }
    }
}
