//! The morsel pool of the batch executor.
//!
//! [`crate::vexec`] holds the one walk over [`PhysicalPlan`] trees. This
//! module holds what that walk schedules on: a [`Pool`] of scoped worker
//! threads, the atomic-cursor dispatch primitive ([`scoped_map`]) and the
//! `par_*` helpers each operator calls around the shared kernels. Every
//! helper takes the pool as an `Option`: `None` runs the kernel once over the
//! whole batch on the calling thread, `Some` splits the input into contiguous
//! logical row ranges of at most [`ExecOptions::morsel_rows`] rows (a
//! [`crate::kernels::Rows`] view of the batch — a row range of a dense batch,
//! a slice of a selection vector; nothing is copied or allocated) and hands
//! the ranges out to the workers. Per-morsel results are reassembled **in
//! morsel index order**, which is what makes the executor deterministic:
//!
//! > for every plan, every parameter binding and every storage state, the
//! > executor produces byte-identical results at *any* worker count and
//! > *any* morsel size.
//!
//! Which of the two an operator gets is decided per operator, from the row
//! count it actually sees ([`VecCtx::engage`]); see `DESIGN.md` § Morsel-driven
//! parallel execution. What the helpers add to the kernels is the scheduling:
//!
//! * **Streaming operators** (filter, project, exists-semijoin, expression
//!   evaluation, join gather) are embarrassingly parallel per morsel: each
//!   morsel's output depends only on that morsel's rows, and concatenating
//!   outputs in morsel order reproduces the whole-batch order. Their
//!   intermediate buffers are bounded by the morsel size.
//! * **Hash join** hashes key columns per morsel, then builds a
//!   *partitioned* index: build rows are split by key hash into one
//!   partition per worker, each partition's chains in global build-row
//!   order, so every key's match list is identical to the single whole-batch
//!   table's. Probing scans probe morsels in parallel; each morsel emits
//!   pairs in probe order and the chunks concatenate to the whole-batch
//!   pair list.
//! * **Pipeline breakers** ([`PhysicalPlan::is_pipeline_breaker`]: sort,
//!   row-number, distinct, set operations) cannot stream — they accumulate
//!   per-worker partial state and merge. Sorting sorts per-worker
//!   contiguous runs and merges them with a row tie-break, which is
//!   provably equal to one global stable sort; distinct/except hash their
//!   rows in parallel but keep the order-dependent first-occurrence /
//!   cancellation pass on one thread.
//! * **Scans** stay zero-copy (a table scan is an `Arc` clone of the
//!   storage columns); the atomic cursor hands out morsel *ranges over the
//!   scanned batch* to the consuming operator rather than copying the scan
//!   output itself.
//!
//! A morsel body that executes a plan — a correlated subplan — re-enters the
//! walk with no pool ([`VecCtx::sequential`]), so workers never nest.

use crate::error::EngineError;
use crate::kernels::{self, JoinTable, KeyHashes, KeyIndex, Keys, NullMode, Vector};
use crate::opt::live_estimate;
use crate::plan::{PhysicalPlan, VExpr};
use crate::storage::Storage;
use crate::vexec::{self, Batch, CteEnv, ScopeStack, VecCtx};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default morsel size: bounds the rows a streaming operator touches (and
/// the intermediate buffers it allocates) per unit of scheduled work.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Per-row subplan execution (correlated `EXISTS`) is expensive enough that
/// parallelism pays for itself well below one morsel's worth of rows.
pub(crate) const PAR_SUBPLAN_ROWS: usize = 16;

/// Default estimated-row threshold below which a plan runs without a pool
/// even when `workers > 1`: sub-10ms pipelines lose more to thread hand-off
/// than they gain from fan-out, and ~8k rows is where fan-out starts paying
/// for itself.
pub const DEFAULT_MIN_PARALLEL_ROWS: usize = 8192;

/// Execution options for one plan run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads to fan morsels across. `1` runs the same walk with no
    /// pool: every operator takes its whole batch on the calling thread and
    /// no thread is spawned (the case every differential baseline runs on).
    pub workers: usize,
    /// Upper bound on rows per morsel.
    pub morsel_rows: usize,
    /// Plans whose catalog-informed row estimate ([`crate::opt::live_estimate`])
    /// falls below this run without a pool regardless of `workers`. `0`
    /// disables the gate (always fan out when `workers > 1`).
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

/// What the pool did during one execution: how many morsels were dispatched,
/// the peak number of workers simultaneously busy, and each morsel's wall
/// time. All zero for an execution that ran without a pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub morsels_dispatched: u64,
    pub peak_workers: u64,
    pub morsel_nanos: Vec<u64>,
}

/// The worker pool of one plan execution: more than one worker, a morsel
/// size and the tally behind [`ExecStats`], updated by every worker. An
/// execution that would get a pool of one gets none (`VecCtx::pool` is
/// `None`), so it never touches a tally or a thread.
pub(crate) struct Pool {
    workers: usize,
    pub(crate) morsel_rows: usize,
    morsels: AtomicU64,
    active: AtomicU64,
    peak: AtomicU64,
    nanos: Mutex<Vec<u64>>,
}

impl Pool {
    fn new(workers: usize, morsel_rows: usize) -> Pool {
        Pool {
            workers,
            morsel_rows: morsel_rows.max(1),
            morsels: AtomicU64::new(0),
            active: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            nanos: Mutex::new(Vec::new()),
        }
    }

    /// The pool `opts` asks for when running `plan`, if any: none for one
    /// worker, and none when the plan's estimated output (and therefore its
    /// likely working set) is too small for fan-out to pay for the thread
    /// hand-off — the estimate is only computed when `workers > 1`.
    pub(crate) fn for_plan(
        plan: &PhysicalPlan,
        storage: &Storage,
        opts: ExecOptions,
    ) -> Option<Pool> {
        let too_small = || {
            opts.min_parallel_rows > 0
                && live_estimate(plan, storage) < opts.min_parallel_rows as f64
        };
        (opts.workers > 1 && !too_small()).then(|| Pool::new(opts.workers, opts.morsel_rows))
    }

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

    /// What the pool dispatched, once the execution is over.
    pub(crate) fn into_stats(self) -> ExecStats {
        ExecStats {
            morsels_dispatched: self.morsels.into_inner(),
            peak_workers: self.peak.into_inner(),
            morsel_nanos: self.nanos.into_inner().unwrap_or_default(),
        }
    }
}

// ---------------------------------------------------------------------------
// The worker pool primitive
// ---------------------------------------------------------------------------

/// Map `f` over `items` on up to `workers` scoped threads (the caller's
/// included). Items are handed out by an atomic cursor; each worker collects
/// `(index, result)` locally and the results are reassembled **in item
/// order**, so the output is independent of scheduling. The first error (in
/// item order) aborts remaining dispatch and is returned; worker panics
/// propagate to the caller. With one worker or one item no thread is spawned.
pub fn scoped_map<'env, T, R, E, F>(workers: usize, items: &'env [T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &'env T) -> Result<R, E> + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let cursor = AtomicU64::new(0);
    let failed = AtomicBool::new(false);
    let run = || {
        let mut local: Vec<(usize, Result<R, E>)> = Vec::new();
        loop {
            if failed.load(AtomicOrdering::Relaxed) {
                break;
            }
            let i = cursor.fetch_add(1, AtomicOrdering::Relaxed) as usize;
            if i >= n {
                break;
            }
            let r = f(i, &items[i]);
            if r.is_err() {
                failed.store(true, AtomicOrdering::Relaxed);
            }
            local.push((i, r));
        }
        local
    };

    let collected: Vec<Vec<(usize, Result<R, E>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(run)).collect();
        let mut all = vec![run()];
        for h in handles {
            match h.join() {
                Ok(v) => all.push(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });

    // Dispatch only stops early after an error, so the first `Err` in item
    // order — if any — is what `collect` returns.
    let mut all: Vec<(usize, Result<R, E>)> = collected.into_iter().flatten().collect();
    all.sort_unstable_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

/// [`scoped_map`] over morsels: each item counts as one dispatched morsel in
/// the pool's tally, with its wall time.
fn par_map<'env, T, R, F>(pool: &Pool, items: &'env [T], f: F) -> Result<Vec<R>, EngineError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &'env T) -> Result<R, EngineError> + Sync,
{
    scoped_map(pool.workers, items, |i, item| {
        pool.begin();
        let start = Instant::now();
        let r = f(i, item);
        pool.end(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        r
    })
}

/// Split `0..len` into contiguous morsel ranges: at most `morsel_rows`
/// each, and small enough that every worker gets several morsels to keep
/// the atomic-cursor dispatch load-balanced.
fn morsel_ranges(pool: &Pool, len: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let balanced = len.div_ceil(pool.workers * 4).max(1);
    let target = pool.morsel_rows.min(balanced).max(1);
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
// Morsel scheduling around the shared kernels
// ---------------------------------------------------------------------------

/// Run `f` over `0..len` — as one range without a pool, else morsel by
/// morsel on it — and concatenate the outputs in range order.
pub(crate) fn par_ranges<T, F>(pool: Option<&Pool>, len: usize, f: F) -> Result<Vec<T>, EngineError>
where
    T: Send,
    F: Fn(Range<usize>) -> Result<Vec<T>, EngineError> + Sync,
{
    let Some(pool) = pool else {
        return f(0..len);
    };
    let ranges = morsel_ranges(pool, len);
    let chunks = par_map(pool, &ranges, |_, range| f(range.clone()))?;
    Ok(chunks.into_iter().flatten().collect())
}

/// [`Batch::materialised`], gathering each column on its own worker.
pub(crate) fn par_materialise(pool: Option<&Pool>, batch: Batch) -> Result<Batch, EngineError> {
    let Some(pool) = pool.filter(|_| batch.sel.is_some() && batch.columns.len() > 1) else {
        return Ok(batch.materialised());
    };
    let cols: Vec<usize> = (0..batch.columns.len()).collect();
    let columns = par_map(pool, &cols, |_, &c| Ok(Arc::new(batch.gather(c))))?;
    Ok(Batch {
        schema: batch.schema.clone(),
        columns,
        sel: None,
        base_rows: batch.len(),
    })
}

/// Evaluate a list of expressions over every live row of `batch`:
/// expressions that only borrow (columns, constants) cost nothing either
/// way; the ones that compute are evaluated morsel by morsel when the batch
/// engages the pool, and concatenated in morsel order.
pub(crate) fn par_eval_all<'a>(
    ctx: &VecCtx<'_>,
    exprs: &[VExpr],
    batch: &'a Batch,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Vec<Vector<'a>>, EngineError> {
    let seq = ctx.sequential();
    let pool = ctx.engage(batch.len());
    let computes = |e: &VExpr| matches!(e, VExpr::BinOp { .. } | VExpr::Not(_) | VExpr::Exists(_));
    exprs
        .iter()
        .map(|e| match pool.filter(|_| computes(e)) {
            None => vexec::eval(e, batch, batch.rows(), &seq, ctes, scope),
            engaged => par_ranges(engaged, batch.len(), |range| {
                let rows = batch.rows().slice(range);
                Ok(vexec::eval(e, batch, rows, &seq, ctes, scope)?.into_vec())
            })
            .map(Vector::Owned),
        })
        .collect()
}

/// Hash evaluated key columns of `batch`, morsel by morsel on a pool.
pub(crate) fn par_keys<'a>(
    pool: Option<&Pool>,
    cols: Vec<Vector<'a>>,
    batch: &Batch,
) -> Result<Keys<'a>, EngineError> {
    let Some(pool) = pool else {
        return Ok(Keys::new(cols, batch.len()));
    };
    let ranges = morsel_ranges(pool, batch.len());
    let chunks = par_map(pool, &ranges, |_, range| {
        Ok(kernels::hash_keys(&cols, range.clone()))
    })?;
    let hashed = KeyHashes::concat(chunks);
    Ok(Keys { cols, hashed })
}

/// Index a join's build side: on a pool, one hash partition per worker,
/// each built in global build-row order, so every key's match list is the
/// one a single table would hold.
pub(crate) fn par_index<'k>(
    pool: Option<&Pool>,
    build: &'k Keys<'k>,
) -> Result<KeyIndex<'k>, EngineError> {
    let nulls = NullMode::NeverMatches;
    let Some(pool) = pool else {
        return KeyIndex::new(build, nulls);
    };
    let parts: Vec<usize> = (0..pool.workers).collect();
    let tables = par_map(pool, &parts, |_, &p| {
        JoinTable::build(&build.hashed, nulls, p, parts.len())
    })?;
    Ok(KeyIndex::from_partitions(build, nulls, tables))
}

/// [`vexec::join_gather`] with one worker per output column (the unit that
/// avoids any cross-worker writes and any post-merge copy).
pub(crate) fn par_join_gather(
    pool: Option<&Pool>,
    left: &Batch,
    right: &Batch,
    pairs: &[(usize, usize)],
) -> Result<Batch, EngineError> {
    let lw = left.columns.len();
    let width = lw + right.columns.len();
    let Some(pool) = pool.filter(|_| width > 1) else {
        return Ok(vexec::join_gather(left, right, pairs));
    };
    let cols: Vec<usize> = (0..width).collect();
    let columns = par_map(pool, &cols, |_, &c| {
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

/// Stable sort of `0..len` by key: on a pool, per-worker contiguous runs are
/// stably sorted, then merged with a row tie-break — exactly "sorted by
/// (key, row)", which is what one global stable sort produces, so the result
/// is independent of worker count and run boundaries.
pub(crate) fn par_sort(
    pool: Option<&Pool>,
    keys: &[Vector<'_>],
    len: usize,
) -> Result<Vec<usize>, EngineError> {
    let Some(pool) = pool else {
        return Ok(kernels::sort_rows(keys, 0..len));
    };
    let ranges = worker_ranges(len, pool.workers);
    let runs = par_map(pool, &ranges, |_, range| {
        Ok(kernels::sort_rows(keys, range.clone()))
    })?;
    Ok(kernels::merge_sorted_runs(keys, &runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_item_order() {
        let pool = Pool::new(4, 1);
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&pool, &items, |_, &x| Ok(x * 2)).unwrap();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        let snap = pool.into_stats();
        assert_eq!(snap.morsels_dispatched, 100);
        assert!(snap.peak_workers >= 1);
        assert_eq!(snap.morsel_nanos.len(), 100);
    }

    #[test]
    fn par_map_returns_first_error_in_item_order() {
        let pool = Pool::new(4, 1);
        let items: Vec<usize> = (0..64).collect();
        let err = par_map(&pool, &items, |_, &x| {
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
        for (workers, morsel, len) in [(4, 1, 17), (4, 7, 100), (2, 4096, 10_000), (8, 3, 3)] {
            let ranges = morsel_ranges(&Pool::new(workers, morsel), len);
            assert!(ranges.iter().all(|r| r.len() <= morsel && !r.is_empty()));
            let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(flat, (0..len).collect::<Vec<_>>());
        }
        assert!(morsel_ranges(&Pool::new(4, 8), 0).is_empty());
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
        // Lots of duplicate keys to exercise the stability tie-break.
        let keys = [Vector::Owned(
            (0..1000)
                .map(|i| crate::value::SqlValue::Int((i * 37 % 11) as i64))
                .collect(),
        )];
        let expected = kernels::sort_rows(&keys, 0..1000);
        for workers in [2, 3, 8] {
            assert_eq!(
                par_sort(Some(&Pool::new(workers, 16)), &keys, 1000).unwrap(),
                expected
            );
        }
    }
}
