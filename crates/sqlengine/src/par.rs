//! Package-level parallelism: stage fan-out and the stitch split.
//!
//! A shredded package is a tree of independent flat stages, and
//! `core::pipeline` runs them concurrently through [`scoped_map`] on up to
//! [`ExecOptions::workers`] threads; `core::stitch` then spends the same
//! budget on contiguous chunks of a large package's top-level bag. Inside a
//! stage every operator of [`crate::vexec`] runs its kernel once over its
//! whole batch on the calling thread; nothing here schedules work below a
//! plan. Results are reassembled **in item order**, which is what makes
//! execution deterministic:
//!
//! > for every package, every parameter binding and every storage state,
//! > execution produces byte-identical results at *any* worker count.
//!
//! See `DESIGN.md` § Stage-parallel execution for why these are the levels
//! kept.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};

/// Execution options for one package run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Threads to run a package's stages, and then the chunks of its stitch,
    /// on. `1` runs everything one after another on the calling thread and
    /// spawns nothing.
    pub workers: usize,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions { workers: 1 }
    }
}

impl ExecOptions {
    /// Options with `workers` threads (at least one).
    pub fn with_workers(workers: usize) -> ExecOptions {
        ExecOptions {
            workers: workers.max(1),
        }
    }
}

/// What intra-operator parallelism did during one plan execution. The
/// executor has none, so this is always `ExecStats::default()`; it stays only
/// because the benchmark adapter names it, and the next benchmark change
/// retires it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub morsels_dispatched: u64,
    pub peak_workers: u64,
    pub morsel_nanos: Vec<u64>,
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_map_preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let out: Result<Vec<usize>, ()> = scoped_map(4, &items, |_, &x| Ok(x * 2));
        assert_eq!(out.unwrap(), (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_map_returns_first_error_in_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let err = scoped_map(4, &items, |_, &x| {
            if x >= 10 {
                Err(format!("boom {x}"))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        // Workers may hit later failing items first, but the reported error
        // is the smallest failing index among those actually executed —
        // item 10 always executes because dispatch is in index order and
        // nothing before it fails.
        assert_eq!(err, "boom 10");
    }
}
