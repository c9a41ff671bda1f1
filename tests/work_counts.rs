//! Work counts beside the stopwatch: what one warm pass over the benchmark
//! queries and one live-view write do, counted instead of timed, and pinned
//! in `tests/golden/work_counts.golden`.
//!
//! Wall time on a shared host drifts by tens of percent between runs of the
//! same build; heap allocations and operator row counts do not. At a fixed
//! seed, 128 departments and `workers(1)`, the test records for each of the
//! twelve queries (QF1–QF6, Q1–Q6), executed warm:
//!
//! * the heap allocations and bytes requested by one `execute`;
//! * the rows out of each operator kind, summed over the stages (from the
//!   profile of one `execute_profiled`);
//! * the values in the nested result, every record, bag and base value
//!   counted once.
//!
//! It then subscribes to Q1–Q6, reads each view once, commits one fixed
//! 64-op write batch and records the session's `delta.rows` counter, and
//! per view the allocations and values of its first read after the batch.
//!
//! Row, value and reseed counts must match the golden file exactly;
//! allocation and byte counts within ±1 %, which absorbs a toolchain's
//! small differences between hosts. The file is recorded by a debug build
//! (`cargo test`, as tier-1 and CI run it); regenerate it with
//! `UPDATE_GOLDEN=1 cargo test --test work_counts`. An optimised build
//! elides some allocations (QF3 makes 165 instead of 214), so under
//! `--release` only the exact counts are compared.
//!
//! The counting allocator needs `unsafe impl GlobalAlloc`. Every library
//! crate of the workspace forbids unsafe code; this test binary is the one
//! place that holds any (see DESIGN.md).

use query_shredding::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every allocation and reallocation and the bytes each
/// one asks for.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the allocations and bytes it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let r = f();
    (r, ALLOCS.load(Relaxed) - a0, BYTES.load(Relaxed) - b0)
}

/// Every value in a nested value, itself included.
fn values(v: &Value) -> u64 {
    1 + match v {
        Value::Record(fields) => fields.iter().map(|(_, f)| values(f)).sum(),
        Value::Bag(items) => items.iter().map(values).sum(),
        _ => 0,
    }
}

const SEED: u64 = 41;
const DEPARTMENTS: usize = 128;
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/work_counts.golden"
);

/// The counts, one `subject metric count` line each.
fn work_counts() -> String {
    let db = generate(&OrgConfig {
        seed: SEED,
        ..OrgConfig::paper(DEPARTMENTS)
    });
    let session = Shredder::builder()
        .database(db.clone())
        .workers(1)
        .build()
        .unwrap();
    let mut out = String::new();
    let queries = datagen::queries::flat_queries()
        .into_iter()
        .chain(datagen::queries::nested_queries());
    for (name, q) in queries {
        let prepared = session.prepare(&q).unwrap();
        session.execute(&prepared).unwrap();
        let (value, allocs, bytes) = counted(|| session.execute(&prepared).unwrap());
        writeln!(out, "{name} allocs {allocs}").unwrap();
        writeln!(out, "{name} bytes {bytes}").unwrap();
        writeln!(out, "{name} values {}", values(&value)).unwrap();
        session.execute_profiled(&prepared, &Params::new()).unwrap();
        let profile = session.recent_profiles().pop().unwrap();
        let mut rows: BTreeMap<&str, u64> = BTreeMap::new();
        for op in &profile.operators {
            *rows.entry(op.op.as_str()).or_default() += op.rows_out;
        }
        for (op, n) in rows {
            writeln!(out, "{name} rows_out.{op} {n}").unwrap();
        }
    }

    let nested = datagen::queries::nested_queries();
    let views: Vec<_> = nested
        .iter()
        .map(|(_, q)| session.subscribe(&session.prepare(q).unwrap()).unwrap())
        .collect();
    views.iter().for_each(|v| drop(v.value().unwrap()));
    let mut stream = MutationStream::over(
        &db,
        MutationConfig {
            ops_per_batch: 64,
            seed: SEED,
            ..MutationConfig::default()
        },
    );
    session.apply_batch(&stream.next_batch()).unwrap();
    let delta_rows = session.metrics_snapshot().counter("delta.rows").unwrap();
    writeln!(out, "write delta.rows {delta_rows}").unwrap();
    for ((name, _), view) in nested.iter().zip(&views) {
        let (value, allocs, bytes) = counted(|| view.value().unwrap());
        writeln!(out, "view.{name} allocs {allocs}").unwrap();
        writeln!(out, "view.{name} bytes {bytes}").unwrap();
        writeln!(out, "view.{name} values {}", values(&value)).unwrap();
        writeln!(out, "view.{name} reseeds {}", view.reseeds()).unwrap();
    }
    out
}

/// `subject metric` → count.
fn parse(counts: &str) -> BTreeMap<&str, u64> {
    counts
        .lines()
        .map(|line| {
            let (key, n) = line.rsplit_once(' ').expect("`subject metric count` lines");
            (key, n.parse().expect("a count"))
        })
        .collect()
}

#[test]
fn work_counts_match_the_golden_file() {
    let actual = work_counts();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("the golden file exists");
    let (want, got) = (parse(&golden), parse(&actual));
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "the counted subjects changed; rerun with UPDATE_GOLDEN=1 if intended"
    );
    let drifted: Vec<String> = want
        .iter()
        .filter(|&(key, &w)| {
            let g = got[key];
            if key.ends_with(" allocs") || key.ends_with(" bytes") {
                cfg!(debug_assertions) && g.abs_diff(w) * 100 > w
            } else {
                g != w
            }
        })
        .map(|(key, w)| format!("{key}: golden {w}, now {}", got[key]))
        .collect();
    assert!(
        drifted.is_empty(),
        "work counts drifted from tests/golden/work_counts.golden (rows and values exactly, \
         allocations and bytes beyond ±1 %); rerun with UPDATE_GOLDEN=1 if intended:\n{}",
        drifted.join("\n")
    );
}
