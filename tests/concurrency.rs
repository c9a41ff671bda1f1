//! Concurrency tests: the whole pipeline is `Send + Sync`, one `Shredder`
//! session is shared across worker threads, and concurrent bound executions
//! through the shared plan cache produce exactly the single-threaded oracle
//! results — under every backend and all three indexing schemes — with zero
//! engine-side re-planning. And a multi-stage nested read beside a writer is
//! consistent with one storage state.

use query_shredding::prelude::*;
use query_shredding::{shredding, sqlengine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

fn small_db() -> Database {
    generate(&OrgConfig {
        departments: 3,
        employees_per_department: 5,
        contacts_per_department: 2,
        seed: 23,
        ..OrgConfig::default()
    })
}

/// Every benchmark query the paper evaluates: QF1–QF6 and Q1–Q6.
fn all_benchmark_queries() -> Vec<(&'static str, nrc::Term)> {
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    queries
}

// ---------------------------------------------------------------------------
// Static Send + Sync assertions
// ---------------------------------------------------------------------------

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn the_whole_pipeline_is_send_and_sync() {
    // The session and everything a worker thread holds.
    assert_send_sync::<Shredder>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<Params>();
    assert_send_sync::<ParamSpec>();
    assert_send_sync::<shredding::Bindings>();
    assert_send_sync::<shredding::CacheStats>();
    assert_send_sync::<shredding::BackendPlan>();
    assert_send_sync::<shredding::CompiledQuery>();
    // The engine layer: shared storage, immutable plans, columnar batches.
    assert_send_sync::<sqlengine::Engine>();
    assert_send_sync::<sqlengine::Storage>();
    assert_send_sync::<sqlengine::SqlValue>();
    assert_send_sync::<sqlengine::PhysicalPlan>();
    assert_send_sync::<sqlengine::ResultSet>();
    assert_send_sync::<Arc<sqlengine::Engine>>();
    // Every backend, as trait objects and as the concrete unit structs.
    assert_send_sync::<Box<dyn SqlBackend>>();
    assert_send_sync::<SqlEngineBackend>();
    assert_send_sync::<ShreddedMemoryBackend>();
    assert_send_sync::<NestedOracleBackend>();
    assert_send_sync::<LoopLiftBackend>();
    assert_send_sync::<FlatDefaultBackend>();
    assert_send_sync::<VandenBusscheBackend>();
}

// ---------------------------------------------------------------------------
// Shared-session stress tests
// ---------------------------------------------------------------------------

/// 8 threads hammer one shared `Shredder` with bound executions of every
/// benchmark query; every result must equal the single-threaded oracle
/// output, the engine must never re-plan, and the shared plan cache must
/// serve (almost) every prepare.
#[test]
fn eight_threads_share_one_session_and_agree_with_the_oracle() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;

    let session = Shredder::over(small_db()).unwrap();
    let queries = all_benchmark_queries();

    // Single-threaded phase: prepare every query once (the only cache
    // misses) and record the oracle answer.
    let prepared: Vec<(&'static str, nrc::Term, PreparedQuery, Value)> = queries
        .into_iter()
        .map(|(name, q)| {
            let p = session.prepare(&q).unwrap();
            let expected = session.oracle(&q).unwrap();
            (name, q, p, expected)
        })
        .collect();
    let plans_before = session.engine().unwrap().plans_built();

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let session = session.clone();
            let prepared = &prepared;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    for (name, q, p, expected) in prepared {
                        // Bound execution of the shared prepared handle
                        // (auto-parameterized queries carry their literals
                        // as default bindings).
                        let bound = session
                            .execute_bound(p, p.default_bindings())
                            .unwrap_or_else(|e| panic!("{} bound execution: {}", name, e));
                        assert!(
                            bound.multiset_eq(expected),
                            "{}: concurrent bound execution diverged from the \
                             single-threaded oracle",
                            name
                        );
                        // The ad-hoc path: prepare-from-cache + execute.
                        let ran = session
                            .run(q)
                            .unwrap_or_else(|e| panic!("{} run: {}", name, e));
                        assert!(
                            ran.multiset_eq(expected),
                            "{}: concurrent run diverged",
                            name
                        );
                    }
                }
            });
        }
    });

    // Zero re-planning: the engine's planner was never consulted (stage
    // plans are compiled at prepare time against the schema catalog).
    assert_eq!(
        session.engine().unwrap().plans_built(),
        plans_before,
        "concurrent execution of prepared queries must never re-plan"
    );
    // The shared cache served every concurrent prepare: one miss per query
    // from the warm-up phase, THREADS × ROUNDS hits per query from the
    // threads.
    let stats = session.cache_stats();
    assert_eq!(stats.misses as usize, prepared.len());
    assert_eq!(stats.hits as usize, THREADS * ROUNDS * prepared.len());
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses) as f64;
    assert!(hit_rate > 0.9, "hit rate {} under concurrency", hit_rate);
}

/// The shredded-memory backend under each of the three indexing schemes,
/// shared across 4 threads with explicitly bound parameters.
#[test]
fn all_three_index_schemes_survive_concurrent_bound_execution() {
    const THREADS: usize = 4;

    let db = small_db();
    let query = for_where(
        "e",
        table("employees"),
        gt(project(var("e"), "salary"), int_param("cutoff")),
        singleton(record(vec![
            ("name", project(var("e"), "name")),
            ("tasks", datagen::queries::tasks_of_emp(var("e"))),
        ])),
    );
    let cutoffs: Vec<i64> = vec![0, 10_000, 25_000, 60_000];

    for scheme in IndexScheme::ALL {
        let session = Shredder::builder()
            .database(db.clone())
            .backend(Box::new(ShreddedMemoryBackend::new(scheme)))
            .build()
            .unwrap();
        let prepared = session.prepare(&query).unwrap();
        // Single-threaded oracle answers, one per binding.
        let expected: Vec<Value> = cutoffs
            .iter()
            .map(|&c| {
                session
                    .oracle_bound(&query, &Params::new().bind("cutoff", c))
                    .unwrap()
            })
            .collect();

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let session = session.clone();
                let prepared = prepared.clone();
                let cutoffs = &cutoffs;
                let expected = &expected;
                scope.spawn(move || {
                    // Each thread starts at a different binding so distinct
                    // bindings are in flight simultaneously.
                    for i in 0..cutoffs.len() {
                        let k = (t + i) % cutoffs.len();
                        let value = session
                            .execute_bound(&prepared, &Params::new().bind("cutoff", cutoffs[k]))
                            .unwrap();
                        assert!(
                            value.multiset_eq(&expected[k]),
                            "scheme {} diverged under concurrency at cutoff {}",
                            scheme,
                            cutoffs[k]
                        );
                    }
                });
            }
        });
    }
}

/// Concurrent prepares of distinct ad-hoc queries keep the shared LRU cache
/// consistent: every distinct normal form ends up cached exactly once and
/// later prepares from any thread are hits.
#[test]
fn concurrent_prepares_fill_the_shared_cache_consistently() {
    let session = Shredder::over(small_db()).unwrap();
    let queries = all_benchmark_queries();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let session = session.clone();
            let queries = &queries;
            scope.spawn(move || {
                for (_, q) in queries {
                    session.prepare(q).unwrap();
                }
            });
        }
    });

    let stats = session.cache_stats();
    assert_eq!(
        stats.entries,
        queries.len(),
        "one cache entry per distinct normal form"
    );
    // Racing threads may each miss the same cold key before the first
    // insert lands, so the miss count is ≥ the query count but bounded by
    // the fan-out; everything else must be a hit.
    assert!(
        stats.misses as usize >= queries.len(),
        "got {} misses",
        stats.misses
    );
    assert_eq!((stats.hits + stats.misses) as usize, 4 * queries.len());
    // Afterwards the cache is warm for every thread.
    for (_, q) in &queries {
        assert!(session.prepare(q).unwrap().from_cache());
    }
}

/// A prepared query handle crosses threads and still refuses to execute on a
/// foreign session (the guard rails survive the refactor).
#[test]
fn prepared_handles_cross_threads_but_not_sessions() {
    let sql = Shredder::over(small_db()).unwrap();
    let oracle = Shredder::builder()
        .database(small_db())
        .backend(Box::new(NestedOracleBackend))
        .build()
        .unwrap();
    let prepared = sql.prepare(&datagen::queries::q4()).unwrap();
    let handle = std::thread::spawn(move || prepared);
    let prepared = handle.join().unwrap();
    assert!(sql.execute(&prepared).is_ok());
    assert!(oracle.execute(&prepared).is_err());
}

/// Cloning a session is an `Arc` bump: clones observe each other's cache
/// traffic and share the one engine the session loaded at build.
#[test]
fn clones_share_one_plan_cache_and_one_engine() {
    let session = Shredder::over(small_db()).unwrap();
    let clone = session.clone();
    let q = datagen::queries::q4();

    session.run(&q).unwrap();
    assert!(
        clone.prepare(&q).unwrap().from_cache(),
        "a clone sees plans cached through the original"
    );
    let a = session.shared_engine().unwrap();
    let b = clone.shared_engine().unwrap();
    assert!(
        Arc::ptr_eq(&a, &b),
        "clones share one loaded engine instance"
    );
}

// ---------------------------------------------------------------------------
// Snapshot-consistent nested reads
// ---------------------------------------------------------------------------

/// One package execution reads one storage state. A writer toggles the
/// database between two states — A, and B = A plus a department with three
/// employees, one `apply_batch` each way — for as long as readers run Q4
/// (two stages: departments, and their employees), on a `workers(1)` session
/// and on a `workers(4)` one that fans the stages out. Every value read must
/// be the answer in A or the answer in B. A reader whose stages saw
/// different states returns neither: the new department without its
/// employees, or the employees without their department.
#[test]
fn a_nested_read_beside_a_writer_sees_one_storage_state() {
    const READS_PER_THREAD: usize = 150;

    let one = Shredder::builder()
        .database(small_db())
        .workers(1)
        .build()
        .unwrap();
    let four = Shredder::builder()
        .schema(organisation_schema())
        .engine(one.shared_engine().unwrap())
        .workers(4)
        .build()
        .unwrap();
    let q4 = datagen::queries::q4();

    let dept = vec![
        sqlengine::SqlValue::Int(9_000),
        sqlengine::SqlValue::str("Snapshot"),
    ];
    let employees: Vec<sqlengine::Row> = (0..3)
        .map(|i| {
            vec![
                sqlengine::SqlValue::Int(9_000 + i),
                sqlengine::SqlValue::str("Snapshot"),
                sqlengine::SqlValue::str(format!("snap_{i}")),
                sqlengine::SqlValue::Int(1_000),
            ]
        })
        .collect();
    let mut to_b = WriteBatch::new().insert("departments", dept.clone());
    let mut to_a = WriteBatch::new().delete("departments", dept);
    for row in employees {
        to_b = to_b.insert("employees", row.clone());
        to_a = to_a.delete("employees", row);
    }

    let value_a = one.run(&q4).unwrap();
    one.apply_batch(&to_b).unwrap();
    let value_b = one.run(&q4).unwrap();
    one.apply_batch(&to_a).unwrap();
    assert!(!value_a.multiset_eq(&value_b));
    assert!(one.run(&q4).unwrap().multiset_eq(&value_a));

    let readers = [&one, &four, &one, &four];
    let start = Barrier::new(readers.len() + 1);
    let reading = AtomicUsize::new(readers.len());
    let torn: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(t, session)| {
                let (q4, start, reading) = (&q4, &start, &reading);
                let (value_a, value_b) = (&value_a, &value_b);
                scope.spawn(move || {
                    let prepared = session.prepare(q4).unwrap();
                    start.wait();
                    let torn = (0..READS_PER_THREAD).find_map(|i| {
                        let value = session.execute(&prepared).unwrap();
                        let whole = value.multiset_eq(value_a) || value.multiset_eq(value_b);
                        (!whole).then(|| format!("reader {t}, read {i}: {value}"))
                    });
                    reading.fetch_sub(1, Ordering::SeqCst);
                    torn
                })
            })
            .collect();
        start.wait();
        while reading.load(Ordering::SeqCst) > 0 {
            one.apply_batch(&to_b).unwrap();
            one.apply_batch(&to_a).unwrap();
        }
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("a reader thread panicked"))
            .collect()
    });
    assert!(
        torn.is_empty(),
        "values of neither storage state: {torn:#?}"
    );
}
