//! Differential tests of morsel-parallel execution: a session built with
//! `workers(4)` must return results *identical* (not merely multiset-equal)
//! to the `workers(1)` sequential baseline for every benchmark query, under
//! every indexing scheme, at every morsel size — and both must agree with
//! the interpreter oracle. Morsel sizes 1 and 7 force every operator down
//! its parallel arm even on the small test database; 4096 is the default.
//!
//! Also covers the two parallel-specific regressions: live views seeded by
//! a parallel execution behave identically to sequentially-seeded ones, and
//! `explain_analyze()` actuals stay exact when operators record from many
//! workers at once — and both sides of the executor's per-operator choice:
//! an execution without a pool dispatches nothing, one with a pool and
//! one-row morsels dispatches, and the two agree row for row and node for
//! node.

use query_shredding::prelude::*;
use query_shredding::shredding::pipeline;
use query_shredding::sqlengine::{
    execute_plan, ExecOptions, ExecRequest, ExecStats, Execution, ParamValues,
};

fn small_db() -> Database {
    generate(&OrgConfig {
        departments: 4,
        employees_per_department: 6,
        contacts_per_department: 3,
        seed: 7,
        ..OrgConfig::default()
    })
}

/// Every benchmark query the paper evaluates: QF1–QF6 and Q1–Q6.
fn all_benchmark_queries() -> Vec<(&'static str, nrc::Term)> {
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    queries
}

const MORSEL_SIZES: [usize; 3] = [1, 7, 4096];

// ---------------------------------------------------------------------------
// The full differential matrix: 12 queries × 3 schemes × 3 morsel sizes
// ---------------------------------------------------------------------------

/// The acceptance bar of the morsel-parallel executor: for every benchmark
/// query under every indexing scheme, a `workers(4)` session returns a value
/// strictly equal to the `workers(1)` baseline at every morsel size (the
/// executor is deterministic by construction — morsel results are reassembled
/// in morsel order), and both agree with the nested interpreter oracle.
/// Strict equality across morsel sizes also rules out any morsel-size
/// -dependent answer.
#[test]
fn parallel_execution_matches_single_worker_and_oracle_everywhere() {
    let db = small_db();
    let queries = all_benchmark_queries();
    // The oracle evaluates the nested reference semantics directly on the
    // database, so it is scheme-independent: compute it once per query.
    let oracle_session = Shredder::over(db.clone()).unwrap();
    let oracles: Vec<Value> = queries
        .iter()
        .map(|(_, q)| oracle_session.oracle(q).unwrap())
        .collect();

    for scheme in IndexScheme::ALL {
        let single = Shredder::builder()
            .database(db.clone())
            .index_scheme(scheme)
            .workers(1)
            .build()
            .unwrap();
        let baselines: Vec<Value> = queries
            .iter()
            .map(|(_, q)| single.execute(&single.prepare(q).unwrap()).unwrap())
            .collect();
        for (baseline, reference) in baselines.iter().zip(&oracles) {
            // Sanity: the sequential baseline itself matches the oracle.
            assert!(baseline.multiset_eq(reference));
        }
        for morsel_rows in MORSEL_SIZES {
            let parallel = Shredder::builder()
                .database(db.clone())
                .index_scheme(scheme)
                .workers(4)
                .morsel_rows(morsel_rows)
                .build()
                .unwrap();
            for (i, (name, q)) in queries.iter().enumerate() {
                let value = parallel.execute(&parallel.prepare(q).unwrap()).unwrap();
                assert_eq!(
                    value, baselines[i],
                    "{name} under {scheme} indexes at morsel size {morsel_rows}: \
                     workers(4) diverged from the workers(1) baseline"
                );
                assert!(
                    value.multiset_eq(&oracles[i]),
                    "{name} under {scheme} indexes at morsel size {morsel_rows}: \
                     workers(4) diverged from the interpreter oracle"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Live views seeded by a parallel execution
// ---------------------------------------------------------------------------

/// `subscribe()` output is unchanged when the seeding execution ran
/// parallel: a `workers(4)` session with morsel size 1 (every operator on
/// its parallel arm) and a `workers(1)` session hold identical live values
/// initially and after every committed write batch. The delta path itself
/// is always sequential — this proves the parallel seeding feeds it the
/// exact same shredded state.
#[test]
fn live_views_are_unchanged_when_the_seeding_execution_ran_parallel() {
    let db = small_db();
    let parallel = Shredder::builder()
        .database(db.clone())
        .workers(4)
        .morsel_rows(1)
        .build()
        .unwrap();
    let single = Shredder::builder()
        .database(db.clone())
        .workers(1)
        .build()
        .unwrap();

    let queries = datagen::queries::nested_queries();
    let subs: Vec<_> = queries
        .iter()
        .take(3)
        .map(|(_, q)| {
            let sp = parallel.subscribe(&parallel.prepare(q).unwrap()).unwrap();
            let ss = single.subscribe(&single.prepare(q).unwrap()).unwrap();
            (sp, ss)
        })
        .collect();
    for (sp, ss) in &subs {
        assert_eq!(
            sp.value().unwrap(),
            ss.value().unwrap(),
            "parallel seeding changed the initial live value"
        );
    }

    // Apply the same deterministic mutation stream to both sessions.
    let stream_config = || MutationConfig {
        ops_per_batch: 3,
        seed: 13,
        ..MutationConfig::default()
    };
    let mut parallel_stream = MutationStream::over(&db, stream_config());
    let mut single_stream = MutationStream::over(&db, stream_config());
    for round in 0..5 {
        parallel.apply_batch(&parallel_stream.next_batch()).unwrap();
        single.apply_batch(&single_stream.next_batch()).unwrap();
        for (i, (sp, ss)) in subs.iter().enumerate() {
            assert_eq!(
                sp.value().unwrap(),
                ss.value().unwrap(),
                "subscription {i} diverged after batch {round}"
            );
            assert_eq!(sp.generation(), ss.generation());
        }
    }
}

// ---------------------------------------------------------------------------
// explain_analyze() actuals stay exact under parallelism
// ---------------------------------------------------------------------------

/// Per-operator actuals are aggregated atomically across workers: at
/// `workers(4)` with morsel size 1 the root operator of every stage still
/// reports exactly the stage's result cardinality as rows_out, matching the
/// oracle — no samples are lost or double-counted under concurrency.
#[test]
fn explain_analyze_root_rows_out_matches_oracle_cardinality_at_four_workers() {
    let session = Shredder::builder()
        .database(small_db())
        .profile(true)
        .workers(4)
        .morsel_rows(1)
        .build()
        .unwrap();
    let q = datagen::queries::q4();
    let prepared = session.prepare(&q).unwrap();
    session.execute(&prepared).unwrap();

    // Oracle cardinalities: one outer row per department, one inner row per
    // (department, employee) pair.
    let oracle = session.oracle(&q).unwrap();
    let outer = oracle.as_bag().unwrap();
    let inner_total: usize = outer
        .iter()
        .map(|row| {
            let fields = row.as_record().unwrap();
            let (_, employees) = fields.iter().find(|(l, _)| l == "employees").unwrap();
            employees.as_bag().unwrap().len()
        })
        .sum();
    assert_eq!(outer.len(), 4);
    assert!(inner_total > outer.len());

    let profiles = session.recent_profiles();
    let profile = profiles.last().expect("the default ring sink records");
    assert!(profile.profiled);
    let root_rows = |stage: usize| {
        profile
            .operators
            .iter()
            .find(|op| op.stage == stage && op.node == 0)
            .unwrap_or_else(|| panic!("stage {} has a root operator", stage))
            .rows_out
    };
    assert_eq!(root_rows(0) as usize, outer.len());
    assert_eq!(root_rows(1) as usize, inner_total);

    let analyzed = prepared.explain_analyze().unwrap();
    assert!(
        analyzed.contains(&format!("rows_out={}", outer.len())),
        "{analyzed}"
    );
    assert!(
        analyzed.contains(&format!("rows_out={}", inner_total)),
        "{analyzed}"
    );
}

// ---------------------------------------------------------------------------
// One walk, with and without a pool
// ---------------------------------------------------------------------------

/// Every stage plan of every benchmark query through the engine's one
/// execution function: `workers(1)` never touches the pool (its stats are
/// `ExecStats::default()`), `workers(4)` with one-row morsels and the
/// small-plan gate off dispatches morsels, the two results are identical
/// cell for cell and in row order, and profiled runs of both report the
/// same `rows_out` (and execution count) for every plan node.
#[test]
fn the_walk_is_the_same_with_and_without_a_pool() {
    let engine = pipeline::engine_from_database(&small_db()).unwrap();
    let schema = organisation_schema();
    let storage = engine.storage();
    let params = ParamValues::new();
    let pooled = ExecOptions {
        workers: 4,
        morsel_rows: 1,
        min_parallel_rows: 0,
    };
    for (name, q) in all_benchmark_queries() {
        let compiled = pipeline::compile(&q, &schema).unwrap();
        let mut morsels = 0;
        for (i, stage) in compiled.stages.annotations().into_iter().enumerate() {
            let run = |opts: ExecOptions, profile: bool| -> Execution {
                let req = ExecRequest {
                    profile,
                    opts,
                    ..ExecRequest::new(&params)
                };
                execute_plan(&stage.plan, &storage, &req).unwrap()
            };
            let one = run(ExecOptions::with_workers(1), false);
            assert_eq!(
                one.stats,
                ExecStats::default(),
                "{name} stage {i}: workers(1) touched the pool"
            );
            let four = run(pooled, false);
            morsels += four.stats.morsels_dispatched;
            assert!(four.stats.peak_workers <= 4);
            assert_eq!(
                four.result.clone().into_result_set(),
                one.result.into_result_set(),
                "{name} stage {i}: the pooled result differs"
            );

            let one = run(ExecOptions::with_workers(1), true);
            let four = run(pooled, true);
            let per_node = |e: &Execution| -> Vec<(u64, u64)> {
                let ops = &e.profile.as_ref().expect("a profiled run").ops;
                ops.iter().map(|a| (a.batches, a.rows_out)).collect()
            };
            assert_eq!(
                per_node(&four),
                per_node(&one),
                "{name} stage {i}: per-node actuals differ under a pool"
            );
            assert_eq!(four.result.len() as u64, per_node(&four)[0].1);
        }
        assert!(morsels > 0, "{name}: no morsel was dispatched");
    }
}
