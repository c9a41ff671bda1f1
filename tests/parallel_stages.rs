//! Differential tests of stage-parallel execution: a session built with
//! `workers(4)` runs a package's stages concurrently and must return results
//! *identical* (not merely multiset-equal) to the `workers(1)` baseline for
//! every benchmark query, under every indexing scheme — and both must agree
//! with the interpreter oracle.
//!
//! Also covers the two parallel-specific regressions: live views seeded by
//! a parallel execution behave identically to sequentially-seeded ones, and
//! `explain_analyze()` actuals stay exact when stages record from several
//! threads at once.

use query_shredding::prelude::*;
use query_shredding::shredding::pipeline;
use query_shredding::sqlengine::{ExecOptions, ExecStats, ParamValues};

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

// ---------------------------------------------------------------------------
// The full differential matrix: 12 queries × 3 schemes × workers {1, 4}
// ---------------------------------------------------------------------------

/// The acceptance bar of stage-parallel execution: for every benchmark query
/// under every indexing scheme, a `workers(4)` session returns a value
/// strictly equal to the `workers(1)` baseline (stage results are
/// reassembled in the package's stage order, so scheduling cannot show), and
/// both agree with the nested interpreter oracle.
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
        let parallel = Shredder::builder()
            .database(db.clone())
            .index_scheme(scheme)
            .workers(4)
            .build()
            .unwrap();
        for (i, (name, q)) in queries.iter().enumerate() {
            let value = parallel.execute(&parallel.prepare(q).unwrap()).unwrap();
            assert_eq!(
                value, baselines[i],
                "{name} under {scheme} indexes: workers(4) diverged from the workers(1) baseline"
            );
            assert!(
                value.multiset_eq(&oracles[i]),
                "{name} under {scheme} indexes: workers(4) diverged from the interpreter oracle"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Live views seeded by a parallel execution
// ---------------------------------------------------------------------------

/// `subscribe()` output is unchanged when the seeding execution ran
/// parallel: a `workers(4)` session and a `workers(1)` session hold
/// identical live values initially and after every committed write batch.
/// The delta path itself is always sequential — this proves the parallel
/// seeding feeds it the exact same shredded state.
#[test]
fn live_views_are_unchanged_when_the_seeding_execution_ran_parallel() {
    let db = small_db();
    let parallel = Shredder::builder()
        .database(db.clone())
        .workers(4)
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

/// Per-operator actuals survive stage fan-out: at `workers(4)` the root
/// operator of every stage still reports exactly the stage's result
/// cardinality as rows_out, matching the oracle — no samples are lost or
/// double-counted when stages record from several threads.
#[test]
fn explain_analyze_root_rows_out_matches_oracle_cardinality_at_four_workers() {
    let session = Shredder::builder()
        .database(small_db())
        .profile(true)
        .workers(4)
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
// No parallelism below a plan
// ---------------------------------------------------------------------------

/// A plan runs whole on one thread whatever the worker count: the three
/// `Engine::*_opts` methods report `ExecStats::default()` at `workers(4)`.
#[test]
fn the_engine_reports_no_intra_operator_parallelism_at_four_workers() {
    let engine = pipeline::engine_from_database(&small_db()).unwrap();
    let compiled = pipeline::compile(&datagen::queries::q4(), &organisation_schema()).unwrap();
    let params = ParamValues::new();
    let opts = ExecOptions::with_workers(4);
    for stage in compiled.stages.annotations() {
        let (_, bound) = engine
            .execute_plan_bound_opts(&stage.plan, &params, opts)
            .unwrap();
        let (_, ctes) = engine
            .execute_plan_bound_ctes_opts(&stage.plan, &params, &[], opts)
            .unwrap();
        let (_, _, profiled) = engine
            .execute_plan_profiled_opts(&stage.plan, &params, opts)
            .unwrap();
        for stats in [bound, ctes, profiled] {
            assert_eq!(stats, ExecStats::default());
        }
    }
}
