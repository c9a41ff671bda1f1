//! Integration tests of the `Shredder` session API: plan-cache behaviour,
//! builder validation, explain output, and backend-vs-oracle agreement
//! across all three indexing schemes on the paper's full benchmark suite
//! (QF1–QF6 and Q1–Q6).

use query_shredding::prelude::*;
use shredding::analysis::codes;
use shredding::ShredError;

fn small_db() -> Database {
    generate(&OrgConfig {
        departments: 3,
        employees_per_department: 5,
        contacts_per_department: 2,
        seed: 11,
        ..OrgConfig::default()
    })
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

#[test]
fn a_second_execution_of_the_same_query_skips_recompilation() {
    let session = Shredder::over(small_db()).unwrap();
    let q = datagen::queries::q4();

    let first = session.run(&q).unwrap();
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1), "first run compiles");

    let second = session.run(&q).unwrap();
    let stats = session.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (1, 1),
        "second run is served from the plan cache without recompiling"
    );
    assert!(first.multiset_eq(&second));

    // The cached handle says so itself.
    assert!(session.prepare(&q).unwrap().from_cache());
}

#[test]
fn cached_plans_re_execute_without_parsing_or_planning() {
    let session = Shredder::over(small_db()).unwrap();
    let q = datagen::queries::q4();

    // First run: one cache miss compiles the stages, including their
    // physical plans (planned against the schema, not the engine).
    session.run(&q).unwrap();
    // Repeat runs are cache hits; execution runs the cached physical plans
    // directly, so the engine itself never parses or plans anything.
    for _ in 0..3 {
        session.run(&q).unwrap();
    }
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (3, 1));
    assert_eq!(
        session.engine().unwrap().plans_built(),
        0,
        "re-executing a cached PreparedQuery must do zero engine-side \
         parsing or planning"
    );
}

#[test]
fn the_cache_is_keyed_on_the_normal_form() {
    let session = Shredder::over(small_db()).unwrap();
    // Two syntactically different writings that normalise to the same
    // normal form (a trivially-true `where` is erased by normalisation)
    // share one cached plan.
    let q1 = for_in(
        "d",
        table("departments"),
        singleton(project(var("d"), "name")),
    );
    let q2 = for_where(
        "d",
        table("departments"),
        boolean(true),
        singleton(project(var("d"), "name")),
    );
    session.prepare(&q1).unwrap();
    let again = session.prepare(&q2).unwrap();
    assert!(
        again.from_cache(),
        "queries with the same normal form should share a cached plan"
    );
}

#[test]
fn distinct_queries_occupy_distinct_cache_entries() {
    let session = Shredder::over(small_db()).unwrap();
    for (_, q) in datagen::queries::nested_queries() {
        session.prepare(&q).unwrap();
    }
    let stats = session.cache_stats();
    assert_eq!(stats.misses, 6);
    assert_eq!(stats.entries, 6);
    assert_eq!(stats.hits, 0);
}

#[test]
fn lru_eviction_bounds_the_cache() {
    let session = Shredder::builder()
        .database(small_db())
        .plan_cache_capacity(2)
        .build()
        .unwrap();
    let queries = datagen::queries::nested_queries();
    for (_, q) in &queries {
        session.prepare(q).unwrap();
    }
    let stats = session.cache_stats();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.evictions, 4);
    // The two most recent plans are hits; older ones were evicted.
    assert!(session.prepare(&queries[5].1).unwrap().from_cache());
    assert!(!session.prepare(&queries[0].1).unwrap().from_cache());
}

#[test]
fn disabled_caches_always_recompile() {
    let session = Shredder::builder()
        .database(small_db())
        .without_plan_cache()
        .build()
        .unwrap();
    let q = datagen::queries::q4();
    assert!(!session.prepare(&q).unwrap().from_cache());
    assert!(!session.prepare(&q).unwrap().from_cache());
    assert_eq!(session.cache_stats(), Default::default());
}

#[test]
fn clearing_the_cache_forces_recompilation() {
    let session = Shredder::over(small_db()).unwrap();
    let q = datagen::queries::q4();
    session.prepare(&q).unwrap();
    session.clear_plan_cache();
    assert!(!session.prepare(&q).unwrap().from_cache());
}

// ---------------------------------------------------------------------------
// The two cache levels: source terms in front of normal forms
// ---------------------------------------------------------------------------

/// Samples the session's registry holds for each front-end stage, and the
/// engine's plan counter: what a prepare that did any work would move.
fn front_end_samples(session: &Shredder) -> Vec<u64> {
    let mut samples: Vec<u64> = [
        "stage.normalise",
        "stage.typecheck",
        "stage.shred",
        "stage.sqlgen",
        "stage.plan",
        "stage.verify",
    ]
    .iter()
    .map(|stage| session.metrics().histogram(stage).count())
    .collect();
    samples.push(session.engine().unwrap().plans_built());
    samples
}

#[test]
fn a_repeat_run_of_a_known_term_does_no_front_end_work() {
    let session = Shredder::over(small_db()).unwrap();
    let q = datagen::queries::q6();
    let first = session.run(&q).unwrap();
    let after_first = front_end_samples(&session);
    assert!(after_first[..6].iter().all(|&n| n > 0), "{after_first:?}");

    for _ in 0..100 {
        assert_eq!(session.run(&q).unwrap(), first);
    }
    assert_eq!(
        front_end_samples(&session),
        after_first,
        "a hit on the source term normalises, typechecks, plans and verifies nothing"
    );
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (100, 1, 1));
    assert_eq!(session.metrics().counter("queries.executed").get(), 101);
}

#[test]
fn one_shape_with_two_constants_hits_and_still_answers_each() {
    let session = Shredder::over(small_db()).unwrap();
    let earning_over = |threshold: i64| {
        for_where(
            "e",
            table("employees"),
            gt(project(var("e"), "salary"), int(threshold)),
            singleton(project(var("e"), "name")),
        )
    };
    let (low, high) = (earning_over(0), earning_over(50_000));
    let everyone = session.run(&low).unwrap();
    let samples = front_end_samples(&session);
    let some = session.run(&high).unwrap();
    assert_eq!(front_end_samples(&session), samples);
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    assert!(everyone.multiset_eq(&session.oracle(&low).unwrap()));
    assert!(some.multiset_eq(&session.oracle(&high).unwrap()));
    assert!(!everyone.multiset_eq(&some), "the constants must matter");
}

#[test]
fn two_terms_with_one_normal_form_share_a_plan_and_keep_their_own_diagnostics() {
    let session = Shredder::over(small_db()).unwrap();
    let plain = for_in(
        "d",
        table("departments"),
        singleton(project(var("d"), "name")),
    );
    // A `where true` that normalisation erases: the same normal form (bound
    // names are part of it, so those stay), and a constant-conditional lint
    // of its own.
    let wordy = for_where(
        "d",
        table("departments"),
        boolean(true),
        singleton(project(var("d"), "name")),
    );
    assert!(session.prepare(&plain).unwrap().check().is_empty());
    for round in 0..2 {
        let prepared = session.prepare(&wordy).unwrap();
        assert!(prepared.from_cache(), "round {round}");
        assert!(
            prepared.check().has_code(codes::CONSTANT_CONDITIONAL),
            "round {round}: {}",
            prepared.check()
        );
        assert!(session.prepare(&plain).unwrap().check().is_empty());
    }
    let stats = session.cache_stats();
    assert_eq!((stats.misses, stats.entries), (1, 1));
    assert_eq!(stats.hits, 4);
    // Normalised twice in all: once per source term.
    assert_eq!(session.metrics().histogram("stage.typecheck").count(), 2);
}

#[test]
fn evicting_a_plan_forgets_the_terms_that_led_to_it() {
    let session = Shredder::builder()
        .database(small_db())
        .plan_cache_capacity(1)
        .build()
        .unwrap();
    let queries = datagen::queries::nested_queries();
    let (first, second, third) = (&queries[0].1, &queries[1].1, &queries[2].1);
    for q in [first, second, third] {
        assert!(!session.prepare(q).unwrap().from_cache());
    }
    assert!(session.prepare(third).unwrap().from_cache());
    let typechecked = session.metrics().histogram("stage.typecheck").count();
    // The first query's plan is gone, and so is the shortcut to it: it is
    // normalised and planned again.
    assert!(!session.prepare(first).unwrap().from_cache());
    assert_eq!(
        session.metrics().histogram("stage.typecheck").count(),
        typechecked + 1
    );
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 4));
    assert_eq!((stats.entries, stats.evictions), (1, 3));
}

#[test]
fn clearing_the_cache_empties_both_levels() {
    let session = Shredder::over(small_db()).unwrap();
    let q = datagen::queries::q2();
    session.prepare(&q).unwrap();
    assert!(session.prepare(&q).unwrap().from_cache());
    let samples = front_end_samples(&session);
    session.clear_plan_cache();
    assert_eq!(session.cache_stats().entries, 0);
    assert!(!session.prepare(&q).unwrap().from_cache());
    assert_ne!(front_end_samples(&session), samples);
    assert_eq!(session.cache_stats().misses, 2);
}

#[test]
fn uncached_prepares_leave_no_trace_in_either_level() {
    let q = datagen::queries::q2();
    let cacheless = Shredder::builder()
        .database(small_db())
        .without_plan_cache()
        .build()
        .unwrap();
    for n in 1..=3 {
        cacheless.run(&q).unwrap();
        assert_eq!(cacheless.metrics().histogram("stage.typecheck").count(), n);
    }
    assert_eq!(cacheless.cache_stats(), Default::default());
}

// ---------------------------------------------------------------------------
// Terms the rewriter used to get wrong
// ---------------------------------------------------------------------------

#[test]
fn a_binder_renamed_past_its_own_primed_name_is_not_captured() {
    // Hoisting `for (y ← employees)` out of the source of `x` has to rename
    // y, and the body already uses both y and y~.
    let session = Shredder::over(generate(&OrgConfig::small())).unwrap();
    let q = for_in(
        "y~",
        table("departments"),
        for_in(
            "y",
            table("departments"),
            for_in(
                "x",
                for_in(
                    "y",
                    table("employees"),
                    singleton(project(var("y"), "name")),
                ),
                singleton(record(vec![
                    ("e", var("x")),
                    ("d1", project(var("y"), "name")),
                    ("d2", project(var("y~"), "name")),
                ])),
            ),
        ),
    );
    let expected = session.oracle(&q).unwrap();
    assert!(session.run(&q).unwrap().multiset_eq(&expected));
}

#[test]
fn terms_without_a_normal_form_are_an_error_not_a_hang_or_an_abort() {
    let session = Shredder::over(small_db()).unwrap();
    let twice = lam("x", app(var("x"), var("x")));
    let thrice = lam("x", app(app(var("x"), var("x")), var("x")));
    for w in [twice, thrice] {
        let start = std::time::Instant::now();
        let result = session.run(&app(w.clone(), w));
        assert!(
            matches!(result, Err(ShredError::RewriteDiverged)),
            "{result:?}"
        );
        assert!(start.elapsed().as_secs() < 1);
    }
    assert_eq!(session.cache_stats(), Default::default());
}

// ---------------------------------------------------------------------------
// Builder validation
// ---------------------------------------------------------------------------

#[test]
fn building_without_schema_or_database_fails() {
    let err = Shredder::builder().build().unwrap_err();
    assert!(err.to_string().contains("schema"), "got: {}", err);
}

#[test]
fn building_with_a_mismatched_schema_fails() {
    let other = Schema::new().with_table(TableSchema::new(
        "unrelated",
        vec![("x", nrc::BaseType::Int)],
    ));
    let err = Shredder::builder()
        .schema(other)
        .database(small_db())
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("differs"), "got: {}", err);
}

#[test]
fn building_with_a_zero_capacity_cache_fails() {
    let err = Shredder::builder()
        .database(small_db())
        .plan_cache_capacity(0)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("non-zero"), "got: {}", err);
}

#[test]
fn cache_capacity_and_without_cache_are_mutually_exclusive() {
    let err = Shredder::builder()
        .database(small_db())
        .plan_cache_capacity(8)
        .without_plan_cache()
        .build()
        .unwrap_err();
    assert!(
        err.to_string().contains("mutually exclusive"),
        "got: {}",
        err
    );
}

#[test]
fn schema_only_sessions_plan_but_refuse_to_execute() {
    let planner = Shredder::builder()
        .schema(organisation_schema())
        .build()
        .unwrap();
    let prepared = planner.prepare(&datagen::queries::q6()).unwrap();
    assert_eq!(prepared.query_count(), 3);
    let err = planner.execute(&prepared).unwrap_err();
    assert!(err.to_string().contains("no database"), "got: {}", err);
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

#[test]
fn explain_reports_per_stage_sql_indexes_and_layout() {
    let session = Shredder::over(small_db()).unwrap();
    let prepared = session.prepare(&datagen::queries::q6()).unwrap();
    let explain = prepared.explain();
    assert_eq!(explain.backend, "sqlengine");
    assert_eq!(explain.stages.len(), 3);
    assert!(!explain.static_indexes.is_empty());
    for stage in &explain.stages {
        assert!(stage.sql.is_some());
        assert!(!stage.columns.is_empty());
        assert!(
            stage.physical.is_some(),
            "the sqlengine backend pre-plans every stage"
        );
    }
    let text = explain.to_string();
    assert!(text.contains("backend=sqlengine"));
    assert!(text.contains("WITH") || text.contains("SELECT"), "{}", text);
    assert!(
        text.contains("ROW_NUMBER"),
        "inner stages number their rows"
    );
    assert!(
        text.contains("physical plan:") && text.contains("TableScan"),
        "explain renders the physical plan alongside the SQL:\n{}",
        text
    );
}

// ---------------------------------------------------------------------------
// Backend-vs-oracle agreement on the full benchmark suite
// ---------------------------------------------------------------------------

/// Every benchmark query the paper evaluates: QF1–QF6 and Q1–Q6.
fn all_benchmark_queries() -> Vec<(&'static str, nrc::Term)> {
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    queries
}

#[test]
fn the_sqlengine_backend_agrees_with_the_oracle_on_every_benchmark_query() {
    let session = Shredder::over(small_db()).unwrap();
    for (name, q) in all_benchmark_queries() {
        let reference = session.oracle(&q).unwrap();
        let value = session.run(&q).unwrap();
        assert!(value.multiset_eq(&reference), "{} via sqlengine", name);
    }
}

#[test]
fn the_shredded_memory_backend_agrees_with_the_oracle_under_every_scheme() {
    let db = small_db();
    let oracle = Shredder::builder()
        .database(db.clone())
        .backend(Box::new(NestedOracleBackend))
        .build()
        .unwrap();
    for scheme in IndexScheme::ALL {
        let session = Shredder::builder()
            .database(db.clone())
            .backend(Box::new(ShreddedMemoryBackend::new(scheme)))
            .build()
            .unwrap();
        for (name, q) in all_benchmark_queries() {
            let reference = oracle.run(&q).unwrap();
            let value = session.run(&q).unwrap();
            assert!(
                value.multiset_eq(&reference),
                "{} via shredded-memory under {} indexes",
                name,
                scheme
            );
        }
    }
}

#[test]
fn the_looplift_backend_agrees_with_the_oracle_on_every_benchmark_query() {
    let session = Shredder::builder()
        .database(small_db())
        .backend(Box::new(LoopLiftBackend))
        .build()
        .unwrap();
    for (name, q) in all_benchmark_queries() {
        let reference = session.oracle(&q).unwrap();
        let value = session.run(&q).unwrap();
        assert!(value.multiset_eq(&reference), "{} via looplift", name);
    }
}

#[test]
fn the_flat_backend_agrees_on_flat_queries_and_rejects_nested_ones() {
    let session = Shredder::builder()
        .database(small_db())
        .backend(Box::new(FlatDefaultBackend))
        .build()
        .unwrap();
    for (name, q) in datagen::queries::flat_queries() {
        let reference = session.oracle(&q).unwrap();
        let value = session.run(&q).unwrap();
        assert!(value.multiset_eq(&reference), "{} via flat-default", name);
    }
    let planner = Shredder::builder()
        .schema(organisation_schema())
        .build()
        .unwrap();
    for (name, q) in datagen::queries::nested_queries() {
        // Q2's result happens to be flat (nesting degree 1); every query
        // with a genuinely nested result must be rejected like stock Links.
        let degree = planner.prepare(&q).unwrap().result_type().nesting_degree();
        if degree > 1 {
            assert!(session.prepare(&q).is_err(), "{} must be rejected", name);
        } else {
            let reference = session.oracle(&q).unwrap();
            assert!(session.run(&q).unwrap().multiset_eq(&reference), "{}", name);
        }
    }
}

/// A shredded-memory plan is the normal form and its shredded package;
/// neither depends on the index scheme, which is read only at execution. So
/// a handle prepared under one scheme runs under every other.
#[test]
fn a_shredded_memory_handle_runs_under_any_scheme() {
    let db = small_db();
    let in_memory = |scheme| {
        Shredder::builder()
            .database(db.clone())
            .backend(Box::new(ShreddedMemoryBackend::new(scheme)))
            .build()
            .unwrap()
    };
    let q = datagen::queries::q4();
    let flat = in_memory(IndexScheme::Flat);
    let prepared = flat.prepare(&q).unwrap();
    let reference = flat.oracle(&q).unwrap();
    for scheme in [IndexScheme::Natural, IndexScheme::Canonical] {
        let value = in_memory(scheme).execute(&prepared).unwrap();
        assert!(value.multiset_eq(&reference), "under {} indexes", scheme);
    }
}

#[test]
fn prepared_queries_do_not_cross_sessions_with_different_schemas() {
    let schema = Schema::new().with_table(
        TableSchema::new("items", vec![("id", nrc::BaseType::Int)]).with_key(vec!["id"]),
    );
    let other = Shredder::builder().schema(schema).build().unwrap();
    let planner = Shredder::builder()
        .schema(organisation_schema())
        .build()
        .unwrap();
    let prepared = planner.prepare(&datagen::queries::q4()).unwrap();
    let err = other.execute(&prepared).unwrap_err();
    assert!(err.to_string().contains("schema"), "got: {}", err);
}

#[test]
fn prepared_queries_do_not_cross_sessions_with_different_backends() {
    let db = small_db();
    let sql = Shredder::over(db.clone()).unwrap();
    let lifting = Shredder::builder()
        .database(db)
        .backend(Box::new(LoopLiftBackend))
        .build()
        .unwrap();
    let prepared = sql.prepare(&datagen::queries::q4()).unwrap();
    let err = lifting.execute(&prepared).unwrap_err();
    assert!(err.to_string().contains("backend"), "got: {}", err);
}
