//! Differential tests of parameterized prepared queries: bound-parameter
//! execution must equal constant-inlined execution on every benchmark query,
//! across every backend and all three indexing schemes; the plan cache must
//! key on the param *shape* (same shape + different constants = cache hit);
//! and re-executing a prepared shape with fresh bindings must do zero
//! engine-side parsing or planning.

use query_shredding::prelude::*;
use query_shredding::shredding::auto_parameterize;
use query_shredding::shredding::error::ShredError;
use query_shredding::sqlengine;

fn small_db() -> Database {
    generate(&OrgConfig {
        departments: 3,
        employees_per_department: 5,
        contacts_per_department: 2,
        seed: 23,
        ..OrgConfig::default()
    })
}

/// A nested query filtering on two explicit parameters: employees of the
/// department `?dpt` earning more than `?cutoff`, with their tasks.
fn parameterized_nested_query() -> nrc::Term {
    for_where(
        "e",
        table("employees"),
        and(
            eq(project(var("e"), "dept"), string_param("dpt")),
            gt(project(var("e"), "salary"), int_param("cutoff")),
        ),
        singleton(record(vec![
            ("name", project(var("e"), "name")),
            (
                "tasks",
                for_where(
                    "t",
                    table("tasks"),
                    eq(project(var("t"), "employee"), project(var("e"), "name")),
                    singleton(project(var("t"), "task")),
                ),
            ),
        ])),
    )
}

/// The same query with the constants inlined.
fn inlined_nested_query(dpt: &str, cutoff: i64) -> nrc::Term {
    for_where(
        "e",
        table("employees"),
        and(
            eq(project(var("e"), "dept"), string(dpt)),
            gt(project(var("e"), "salary"), int(cutoff)),
        ),
        singleton(record(vec![
            ("name", project(var("e"), "name")),
            (
                "tasks",
                for_where(
                    "t",
                    table("tasks"),
                    eq(project(var("t"), "employee"), project(var("e"), "name")),
                    singleton(project(var("t"), "task")),
                ),
            ),
        ])),
    )
}

/// Every backend that runs nested queries, the shredded semantics once per
/// indexing scheme.
fn nested_capable_backends() -> Vec<Box<dyn SqlBackend>> {
    let mut out: Vec<Box<dyn SqlBackend>> = vec![
        Box::new(SqlEngineBackend),
        Box::new(NestedOracleBackend),
        Box::new(LoopLiftBackend),
    ];
    for scheme in IndexScheme::ALL {
        out.push(Box::new(ShreddedMemoryBackend::new(scheme)));
    }
    out
}

#[test]
fn bound_execution_equals_constant_inlined_execution_on_every_backend() {
    let db = small_db();
    let oracle = Shredder::over(db.clone()).unwrap();
    let cases = [("dept_00000", 0i64), ("dept_00001", 30_000), ("missing", 5)];
    for backend in nested_capable_backends() {
        let name = format!("{:?}", backend);
        let session = Shredder::builder()
            .database(db.clone())
            .backend(backend)
            .build()
            .unwrap();
        let prepared = session.prepare(&parameterized_nested_query()).unwrap();
        assert_eq!(prepared.params().len(), 2, "{}", name);
        for (dpt, cutoff) in cases {
            let bound = session
                .execute_bound(
                    &prepared,
                    &Params::new().bind("dpt", dpt).bind("cutoff", cutoff),
                )
                .unwrap();
            let reference = oracle.oracle(&inlined_nested_query(dpt, cutoff)).unwrap();
            assert!(
                bound.multiset_eq(&reference),
                "backend {} disagrees for ({}, {})",
                name,
                dpt,
                cutoff
            );
        }
    }
}

#[test]
fn the_flat_backend_accepts_bindings_on_flat_queries() {
    let db = small_db();
    let oracle = Shredder::over(db.clone()).unwrap();
    let session = Shredder::builder()
        .database(db)
        .backend(Box::new(FlatDefaultBackend))
        .build()
        .unwrap();
    let q = for_where(
        "e",
        table("employees"),
        gt(project(var("e"), "salary"), int_param("cutoff")),
        singleton(record(vec![("name", project(var("e"), "name"))])),
    );
    let prepared = session.prepare(&q).unwrap();
    for cutoff in [0i64, 25_000, i64::MAX] {
        let bound = session
            .execute_bound(&prepared, &Params::new().bind("cutoff", cutoff))
            .unwrap();
        let reference = oracle
            .oracle_bound(&q, &Params::new().bind("cutoff", cutoff))
            .unwrap();
        assert!(bound.multiset_eq(&reference), "cutoff {}", cutoff);
    }
}

/// Every benchmark query: a session, which lifts the query's literals into
/// parameters, must agree with the nested semantics of the literal term, on
/// every backend and every indexing scheme that supports the query. Literal
/// SQL stays covered by every suite that compiles with `pipeline::compile`.
#[test]
fn auto_parameterized_benchmark_queries_agree_with_inlined_execution() {
    let db = small_db();
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    for backend in nested_capable_backends() {
        let name = format!("{:?}", backend);
        let auto = Shredder::builder()
            .database(db.clone())
            .backend(backend)
            .build()
            .unwrap();
        for (qname, q) in &queries {
            let a = auto.run(q).unwrap();
            let reference = auto.oracle(q).unwrap();
            assert!(
                a.multiset_eq(&reference),
                "{} via {}: auto-parameterized execution disagrees with the \
                 nested semantics of the inlined term",
                qname,
                name
            );
        }
    }
}

#[test]
fn same_shape_with_different_constants_is_a_cache_hit() {
    let session = Shredder::over(small_db()).unwrap();
    let q = |dpt: &str, cutoff: i64| inlined_nested_query(dpt, cutoff);
    let a = session.run(&q("dept_00000", 0)).unwrap();
    let b = session.run(&q("dept_00001", 10_000)).unwrap();
    let stats = session.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (1, 1),
        "two queries differing only in constants must share one cached plan"
    );
    assert_ne!(
        a, b,
        "different constants must still produce different rows"
    );
    // The auto-parameterization itself is deterministic and shape-stable.
    let (p1, d1) = auto_parameterize(&q("dept_00000", 0));
    let (p2, d2) = auto_parameterize(&q("dept_00001", 10_000));
    assert_eq!(p1, p2, "lifted terms of one shape must be identical");
    assert_ne!(d1, d2, "their default bindings must differ");
}

#[test]
fn repeat_bound_executions_do_zero_parsing_shredding_or_planning() {
    let session = Shredder::over(small_db()).unwrap();
    let prepared = session.prepare(&parameterized_nested_query()).unwrap();
    for i in 0..10i64 {
        let dpt = format!("dept_{:05}", i % 3);
        let params = Params::new().bind("dpt", dpt.as_str()).bind("cutoff", i);
        let bound = session.execute_bound(&prepared, &params).unwrap();
        let reference = session
            .oracle_bound(&parameterized_nested_query(), &params)
            .unwrap();
        assert!(bound.multiset_eq(&reference), "binding round {}", i);
    }
    assert_eq!(
        session.engine().unwrap().plans_built(),
        0,
        "bound re-execution must never reach the engine's planner"
    );
    let stats = session.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 1),
        "one prepare, no further compilations"
    );
}

// ---------------------------------------------------------------------------
// Typed binding errors
// ---------------------------------------------------------------------------

#[test]
fn missing_bindings_are_reported_with_the_declared_type() {
    let session = Shredder::over(small_db()).unwrap();
    let prepared = session.prepare(&parameterized_nested_query()).unwrap();
    let err = session
        .execute_bound(&prepared, &Params::new().bind("dpt", "dept_00000"))
        .unwrap_err();
    match err {
        ShredError::MissingParam { ref name, expected } => {
            assert_eq!(name, "cutoff");
            assert_eq!(expected, nrc::BaseType::Int);
        }
        other => panic!("expected MissingParam, got {:?}", other),
    }
    assert!(err.to_string().contains("execute_bound"), "got: {}", err);
}

#[test]
fn unknown_binding_names_list_the_declared_parameters() {
    let session = Shredder::over(small_db()).unwrap();
    let prepared = session.prepare(&parameterized_nested_query()).unwrap();
    let err = session
        .execute_bound(
            &prepared,
            &Params::new()
                .bind("dpt", "dept_00000")
                .bind("cutoff", 1i64)
                .bind("typo", 1i64),
        )
        .unwrap_err();
    match &err {
        ShredError::UnknownParam { name, declared } => {
            assert_eq!(name, "typo");
            assert!(declared.contains(&"dpt".to_string()));
            assert!(declared.contains(&"cutoff".to_string()));
        }
        other => panic!("expected UnknownParam, got {:?}", other),
    }
}

#[test]
fn mistyped_bindings_are_rejected_before_execution() {
    let session = Shredder::over(small_db()).unwrap();
    let prepared = session.prepare(&parameterized_nested_query()).unwrap();
    let err = session
        .execute_bound(
            &prepared,
            &Params::new()
                .bind("dpt", "dept_00000")
                .bind("cutoff", "ten"),
        )
        .unwrap_err();
    match &err {
        ShredError::ParamTypeMismatch { name, .. } => assert_eq!(name, "cutoff"),
        other => panic!("expected ParamTypeMismatch, got {:?}", other),
    }
}

#[test]
fn parameters_eliminated_by_normalisation_stay_declared_and_bindable() {
    let session = Shredder::over(small_db()).unwrap();
    // β-reduction drops ?unused from the normal form, but the source term
    // declares it: binding it must be accepted (and ignored), not rejected.
    let q = app(
        lam(
            "x",
            for_in(
                "e",
                table("employees"),
                singleton(project(var("e"), "name")),
            ),
        ),
        int_param("unused"),
    );
    let prepared = session.prepare(&q).unwrap();
    assert_eq!(prepared.params().len(), 1);
    let bound = session
        .execute_bound(&prepared, &Params::new().bind("unused", 1i64))
        .unwrap();
    let reference = session
        .oracle_bound(&q, &Params::new().bind("unused", 1i64))
        .unwrap();
    assert!(bound.multiset_eq(&reference));
}

#[test]
fn conflicting_parameter_declarations_fail_at_prepare_time() {
    let session = Shredder::over(small_db()).unwrap();
    // ?x declared Int in one place and String in another.
    let q = for_where(
        "e",
        table("employees"),
        and(
            gt(project(var("e"), "salary"), int_param("x")),
            eq(project(var("e"), "dept"), string_param("x")),
        ),
        singleton(project(var("e"), "name")),
    );
    assert!(matches!(
        session.prepare(&q),
        Err(ShredError::ParamTypeMismatch { .. })
    ));
}

// ---------------------------------------------------------------------------
// Edge-value and NULL bindings
// ---------------------------------------------------------------------------

#[test]
fn edge_value_bindings_round_trip_through_the_whole_pipeline() {
    let session = Shredder::over(small_db()).unwrap();
    // Project the bound value straight through the SQL pipeline.
    let q = for_in(
        "e",
        table("employees"),
        singleton(record(vec![
            ("tag", string_param("tag")),
            ("n", int_param("n")),
        ])),
    );
    let prepared = session.prepare(&q).unwrap();
    for (tag, n) in [
        ("", 0i64),
        ("it's quoted", i64::MAX),
        ("unicode λ⊎", i64::MIN),
        (":not_a_param", -1),
    ] {
        let params = Params::new().bind("tag", tag).bind("n", n);
        let bound = session.execute_bound(&prepared, &params).unwrap();
        let reference = session.oracle_bound(&q, &params).unwrap();
        assert!(bound.multiset_eq(&reference), "({:?}, {})", tag, n);
        let first = &bound.as_bag().unwrap()[0];
        assert_eq!(first.field("tag"), Some(&Value::string(tag)));
        assert_eq!(first.field("n"), Some(&Value::Int(n)));
    }
}

#[test]
fn null_bindings_at_the_engine_level_compare_as_unknown() {
    use sqlengine::{
        execute_plan, ColumnType, Engine, ExecRequest, Expr, ParamValues, Select, SqlValue,
        Storage, TableDef,
    };
    let mut storage = Storage::new();
    storage
        .create_table(TableDef::new("t", vec![("a", ColumnType::Int)]))
        .unwrap();
    storage.insert("t", vec![SqlValue::Int(1)]).unwrap();
    storage.insert("t", vec![SqlValue::Null]).unwrap();
    let engine = Engine::with_storage(storage);
    let q = sqlengine::Query::select(
        Select::new()
            .item(Expr::col("t", "a"), "a")
            .from_named("t", "t")
            .filter(Expr::eq(Expr::col("t", "a"), Expr::param("p"))),
    );
    let plan = engine.prepare(&q).unwrap();
    assert_eq!(plan.params(), vec!["p".to_string()]);
    let run = |params: &ParamValues| {
        execute_plan(&plan, &engine.storage(), &ExecRequest::new(params)).map(|e| e.result)
    };
    // A NULL binding matches nothing (SQL three-valued comparison).
    let mut params = ParamValues::new();
    params.insert("p".to_string(), SqlValue::Null);
    assert_eq!(run(&params).unwrap().len(), 0);
    // A concrete binding matches its row; the same plan is reused.
    params.insert("p".to_string(), SqlValue::Int(1));
    assert_eq!(run(&params).unwrap().len(), 1);
    // Executing with no binding at all is a typed engine error.
    let err = run(&ParamValues::new()).unwrap_err();
    assert!(matches!(err, sqlengine::EngineError::UnboundParameter(_)));
    // The interpreter agrees with the vectorized executor on bound params.
    params.insert("p".to_string(), SqlValue::Int(1));
    let interpreted = engine.execute_interpreted_bound(&q, &params).unwrap();
    assert_eq!(interpreted, run(&params).unwrap().into_result_set());
}

#[test]
fn printed_parameterized_sql_round_trips_through_the_parser() {
    let session = Shredder::builder()
        .schema(organisation_schema())
        .build()
        .unwrap();
    let prepared = session.prepare(&parameterized_nested_query()).unwrap();
    let texts = prepared.sql_texts();
    assert!(!texts.is_empty());
    let mut saw_placeholder = false;
    for sql in texts {
        if sql.contains(":dpt") || sql.contains(":cutoff") {
            saw_placeholder = true;
        }
        let parsed = sqlengine::parse_query(&sql).unwrap();
        assert_eq!(sqlengine::print_query(&parsed), sql);
    }
    assert!(
        saw_placeholder,
        "generated SQL must carry named placeholders"
    );
}
