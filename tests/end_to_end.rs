//! End-to-end integration tests spanning all workspace crates: every
//! benchmark query of the paper's evaluation is compiled, executed on the SQL
//! engine and compared against the nested reference semantics (Theorem 4),
//! for query shredding and for the loop-lifting baseline — all through the
//! `Shredder` session API.

use query_shredding::prelude::*;
use query_shredding::shredding;

fn small_db() -> Database {
    generate(&OrgConfig {
        departments: 4,
        employees_per_department: 6,
        contacts_per_department: 3,
        seed: 7,
        ..OrgConfig::default()
    })
}

/// One session per compared backend, all sharing one loaded engine. The
/// shredding session loads the database; the baseline sessions are schema +
/// engine only. Every session's oracle reads that engine's storage.
fn sessions() -> (Shredder, Shredder, Shredder) {
    let shredding = Shredder::builder().database(small_db()).build().unwrap();
    let engine = shredding.shared_engine().unwrap();
    let looplift = Shredder::builder()
        .schema(organisation_schema())
        .engine(engine.clone())
        .backend(Box::new(LoopLiftBackend))
        .build()
        .unwrap();
    let flat = Shredder::builder()
        .schema(organisation_schema())
        .engine(engine)
        .backend(Box::new(FlatDefaultBackend))
        .build()
        .unwrap();
    (shredding, looplift, flat)
}

#[test]
fn all_flat_benchmark_queries_agree_across_systems() {
    let (shredding, looplift, flat) = sessions();
    for (name, q) in datagen::queries::flat_queries() {
        let reference = shredding.oracle(&q).unwrap();
        let shredded = shredding.run(&q).unwrap();
        let lifted = looplift.run(&q).unwrap();
        let default = flat.run(&q).unwrap();
        assert!(shredded.multiset_eq(&reference), "{} via shredding", name);
        assert!(lifted.multiset_eq(&reference), "{} via loop-lifting", name);
        assert!(
            default.multiset_eq(&reference),
            "{} via default flat evaluation",
            name
        );
    }
}

#[test]
fn all_nested_benchmark_queries_agree_across_systems() {
    let (shredding, looplift, _) = sessions();
    for (name, q) in datagen::queries::nested_queries() {
        let reference = shredding.oracle(&q).unwrap();
        let shredded = shredding.run(&q).unwrap();
        let lifted = looplift.run(&q).unwrap();
        assert!(shredded.multiset_eq(&reference), "{} via shredding", name);
        assert!(lifted.multiset_eq(&reference), "{} via loop-lifting", name);
    }
}

/// One database per session (Theorem 4 relates N⟦−⟧ and the shredded
/// result on one instance): six sessions, one per backend, share one engine,
/// and after each committed write batch every query a backend prepares
/// answers what the oracle of the session that wrote answers.
#[test]
fn every_backend_answers_the_committed_state_after_writes() {
    let db = small_db();
    let mut stream = MutationStream::over(
        &db,
        MutationConfig {
            ops_per_batch: 4,
            seed: 5,
            ..MutationConfig::default()
        },
    );
    let writer = Shredder::over(db).unwrap();
    let engine = writer.shared_engine().unwrap();
    let backends: Vec<Box<dyn SqlBackend>> = vec![
        Box::new(SqlEngineBackend),
        Box::new(ShreddedMemoryBackend::default()),
        Box::new(NestedOracleBackend),
        Box::new(FlatDefaultBackend),
        Box::new(LoopLiftBackend),
        Box::new(VandenBusscheBackend),
    ];
    let sessions: Vec<Shredder> = backends
        .into_iter()
        .map(|backend| {
            Shredder::builder()
                .schema(organisation_schema())
                .engine(engine.clone())
                .backend(backend)
                .build()
                .unwrap()
        })
        .collect();
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    // None of the twelve has Appendix A's result shape, the only one the
    // Van den Bussche simulation takes: one more query gives it one.
    queries.push((
        "QA",
        for_in(
            "d",
            table("departments"),
            singleton(record(vec![
                ("A", project(var("d"), "id")),
                (
                    "B",
                    for_where(
                        "e",
                        table("employees"),
                        eq(project(var("e"), "dept"), project(var("d"), "name")),
                        singleton(project(var("e"), "salary")),
                    ),
                ),
            ])),
        ),
    ));
    let mut prepared = vec![0; sessions.len()];
    for round in 0..3 {
        writer.apply_batch(&stream.next_batch()).unwrap();
        for (name, q) in &queries {
            let reference = writer.oracle(q).unwrap();
            for (session, count) in sessions.iter().zip(&mut prepared) {
                let Ok(p) = session.prepare(q) else {
                    continue;
                };
                *count += 1;
                let got = session.execute(&p).unwrap();
                assert!(
                    got.multiset_eq(&reference),
                    "{name} via {} differs from the oracle after batch {round}",
                    session.backend_name()
                );
            }
        }
    }
    // Per round: all thirteen on the SQL, in-memory, oracle and
    // loop-lifting backends; the six flat queries and Q2 on flat-default;
    // QA alone on the simulation.
    assert_eq!(prepared, [39, 39, 39, 21, 39, 3]);
}

#[test]
fn nested_queries_agree_under_every_indexing_scheme() {
    let db = small_db();
    let oracle = Shredder::builder()
        .database(db.clone())
        .backend(Box::new(NestedOracleBackend))
        .build()
        .unwrap();
    for (name, q) in datagen::queries::nested_queries() {
        let reference = oracle.run(&q).unwrap();
        for scheme in IndexScheme::ALL {
            let session = Shredder::builder()
                .database(db.clone())
                .backend(Box::new(ShreddedMemoryBackend::new(scheme)))
                .build()
                .unwrap();
            let v = session.run(&q).unwrap();
            assert!(
                v.multiset_eq(&reference),
                "{} with {} indexes disagrees with the nested semantics",
                name,
                scheme
            );
        }
        // Theorem 6: the let-inserted queries under Figure 6's semantics
        // stitch, with flat indexes, to the same value.
        let let_inserted = eval_let_inserted(&q, oracle.schema(), &db);
        assert!(
            let_inserted.multiset_eq(&reference),
            "{} let-inserted disagrees with the nested semantics",
            name
        );
    }
}

/// Evaluate every stage of `q`'s let-inserted form under Figure 6's
/// semantics and stitch the results under flat indexes.
fn eval_let_inserted(q: &nrc::Term, schema: &Schema, db: &Database) -> Value {
    let compiled = shredding::pipeline::compile(q, schema).unwrap();
    let results = compiled
        .stages
        .try_map(&mut |stage| shredding::letins::eval_let(&stage.let_inserted, schema, db))
        .unwrap();
    shredding::stitch::stitch_rows(results, IndexScheme::Flat).unwrap()
}

#[test]
fn query_counts_match_nesting_degrees() {
    // A schema-only session can plan and explain without any data.
    let planner = Shredder::builder()
        .schema(organisation_schema())
        .build()
        .unwrap();
    let expected = [
        ("Q1", 4),
        ("Q2", 1),
        ("Q3", 2),
        ("Q4", 2),
        ("Q5", 2),
        ("Q6", 3),
    ];
    for ((name, q), (ename, degree)) in datagen::queries::nested_queries().into_iter().zip(expected)
    {
        assert_eq!(name, ename);
        let prepared = planner.prepare(&q).unwrap();
        assert_eq!(prepared.query_count(), degree, "query count of {}", name);
        assert_eq!(prepared.result_type().nesting_degree(), degree);
    }
}

#[test]
fn generated_sql_round_trips_through_the_parser() {
    let planner = Shredder::builder()
        .schema(organisation_schema())
        .build()
        .unwrap();
    for (_, q) in datagen::queries::nested_queries() {
        let prepared = planner.prepare(&q).unwrap();
        for text in prepared.sql_texts() {
            let parsed = sqlengine::parse_query(&text).expect("generated SQL parses");
            let reprinted = sqlengine::print_query(&parsed);
            let reparsed = sqlengine::parse_query(&reprinted).unwrap();
            assert_eq!(parsed, reparsed);
        }
    }
}

#[test]
fn the_default_backend_rejects_nested_queries_like_stock_links() {
    let (_, _, flat) = sessions();
    let err = flat.run(&datagen::queries::q1());
    assert!(
        err.is_err(),
        "default flat evaluation must reject nested results"
    );
}

#[test]
fn results_scale_with_the_data() {
    let q = datagen::queries::q4();
    let small = Shredder::over(generate(&OrgConfig {
        departments: 2,
        employees_per_department: 5,
        ..OrgConfig::default()
    }))
    .unwrap();
    let large = Shredder::over(generate(&OrgConfig {
        departments: 6,
        employees_per_department: 5,
        ..OrgConfig::default()
    }))
    .unwrap();
    assert_eq!(small.run(&q).unwrap().as_bag().unwrap().len(), 2);
    assert_eq!(large.run(&q).unwrap().as_bag().unwrap().len(), 6);
}

#[test]
fn the_low_level_pipeline_building_blocks_remain_usable() {
    // The deprecated pre-session shims (`run`, `run_in_memory`,
    // `eval_nested`) are gone; the composable building blocks they wrapped
    // stay available for callers that want to drive the stages by hand.
    let db = small_db();
    let schema = organisation_schema();
    let engine = shredding::pipeline::engine_from_database(&db).unwrap();
    let q = datagen::queries::q4();
    let reference = Shredder::over(db).unwrap().oracle(&q).unwrap();
    let compiled = shredding::pipeline::compile(&q, &schema).unwrap();
    assert_eq!(compiled.query_count(), 2);
    let no_params = sqlengine::ParamValues::new();
    assert!(
        shredding::pipeline::execute_bound(&compiled, &engine, &no_params)
            .unwrap()
            .multiset_eq(&reference)
    );
}
