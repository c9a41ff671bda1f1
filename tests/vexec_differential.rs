//! Differential tests of the vectorized executor against the row-at-a-time
//! interpreter: for every SQL stage the shredding pipeline emits for the
//! paper's full benchmark suite (QF1–QF6 and Q1–Q6), the pre-compiled
//! physical plan, the ad-hoc vectorized path and the interpreter must produce
//! the same bag of rows — and the stitched nested values must agree with the
//! oracle.

use query_shredding::prelude::*;
use query_shredding::shredding::pipeline;
use query_shredding::sqlengine::value::compare_rows;
use query_shredding::sqlengine::{ResultSet, Row};

fn small_db() -> Database {
    generate(&OrgConfig {
        departments: 4,
        employees_per_department: 6,
        contacts_per_department: 3,
        seed: 7,
        ..OrgConfig::default()
    })
}

fn all_benchmark_queries() -> Vec<(&'static str, nrc::Term)> {
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    queries
}

/// SQL leaves row order unspecified without a top-level `ORDER BY`, and the
/// planner may pick a different hash-join build side than the interpreter's
/// fixed choice — so result sets are compared as bags: same columns, same
/// rows up to reordering.
fn sorted_rows(rs: &ResultSet) -> Vec<Row> {
    let mut rows = rs.rows.clone();
    rows.sort_by(|a, b| compare_rows(a, b));
    rows
}

fn assert_same_bag(name: &str, stage: usize, interpreted: &ResultSet, vectorized: &ResultSet) {
    assert_eq!(
        interpreted.columns, vectorized.columns,
        "{} stage {}: column mismatch",
        name, stage
    );
    assert_eq!(
        sorted_rows(interpreted),
        sorted_rows(vectorized),
        "{} stage {}: row bag mismatch",
        name,
        stage
    );
}

/// Every stage of every benchmark query: interpreter vs. the stage's
/// pre-compiled plan vs. planning from live storage (which may choose
/// different build sides based on real cardinalities).
#[test]
fn vectorized_executor_matches_the_interpreter_on_every_benchmark_stage() {
    let schema = organisation_schema();
    let engine = pipeline::engine_from_database(&small_db()).unwrap();
    for (name, q) in all_benchmark_queries() {
        let compiled = pipeline::compile(&q, &schema).unwrap();
        for (i, stage) in compiled.stages.annotations().into_iter().enumerate() {
            let interpreted = engine.execute_interpreted(&stage.sql).unwrap();
            let via_stage_plan = sqlengine::execute_plan(
                &stage.plan,
                &engine.storage(),
                &sqlengine::ExecRequest::new(&sqlengine::ParamValues::new()),
            )
            .unwrap()
            .result
            .into_result_set();
            assert_same_bag(name, i, &interpreted, &via_stage_plan);
            // Re-planning against live storage (known cardinalities) must
            // agree as well, even where the build-side choice differs.
            let via_engine_plan = engine.execute(&stage.sql).unwrap().into_result_set();
            assert_same_bag(name, i, &interpreted, &via_engine_plan);
        }
    }
}

/// The full nested pipeline over the vectorized executor agrees with the
/// nested reference semantics. SQL generation reads no indexing scheme, so
/// one session covers every scheme.
#[test]
fn the_vectorized_default_backend_agrees_with_the_oracle_under_every_scheme() {
    let session = Shredder::over(small_db()).unwrap();
    for (name, q) in all_benchmark_queries() {
        let reference = session.oracle(&q).unwrap();
        let value = session.run(&q).unwrap();
        assert!(
            value.multiset_eq(&reference),
            "{} via the vectorized sqlengine backend",
            name
        );
    }
}

/// The loop-lifting baseline's SQL — `ROW_NUMBER` over unreduced products —
/// also executes correctly on the vectorized engine (it is the engine's
/// default path for every backend).
#[test]
fn loop_lifting_sql_runs_correctly_on_the_vectorized_engine() {
    let db = small_db();
    let session = Shredder::builder()
        .database(db)
        .backend(Box::new(LoopLiftBackend))
        .build()
        .unwrap();
    for (name, q) in datagen::queries::nested_queries() {
        let reference = session.oracle(&q).unwrap();
        let value = session.run(&q).unwrap();
        assert!(value.multiset_eq(&reference), "{} via looplift", name);
    }
}
