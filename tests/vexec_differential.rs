//! Differential tests of the vectorized executor against the row-at-a-time
//! interpreter: for every SQL stage the shredding pipeline emits for the
//! paper's full benchmark suite (QF1–QF6 and Q1–Q6), the pre-compiled
//! physical plan, the ad-hoc vectorized path and the interpreter must produce
//! the same bag of rows — and the stitched nested values must agree with the
//! oracle.

use query_shredding::prelude::*;
use query_shredding::shredding::pipeline;
use query_shredding::sqlengine::value::compare_rows;
use query_shredding::sqlengine::{
    ExecOptions, OpActuals, ParamValues, PhysicalPlan, ResultSet, Row,
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

/// Many departments of one employee and no contacts each. Where `small_db`'s
/// departments ⋈ employees joins have the smaller left input, here the two
/// inputs tie, and joins against the empty contacts table have the smaller
/// right input: the hash joins build on the other side.
fn sparse_db() -> Database {
    generate(&OrgConfig {
        departments: 24,
        employees_per_department: 1,
        contacts_per_department: 0,
        seed: 11,
        ..OrgConfig::default()
    })
}

fn all_benchmark_queries() -> Vec<(&'static str, nrc::Term)> {
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    queries
}

/// SQL leaves row order unspecified without a top-level `ORDER BY`, and the
/// executor builds a hash join on its smaller input where the interpreter
/// always builds on the right one — so result sets are compared as bags:
/// same columns, same rows up to reordering.
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

/// The row counts of each executed hash join's (left, right) inputs, read
/// from the profiled run's per-node actuals. Joins run more than once (inside
/// a correlated subplan) are skipped: their counts sum over runs.
fn hash_join_input_rows(plan: &PhysicalPlan, actuals: &[OpActuals]) -> Vec<(u64, u64)> {
    let nodes = plan.nodes();
    let rows_out = |node: &PhysicalPlan| {
        let id = nodes.iter().position(|n| std::ptr::eq(*n, node)).unwrap();
        actuals[id].rows_out
    };
    nodes
        .iter()
        .zip(actuals)
        .filter_map(|(node, a)| match node {
            PhysicalPlan::HashJoin { left, right, .. } if a.batches == 1 => {
                Some((rows_out(left), rows_out(right)))
            }
            _ => None,
        })
        .collect()
}

/// Every stage of every benchmark query, on two databases: interpreter vs.
/// the stage's pre-compiled plan vs. planning from live storage. Across the
/// two, some executed hash join has the smaller left input and some the
/// smaller or equal right one, so both of the executor's build sides run.
#[test]
fn vectorized_executor_matches_the_interpreter_on_every_benchmark_stage() {
    let schema = organisation_schema();
    let (mut left_built, mut right_built) = (0, 0);
    for db in [small_db(), sparse_db()] {
        let engine = pipeline::engine_from_database(&db).unwrap();
        for (name, q) in all_benchmark_queries() {
            let compiled = pipeline::compile(&q, &schema).unwrap();
            for (i, stage) in compiled.stages.annotations().into_iter().enumerate() {
                let interpreted = engine.execute_interpreted(&stage.sql).unwrap();
                let (result, profile, _) = engine
                    .execute_plan_profiled_opts(
                        &stage.plan,
                        &ParamValues::new(),
                        ExecOptions::default(),
                    )
                    .unwrap();
                assert_same_bag(name, i, &interpreted, &result.into_result_set());
                for (l, r) in hash_join_input_rows(&stage.plan, &profile.ops) {
                    if l < r {
                        left_built += 1;
                    } else {
                        right_built += 1;
                    }
                }
                // Planning the stage's SQL against live storage must agree
                // as well.
                let via_engine_plan = engine.execute(&stage.sql).unwrap().into_result_set();
                assert_same_bag(name, i, &interpreted, &via_engine_plan);
            }
        }
    }
    assert!(
        left_built > 0 && right_built > 0,
        "hash joins built on the left {left_built} times and on the right {right_built} times"
    );
}

/// The full nested pipeline over the vectorized executor agrees with the
/// nested reference semantics. SQL generation reads no indexing scheme, so
/// one session covers every scheme.
#[test]
fn the_vectorized_default_backend_agrees_with_the_oracle_under_every_scheme() {
    for db in [small_db(), sparse_db()] {
        let session = Shredder::over(db).unwrap();
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
