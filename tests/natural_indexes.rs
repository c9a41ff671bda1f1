//! Natural indexes on the SQL path: SQL generation indexes the rows of a
//! scope that is exactly one generator over a table keyed by one `Int`
//! column by that key, and numbers every other scope with `ROW_NUMBER`.
//!
//! The organisation generator numbers every table 1, 2, 3, … in scan
//! order, so its keys coincide with the ranks `ROW_NUMBER` would assign,
//! and a parent and child that disagree on which encoding a scope gets
//! still join up. The differentials here run over keys that are *not*
//! ranks — the first department is gone and employee and task ids have
//! gaps — so every such disagreement shows as a wrong value.

use query_shredding::nrc::BaseType;
use query_shredding::prelude::*;
use query_shredding::shredding::pipeline::{compile, storage_from_database};
use query_shredding::shredding::ShredError;
use query_shredding::sqlengine::{DeltaExec, Engine, ParamValues, PhysicalPlan, SqlValue};

fn all_benchmark_queries() -> Vec<(&'static str, nrc::Term)> {
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    queries
}

/// The organisation schema plus `teams`, a table without a key.
fn schema() -> Schema {
    let mut schema = organisation_schema();
    schema.add_table(TableSchema::new(
        "teams",
        vec![("dept", BaseType::String), ("name", BaseType::String)],
    ));
    schema
}

/// A small organisation whose keys are not ranks: department 1 and its
/// employees are dropped, as are every third employee and every third task.
/// Each remaining department gets two teams, one of them listed twice.
fn offset_db() -> Database {
    let db = generate(&OrgConfig {
        departments: 4,
        employees_per_department: 5,
        contacts_per_department: 2,
        seed: 5,
        ..OrgConfig::default()
    });
    let id = |row: &Value| row.field("id").unwrap().as_int().unwrap();
    let text = |row: &Value, col: &str| row.field(col).unwrap().as_str().unwrap().to_string();
    let mut out = Database::new(schema());
    let mut keep = |table: &str, pred: &dyn Fn(&Value) -> bool| {
        let rows: Vec<Value> = db
            .table_rows_unordered(table)
            .unwrap()
            .iter()
            .filter(|r| pred(r))
            .cloned()
            .collect();
        out.insert_bulk(table, rows).unwrap();
    };
    keep("departments", &|d| id(d) != 1);
    keep("employees", &|e| {
        text(e, "dept") != "dept_00000" && id(e) % 3 != 0
    });
    keep("tasks", &|t| id(t) % 3 != 1);
    keep("contacts", &|_| true);
    for d in out.table_rows_unordered("departments").unwrap().to_vec() {
        for team in ["red", "blue", "blue"] {
            out.insert_row(
                "teams",
                vec![
                    ("dept", d.field("name").unwrap().clone()),
                    ("name", Value::string(team)),
                ],
            )
            .unwrap();
        }
    }
    assert_ne!(
        id(&out.table_rows("departments").unwrap()[0]),
        1,
        "the first department is gone"
    );
    out
}

fn employee_names_of(dept: nrc::Term) -> nrc::Term {
    for_where(
        "e",
        table("employees"),
        eq(project(var("e"), "dept"), dept),
        singleton(project(var("e"), "name")),
    )
}

fn tasks_of(employee: nrc::Term) -> nrc::Term {
    for_where(
        "t",
        table("tasks"),
        eq(project(var("t"), "employee"), employee),
        singleton(project(var("t"), "task")),
    )
}

/// The shapes where the encoding choice is easy to get wrong.
fn edge_queries() -> Vec<(&'static str, nrc::Term)> {
    vec![
        (
            // The middle bag has no generator of its own: its scope, and so
            // its index, is the department's.
            "generator-less middle level",
            for_in(
                "d",
                table("departments"),
                singleton(record(vec![
                    ("name", project(var("d"), "name")),
                    (
                        "mid",
                        singleton(record(vec![(
                            "emps",
                            employee_names_of(project(var("d"), "name")),
                        )])),
                    ),
                ])),
            ),
        ),
        (
            "two-generator scope",
            for_in(
                "d",
                table("departments"),
                for_where(
                    "e",
                    table("employees"),
                    eq(project(var("e"), "dept"), project(var("d"), "name")),
                    singleton(record(vec![
                        ("dept", project(var("d"), "name")),
                        ("name", project(var("e"), "name")),
                        ("tasks", tasks_of(project(var("e"), "name"))),
                    ])),
                ),
            ),
        ),
        (
            // Department and employee ids overlap; the branches' static tags
            // keep their inner indexes apart.
            "union of keyed scopes",
            union(
                for_in(
                    "d",
                    table("departments"),
                    singleton(record(vec![
                        ("name", project(var("d"), "name")),
                        ("items", employee_names_of(project(var("d"), "name"))),
                    ])),
                ),
                for_in(
                    "e",
                    table("employees"),
                    singleton(record(vec![
                        ("name", project(var("e"), "name")),
                        ("items", tasks_of(project(var("e"), "name"))),
                    ])),
                ),
            ),
        ),
        (
            "unkeyed table",
            for_in(
                "m",
                table("teams"),
                singleton(record(vec![
                    ("team", project(var("m"), "name")),
                    ("emps", employee_names_of(project(var("m"), "dept"))),
                ])),
            ),
        ),
    ]
}

/// Every edge shape agrees with the nested reference semantics, and its
/// live view agrees with re-execution after every batch of a stream that
/// inserts and deletes departments and employees.
#[test]
fn edge_shapes_agree_with_the_oracle_and_under_writes_over_non_rank_keys() {
    let db = offset_db();
    for (name, q) in edge_queries() {
        let session = Shredder::builder().database(db.clone()).build().unwrap();
        let prepared = session.prepare(&q).unwrap();
        let executed = session.execute(&prepared).unwrap();
        assert!(
            executed.multiset_eq(&session.oracle(&q).unwrap()),
            "{name}: execute disagrees with the oracle"
        );
        let sub = session.subscribe(&prepared).unwrap();
        let mut stream = MutationStream::over(
            &db,
            MutationConfig {
                ops_per_batch: 4,
                update_weight: 2,
                insert_weight: 3,
                delete_weight: 3,
                leaf_bias: 0.3,
                seed: 19,
            },
        );
        for round in 0..8 {
            session.apply_batch(&stream.next_batch()).unwrap();
            let live = sub.value().unwrap();
            let recomputed = session.execute(&prepared).unwrap();
            assert!(
                live.multiset_eq(&recomputed),
                "{name}: the live view diverged from execute after batch {round}"
            );
        }
        assert_eq!(sub.reseeds(), 0, "{name} reseeded");
    }
}

fn row_numbers(plan: &PhysicalPlan) -> usize {
    plan.nodes()
        .into_iter()
        .filter(|n| matches!(n, PhysicalPlan::RowNumber { .. }))
        .count()
}

/// Across the twelve benchmark queries only the two-generator scopes —
/// (department, employee) and (department, contact) in Q1 and Q6 — are
/// still numbered; every other bag is indexed by its generator's key.
#[test]
fn benchmark_queries_number_only_their_two_generator_scopes() {
    let schema = organisation_schema();
    let counts: Vec<(&str, usize)> = all_benchmark_queries()
        .into_iter()
        .map(|(name, q)| {
            let compiled = compile(&q, &schema).unwrap();
            let n = compiled
                .stages
                .annotations()
                .iter()
                .map(|stage| row_numbers(&stage.plan))
                .sum();
            (name, n)
        })
        .collect();
    let expected = [
        ("QF1", 0),
        ("QF2", 0),
        ("QF3", 0),
        ("QF4", 0),
        ("QF5", 0),
        ("QF6", 0),
        ("Q1", 2),
        ("Q2", 0),
        ("Q3", 0),
        ("Q4", 0),
        ("Q5", 0),
        ("Q6", 4),
    ];
    assert_eq!(counts, expected);
    assert_eq!(counts.iter().map(|(_, n)| n).sum::<usize>(), 6);
}

/// Maintenance is O(batch): deleting one task changes a handful of output
/// rows in each of Q5's stages. Under `ROW_NUMBER` indexes the delete
/// renumbered every later task, and every stage re-emitted those rows.
#[test]
fn deleting_one_task_changes_a_handful_of_rows_per_q5_stage() {
    let db = generate(&OrgConfig::small());
    let compiled = compile(&datagen::queries::q5(), &db.schema).unwrap();
    let mut storage = storage_from_database(&db).unwrap();
    let params = ParamValues::new();
    let stages = compiled.stages.annotations();
    let mut execs: Vec<DeltaExec> = stages
        .iter()
        .map(|stage| {
            let mut exec = DeltaExec::new(&stage.plan);
            exec.seed(&stage.plan, &storage, &params).unwrap();
            exec
        })
        .collect();
    let tasks = storage.table("tasks").unwrap().len();
    assert!(tasks > 20, "enough tasks to see a renumbering: {tasks}");
    let first = storage.table("tasks").unwrap().rows[0][0].clone();
    let delta = storage
        .apply_batch(&WriteBatch::new().delete_by_key("tasks", vec![first]))
        .unwrap();
    for (i, (stage, exec)) in stages.iter().zip(&mut execs).enumerate() {
        let changed = exec
            .apply(&stage.plan, &storage, &params, &delta)
            .unwrap()
            .expect("the delete stays in the incremental fragment");
        let rows = changed.retracted.len() + changed.inserted.len();
        assert!(
            (1..=4).contains(&rows),
            "stage {i} ({}) changed {rows} rows for one deleted task",
            stage.path
        );
    }
}

/// λNRC values have no `NULL`: a write that puts one into a declared key
/// column is refused before anything is committed.
#[test]
fn apply_batch_rejects_a_null_key() {
    let session = Shredder::over(generate(&OrgConfig::small())).unwrap();
    let before = session.engine().unwrap().storage().total_rows();
    for batch in [
        WriteBatch::new().insert(
            "departments",
            vec![SqlValue::Null, SqlValue::str("dept_null")],
        ),
        WriteBatch::new().update(
            "departments",
            vec![SqlValue::Int(1)],
            vec![SqlValue::Null, SqlValue::str("dept_00000")],
        ),
    ] {
        let err = session.apply_batch(&batch).unwrap_err();
        assert!(
            matches!(&err, ShredError::NullKey { table, column }
                if table == "departments" && column == "id"),
            "got: {err}"
        );
    }
    assert_eq!(session.engine().unwrap().storage().total_rows(), before);
}

/// A `NULL` key written straight into engine storage, past the session,
/// surfaces as a typed error from `execute` and from a live view, never as
/// a panic.
#[test]
fn a_null_key_in_engine_storage_is_a_typed_error() {
    let db = generate(&OrgConfig::small());
    let mut storage = storage_from_database(&db).unwrap();
    // A department with no employees, so only its own row carries the NULL
    // (as the inner index of its `employees` bag).
    storage
        .insert(
            "departments",
            vec![SqlValue::Null, SqlValue::str("dept_null")],
        )
        .unwrap();
    let session = Shredder::builder()
        .database(db)
        .engine(Engine::with_storage(storage))
        .build()
        .unwrap();
    let prepared = session.prepare(&datagen::queries::q4()).unwrap();
    let err = session.execute(&prepared).unwrap_err();
    assert!(matches!(err, ShredError::Decode { .. }), "got: {err}");
    let sub = session.subscribe(&prepared).unwrap();
    let err = sub.value().unwrap_err();
    assert!(matches!(err, ShredError::Decode { .. }), "got: {err}");
}
