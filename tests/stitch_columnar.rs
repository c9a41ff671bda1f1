//! Differential tests of the columnar result-assembly path (PR 5): the
//! index-keyed columnar decode + stitch must agree with the row-at-a-time
//! oracle (`stitch_rows` over per-row `FlatValue` trees) and with the nested
//! reference semantics N⟦−⟧ — on every benchmark query, under every indexing
//! scheme, through every backend, and on the edge shapes that stress the
//! grouping (empty bags, deep nesting, flattened-name collisions, duplicate
//! rows).

use query_shredding::prelude::*;
use query_shredding::shredding::pipeline;

fn small_db() -> Database {
    generate(&OrgConfig {
        departments: 4,
        employees_per_department: 6,
        contacts_per_department: 3,
        seed: 11,
        ..OrgConfig::default()
    })
}

fn all_benchmark_queries() -> Vec<(&'static str, nrc::Term)> {
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    queries
}

/// The tentpole agreement: on every benchmark query, the columnar path
/// (`pipeline::execute_bound`), the row path (`pipeline::execute_rows`), and the
/// text round-trip (also row-decoded) produce *identical* nested values —
/// not merely multiset-equal ones — and all agree with N⟦−⟧. Identical
/// equality holds because the columnar grouping sorts stably, preserving
/// the engine's output order within each index group exactly as the row
/// path does.
#[test]
fn columnar_and_row_result_assembly_are_identical_on_every_benchmark_query() {
    let db = small_db();
    let schema = organisation_schema();
    let engine = pipeline::engine_from_database(&db).unwrap();
    for (name, q) in all_benchmark_queries() {
        let compiled = pipeline::compile(&q, &schema).unwrap();
        let columnar =
            pipeline::execute_bound(&compiled, &engine, &sqlengine::ParamValues::new()).unwrap();
        let rows = pipeline::execute_rows(&compiled, &engine).unwrap();
        assert_eq!(
            columnar, rows,
            "{}: columnar and row-path stitching must produce identical values",
            name
        );
        let via_text = pipeline::execute_via_sql_text(&compiled, &engine).unwrap();
        assert_eq!(
            columnar, via_text,
            "{}: columnar and text-shipped row-path stitching must agree",
            name
        );
        let reference = nrc::eval(&q, &db).unwrap();
        assert!(
            columnar.multiset_eq(&reference),
            "{}: columnar result assembly disagrees with N⟦−⟧",
            name
        );
    }
}

/// The columnar SQL path and the in-memory shredded semantics (which stitch
/// with the row oracle under canonical / flat / natural indexes) agree with
/// the nested-oracle backend under every indexing scheme. SQL generation
/// reads no scheme, so the SQL path runs once; the in-memory path runs under
/// each.
#[test]
fn every_index_scheme_agrees_with_the_nested_oracle() {
    let db = small_db();
    let oracle = Shredder::builder()
        .database(db.clone())
        .backend(Box::new(NestedOracleBackend))
        .build()
        .unwrap();
    let sql = Shredder::over(db.clone()).unwrap();
    let memory: Vec<(IndexScheme, Shredder)> = IndexScheme::ALL
        .into_iter()
        .map(|scheme| {
            let session = Shredder::builder()
                .database(db.clone())
                .backend(Box::new(ShreddedMemoryBackend::new(scheme)))
                .build()
                .unwrap();
            (scheme, session)
        })
        .collect();
    for (name, q) in all_benchmark_queries() {
        let reference = oracle.run(&q).unwrap();
        let via_sql = sql.run(&q).unwrap();
        assert!(
            via_sql.multiset_eq(&reference),
            "{}: columnar SQL path disagrees",
            name
        );
        for (scheme, session) in &memory {
            let via_memory = session.run(&q).unwrap();
            assert!(
                via_memory.multiset_eq(&reference),
                "{} under {} indexes: shredded-memory (row-stitched) path disagrees",
                name,
                scheme
            );
        }
    }
}

/// All six backends agree with the reference semantics on the queries each
/// supports: the three built-ins and loop-lifting on the full nested suite,
/// flat-default on the flat suite, Van den Bussche on the Appendix A shape.
#[test]
fn all_six_backends_agree_on_their_supported_queries() {
    let db = small_db();
    let reference_session = Shredder::over(db.clone()).unwrap();

    // Backends that handle arbitrary nested queries.
    let nested_backends: Vec<(&str, Box<dyn SqlBackend>)> = vec![
        ("sqlengine", Box::new(SqlEngineBackend)),
        (
            "shredded-memory",
            Box::new(ShreddedMemoryBackend::default()),
        ),
        ("oracle", Box::new(NestedOracleBackend)),
        ("looplift", Box::new(LoopLiftBackend)),
    ];
    for (label, backend) in nested_backends {
        let session = Shredder::builder()
            .database(db.clone())
            .backend(backend)
            .build()
            .unwrap();
        for (name, q) in all_benchmark_queries() {
            let reference = reference_session.oracle(&q).unwrap();
            let value = session.run(&q).unwrap();
            assert!(
                value.multiset_eq(&reference),
                "{} via {} disagrees with the oracle",
                name,
                label
            );
        }
    }

    // Links' stock flat evaluation: flat queries only.
    let flat = Shredder::builder()
        .database(db.clone())
        .backend(Box::new(FlatDefaultBackend))
        .build()
        .unwrap();
    for (name, q) in datagen::queries::flat_queries() {
        let reference = reference_session.oracle(&q).unwrap();
        let value = flat.run(&q).unwrap();
        assert!(value.multiset_eq(&reference), "{} via flat-default", name);
    }

    // Van den Bussche's simulation: the Appendix A shape.
    let vdb_schema = Schema::new()
        .with_table(TableSchema::new("r", vec![("a", nrc::BaseType::Int)]).with_key(vec!["a"]))
        .with_table(
            TableSchema::new(
                "s",
                vec![("a", nrc::BaseType::Int), ("b", nrc::BaseType::Int)],
            )
            .with_key(vec!["a", "b"]),
        );
    let mut vdb_db = Database::new(vdb_schema);
    for a in [1i64, 2, 3] {
        vdb_db.insert_row("r", vec![("a", Value::Int(a))]).unwrap();
    }
    for (a, b) in [(1i64, 10i64), (1, 11), (2, 20)] {
        vdb_db
            .insert_row("s", vec![("a", Value::Int(a)), ("b", Value::Int(b))])
            .unwrap();
    }
    let vdb_query = for_in(
        "x",
        table("r"),
        singleton(record(vec![
            ("A", project(var("x"), "a")),
            (
                "B",
                for_where(
                    "y",
                    table("s"),
                    eq(project(var("y"), "a"), project(var("x"), "a")),
                    singleton(project(var("y"), "b")),
                ),
            ),
        ])),
    );
    let vdb = Shredder::builder()
        .database(vdb_db.clone())
        .backend(Box::new(VandenBusscheBackend))
        .build()
        .unwrap();
    let reference = vdb.oracle(&vdb_query).unwrap();
    let value = vdb.run(&vdb_query).unwrap();
    assert!(value.multiset_eq(&reference), "vdb backend disagrees");
}

// ---------------------------------------------------------------------------
// Edge shapes
// ---------------------------------------------------------------------------

fn edge_schema() -> Schema {
    Schema::new()
        .with_table(
            TableSchema::new(
                "departments",
                vec![("id", nrc::BaseType::Int), ("name", nrc::BaseType::String)],
            )
            .with_key(vec!["id"]),
        )
        .with_table(
            TableSchema::new(
                "employees",
                vec![
                    ("id", nrc::BaseType::Int),
                    ("dept", nrc::BaseType::String),
                    ("name", nrc::BaseType::String),
                ],
            )
            .with_key(vec!["id"]),
        )
        .with_table(
            TableSchema::new(
                "tasks",
                vec![
                    ("id", nrc::BaseType::Int),
                    ("employee", nrc::BaseType::String),
                    ("task", nrc::BaseType::String),
                ],
            )
            .with_key(vec!["id"]),
        )
}

fn edge_db() -> Database {
    let mut db = Database::new(edge_schema());
    for (id, name) in [(1, "Product"), (2, "Quality"), (3, "Sales")] {
        db.insert_row(
            "departments",
            vec![("id", Value::Int(id)), ("name", Value::string(name))],
        )
        .unwrap();
    }
    // Quality deliberately has no employees; Bert has no tasks.
    for (id, dept, name) in [
        (1, "Product", "Alex"),
        (2, "Product", "Bert"),
        (3, "Sales", "Cora"),
    ] {
        db.insert_row(
            "employees",
            vec![
                ("id", Value::Int(id)),
                ("dept", Value::string(dept)),
                ("name", Value::string(name)),
            ],
        )
        .unwrap();
    }
    for (id, emp, task) in [
        (1, "Alex", "build"),
        (2, "Cora", "call"),
        (3, "Cora", "sell"),
    ] {
        db.insert_row(
            "tasks",
            vec![
                ("id", Value::Int(id)),
                ("employee", Value::string(emp)),
                ("task", Value::string(task)),
            ],
        )
        .unwrap();
    }
    db
}

/// Assert the columnar path, the row path and N⟦−⟧ agree on one query over
/// the edge database.
fn assert_edge_query_agrees(q: &nrc::Term) {
    let db = edge_db();
    let engine = pipeline::engine_from_database(&db).unwrap();
    let compiled = pipeline::compile(q, &edge_schema()).unwrap();
    let columnar =
        pipeline::execute_bound(&compiled, &engine, &sqlengine::ParamValues::new()).unwrap();
    let rows = pipeline::execute_rows(&compiled, &engine).unwrap();
    assert_eq!(
        columnar, rows,
        "columnar vs row-path values must be identical"
    );
    let reference = nrc::eval(q, &db).unwrap();
    assert!(
        columnar.multiset_eq(&reference),
        "columnar path disagrees with N⟦−⟧:\n  expected {}\n  got {}",
        reference,
        columnar
    );
}

/// Outer indexes with no rows in the nested stage produce empty bags, not
/// missing fields — at both nesting levels.
#[test]
fn empty_bags_survive_the_columnar_path() {
    let q = for_in(
        "d",
        table("departments"),
        singleton(record(vec![
            ("dept", project(var("d"), "name")),
            (
                "emps",
                for_where(
                    "e",
                    table("employees"),
                    eq(project(var("e"), "dept"), project(var("d"), "name")),
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
                ),
            ),
        ])),
    );
    assert_edge_query_agrees(&q);

    // And pin the concrete shape: Quality has an empty employee bag, Bert an
    // empty task bag.
    let db = edge_db();
    let engine = pipeline::engine_from_database(&db).unwrap();
    let compiled = pipeline::compile(&q, &edge_schema()).unwrap();
    let v = pipeline::execute_bound(&compiled, &engine, &sqlengine::ParamValues::new()).unwrap();
    let quality = v
        .as_bag()
        .unwrap()
        .iter()
        .find(|r| r.field("dept") == Some(&Value::string("Quality")))
        .expect("Quality present");
    assert_eq!(quality.field("emps"), Some(&Value::bag([])));
    let product = v
        .as_bag()
        .unwrap()
        .iter()
        .find(|r| r.field("dept") == Some(&Value::string("Product")))
        .expect("Product present");
    let bert = product
        .field("emps")
        .and_then(Value::as_bag)
        .unwrap()
        .iter()
        .find(|e| e.field("name") == Some(&Value::string("Bert")))
        .expect("Bert present");
    assert_eq!(bert.field("tasks"), Some(&Value::bag([])));
}

/// A four-deep nesting (departments → employees → tasks → a per-task bag):
/// one columnar stage per bag constructor, stitched through three levels of
/// index-keyed recursion.
#[test]
fn deeply_nested_shapes_stitch_correctly() {
    let q = for_in(
        "d",
        table("departments"),
        singleton(record(vec![
            ("dept", project(var("d"), "name")),
            (
                "emps",
                for_where(
                    "e",
                    table("employees"),
                    eq(project(var("e"), "dept"), project(var("d"), "name")),
                    singleton(record(vec![
                        ("name", project(var("e"), "name")),
                        (
                            "tasks",
                            for_where(
                                "t",
                                table("tasks"),
                                eq(project(var("t"), "employee"), project(var("e"), "name")),
                                singleton(record(vec![
                                    ("task", project(var("t"), "task")),
                                    (
                                        "watchers",
                                        for_where(
                                            "w",
                                            table("employees"),
                                            eq(
                                                project(var("w"), "dept"),
                                                project(var("e"), "dept"),
                                            ),
                                            singleton(project(var("w"), "name")),
                                        ),
                                    ),
                                ])),
                            ),
                        ),
                    ])),
                ),
            ),
        ])),
    );
    assert_edge_query_agrees(&q);
}

/// Record labels whose flattened names collide (`a` · `b` flattens to `a_b`,
/// which also appears as a literal label): the layout disambiguates the SQL
/// column names positionally, and both result paths must still decode the
/// right cells into the right fields.
#[test]
fn duplicate_flattened_labels_decode_correctly() {
    let q = for_in(
        "e",
        table("employees"),
        singleton(record(vec![
            ("a", record(vec![("b", project(var("e"), "name"))])),
            ("a_b", project(var("e"), "dept")),
        ])),
    );
    assert_edge_query_agrees(&q);
}

/// Duplicate rows (a union doubling every employee) keep their
/// multiplicities through the index-keyed grouping.
#[test]
fn duplicate_rows_keep_their_multiplicity() {
    let q = for_in(
        "d",
        table("departments"),
        singleton(record(vec![
            ("dept", project(var("d"), "name")),
            (
                "people",
                union(
                    for_where(
                        "e",
                        table("employees"),
                        eq(project(var("e"), "dept"), project(var("d"), "name")),
                        singleton(project(var("e"), "name")),
                    ),
                    for_where(
                        "e",
                        table("employees"),
                        eq(project(var("e"), "dept"), project(var("d"), "name")),
                        singleton(project(var("e"), "name")),
                    ),
                ),
            ),
        ])),
    );
    assert_edge_query_agrees(&q);
}

/// Prepared re-execution stays on the zero-planning hot path: executing the
/// same compiled query many times builds no further engine plans and keeps
/// producing identical values — the per-execution work is exactly plan
/// evaluation plus columnar decode + stitch.
#[test]
fn prepared_re_execution_does_zero_planning_and_is_deterministic() {
    let db = small_db();
    let session = Shredder::over(db).unwrap();
    let q = datagen::queries::q4();
    let prepared = session.prepare(&q).unwrap();
    let first = session.execute(&prepared).unwrap();
    let plans_before = session.engine().unwrap().plans_built();
    for _ in 0..10 {
        let again = session.execute(&prepared).unwrap();
        assert_eq!(first, again, "re-execution must be deterministic");
    }
    assert_eq!(
        session.engine().unwrap().plans_built(),
        plans_before,
        "bound re-execution must never reach the planner"
    );
}
