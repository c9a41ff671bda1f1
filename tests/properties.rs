//! Property-based tests of the pipeline's key invariants (Theorems 1 and 4):
//! over randomly generated databases and a family of randomly assembled
//! queries, normalisation preserves the nested semantics and shredding +
//! stitching reproduces it, both in memory and through the SQL engine.
//!
//! The random cases are driven by the workspace's own seeded generator
//! (`datagen::Rng`) rather than an external property-testing crate, so the
//! suite is deterministic: a failure always reproduces.

use datagen::Rng;
use query_shredding::prelude::*;
use query_shredding::shredding::pipeline::compile;

const CASES: u64 = 24;

/// A random small organisation database configuration.
fn random_config(rng: &mut Rng) -> OrgConfig {
    OrgConfig {
        departments: rng.range_usize(1, 4),
        employees_per_department: rng.range_usize(1, 7),
        contacts_per_department: rng.range_usize(0, 3),
        seed: rng.next_u64(),
        ..OrgConfig::default()
    }
}

/// A random λNRC query from a small combinator family: a random salary
/// threshold filter, an optional nesting level over employees/tasks and an
/// optional union branch.
fn random_query(rng: &mut Rng) -> nrc::Term {
    let threshold = rng.range_i64(0, 99_999);
    let nest_tasks = rng.chance(0.5);
    let with_union = rng.chance(0.5);
    let with_empty_test = rng.chance(0.5);

    let inner = |dept: nrc::Term| {
        let body = if nest_tasks {
            record(vec![
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
            ])
        } else {
            record(vec![("name", project(var("e"), "name"))])
        };
        let cond = and(
            eq(project(var("e"), "dept"), dept),
            gt(project(var("e"), "salary"), int(threshold)),
        );
        for_where("e", table("employees"), cond, singleton(body))
    };
    let people = if with_union {
        // The contacts branch must have the same element type as the
        // employees branch, so it gets a singleton "buy" task bag when
        // the employees branch is nested (as in the paper's Q6).
        let contact_body = if nest_tasks {
            record(vec![
                ("name", project(var("c"), "name")),
                ("tasks", singleton(string("buy"))),
            ])
        } else {
            record(vec![("name", project(var("c"), "name"))])
        };
        union(
            inner(project(var("d"), "name")),
            for_where(
                "c",
                table("contacts"),
                and(
                    eq(project(var("c"), "dept"), project(var("d"), "name")),
                    project(var("c"), "client"),
                ),
                singleton(contact_body),
            ),
        )
    } else {
        inner(project(var("d"), "name"))
    };
    let dept_cond = if with_empty_test {
        not(is_empty(for_where(
            "e2",
            table("employees"),
            eq(project(var("e2"), "dept"), project(var("d"), "name")),
            singleton(record(vec![])),
        )))
    } else {
        boolean(true)
    };
    for_where(
        "d",
        table("departments"),
        dept_cond,
        singleton(record(vec![
            ("department", project(var("d"), "name")),
            ("people", people),
        ])),
    )
}

/// Run `check` over `CASES` random (database, query) pairs, reporting the
/// per-case seed on failure so it can be replayed.
fn for_random_cases(master_seed: u64, check: impl Fn(&Shredder, &nrc::Term, &Value)) {
    let mut rng = Rng::seed_from_u64(master_seed);
    for case in 0..CASES {
        let config = random_config(&mut rng);
        let q = random_query(&mut rng);
        let db = generate(&config);
        let session = Shredder::over(db).unwrap();
        let reference = session.oracle(&q).unwrap();
        eprintln!("case {} (db seed {})", case, config.seed);
        check(&session, &q, &reference);
    }
}

/// Theorem 1: normalisation preserves the nested semantics.
#[test]
fn normalisation_preserves_semantics() {
    for_random_cases(0xC0FFEE, |session, q, reference| {
        let normalised = shredding::normalise(q, session.schema()).unwrap();
        let renormalised = session.oracle(&normalised.to_term()).unwrap();
        assert!(reference.multiset_eq(&renormalised));
    });
}

/// Theorem 4 (in-memory): stitching the shredded results equals direct
/// evaluation, under every indexing scheme.
#[test]
fn shredding_and_stitching_preserve_semantics() {
    for_random_cases(0xBEEF, |session, q, reference| {
        for scheme in IndexScheme::ALL {
            let in_memory = Shredder::builder()
                .schema(session.schema().clone())
                .engine(session.shared_engine().unwrap())
                .backend(Box::new(ShreddedMemoryBackend::new(scheme)))
                .build()
                .unwrap();
            let v = in_memory.run(q).unwrap();
            assert!(v.multiset_eq(reference), "scheme {}", scheme);
        }
    });
}

/// Theorem 4 (SQL path): compiling to SQL, executing on the engine and
/// stitching also equals direct evaluation. The compiled stages filter each
/// relation below its join and keep no `EXISTS` test in a filter, since no
/// pass after the planner moves a conjunct it misplaced.
#[test]
fn the_sql_path_preserves_semantics() {
    for_random_cases(0xF00D, |session, q, reference| {
        let via_sql = session.run(q).unwrap();
        assert!(via_sql.multiset_eq(reference));
        for stage in compile(q, session.schema()).unwrap().stages.annotations() {
            let misplaced = bench::misplaced_filters(&stage.plan);
            assert!(misplaced.is_empty(), "{}: {:?}", stage.path, misplaced);
        }
    });
}

/// Printer↔parser round trip: every SQL string `core::sqlgen` produces for
/// the paper's benchmark suite (QF1–QF6 and Q1–Q6) parses back to an AST
/// that prints identically.
#[test]
fn generated_sql_round_trips_through_the_parser() {
    let schema = organisation_schema();
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    let mut stages = 0;
    for (name, q) in queries {
        let compiled = compile(&q, &schema).unwrap();
        for sql in compiled.sql_texts() {
            let parsed = query_shredding::sqlengine::parse_query(&sql).unwrap_or_else(|e| {
                panic!("{}: generated SQL fails to parse: {}\n{}", name, e, sql)
            });
            let reprinted = query_shredding::sqlengine::print_query(&parsed);
            assert_eq!(
                reprinted, sql,
                "{}: print ∘ parse is not the identity",
                name
            );
            stages += 1;
        }
    }
    assert!(stages >= 12, "the suite must cover every query's stages");
}

/// The loop-lifting baseline is also correct (it is only slower).
#[test]
fn loop_lifting_preserves_semantics() {
    for_random_cases(0xDECAF, |session, q, reference| {
        let lifting = Shredder::builder()
            .schema(session.schema().clone())
            .engine(session.shared_engine().unwrap())
            .backend(Box::new(LoopLiftBackend))
            .build()
            .unwrap();
        let lifted = lifting.run(q).unwrap();
        assert!(lifted.multiset_eq(reference));
    });
}
