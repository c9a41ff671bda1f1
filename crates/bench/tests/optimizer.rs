//! The compiled plans of the benchmark queries.
//!
//! Every benchmark query the paper evaluates (Q1–Q6 nested, QF1–QF6 flat)
//! runs through a session's shredded pipeline at worker counts {1, 4} and
//! must agree with the λNRC interpreter oracle as a multiset. On top of
//! that sweep, the compiled plans and golden `explain()` snapshots pin down
//! what the planner decides — predicate placement on Q2 and Q6,
//! decorrelation on Q2 and QF6, narrowed join inputs on QF2 and Q5 — and
//! the package-level common-subplan sharing on Q1.

use datagen::{generate, organisation_schema, OrgConfig};
use nrc::builder::*;
use nrc::Term;
use shredding::normalise_with_type;
use shredding::pipeline::{compile_normalised_opts, CompiledQuery};
use shredding::session::{auto_parameterize, Shredder};
use sqlengine::{OptReport, PhysicalPlan};
use std::fmt::Write;

/// A small but non-degenerate organisation: every table non-empty, tasks
/// sparse enough that EXISTS/NOT-EXISTS queries have both matching and
/// non-matching outer rows.
fn org_db() -> nrc::schema::Database {
    generate(&OrgConfig {
        departments: 6,
        employees_per_department: 6,
        contacts_per_department: 3,
        seed: 97,
        ..OrgConfig::default()
    })
}

/// All twelve benchmark queries: Q1–Q6 (nested) then QF1–QF6 (flat).
fn all_queries() -> Vec<(&'static str, Term)> {
    datagen::queries::nested_queries()
        .into_iter()
        .chain(datagen::queries::flat_queries())
        .collect()
}

/// `q`'s stages compiled below the session.
fn compiled(q: &Term) -> CompiledQuery {
    let schema = organisation_schema();
    let (normalised, result_type) = normalise_with_type(q, &schema).unwrap();
    compile_normalised_opts(normalised, result_type, &schema, None, true).unwrap()
}

/// The compiled plans answer what the oracle answers, at every worker count.
/// (`tests/vexec_differential.rs` holds every stage against the
/// interpreter.)
#[test]
fn compiled_plans_agree_with_the_oracle() {
    let db = org_db();
    let sessions: Vec<(usize, Shredder)> = [1usize, 4]
        .into_iter()
        .map(|workers| {
            let session = Shredder::builder()
                .database(db.clone())
                .workers(workers)
                .build()
                .unwrap();
            (workers, session)
        })
        .collect();
    for (name, q) in all_queries() {
        let reference = sessions[0].1.oracle(&q).unwrap();
        for (workers, session) in &sessions {
            assert!(
                session.run(&q).unwrap().multiset_eq(&reference),
                "{} vs oracle (workers {})",
                name,
                workers
            );
        }
    }
}

/// Renders a session's explain output for one query.
fn explain_for(q: &Term) -> String {
    let shredder = Shredder::builder().database(org_db()).build().unwrap();
    let prepared = shredder.prepare(q).unwrap();
    prepared.explain().to_string()
}

/// Every node of every stage of `q`.
fn compiled_nodes(q: &Term) -> Vec<PhysicalPlan> {
    compiled(q)
        .stages
        .annotations()
        .iter()
        .flat_map(|stage| stage.plan.nodes().into_iter().cloned().collect::<Vec<_>>())
        .collect()
}

/// Q2 (departments with no employee lacking an "abstract" task) is the
/// doubly-correlated NOT-EXISTS query: the planner turns the negation chain
/// at each nesting level into a hash anti-join, leaving no row-at-a-time
/// EXISTS evaluation anywhere.
#[test]
fn q2_compiles_to_two_hash_anti_joins() {
    let rendered = explain_for(&datagen::queries::q2());
    let nodes = compiled_nodes(&datagen::queries::q2());
    let hash_anti = nodes
        .iter()
        .filter(|n| matches!(n, PhysicalPlan::HashSemiJoin { anti: true, .. }))
        .count();
    assert_eq!(hash_anti, 2, "in:\n{}", rendered);
    assert!(
        !nodes
            .iter()
            .any(|n| matches!(n, PhysicalPlan::ExistsSemiJoin { .. })),
        "plan kept a correlated node:\n{}",
        rendered
    );
}

/// Just the rendered physical-plan lines (prefixed `  > `) of an explain.
fn physical_plan_lines(rendered: &str) -> String {
    rendered
        .lines()
        .filter(|l| l.trim_start().starts_with('>'))
        .collect::<Vec<_>>()
        .join("\n")
}

/// QF6 ("employees with no tasks or a salary over 50k") unions two branches
/// inside a NOT EXISTS, in each of its two stage branches: both are hash
/// anti-joins whose build is the union of the two branches' keys.
#[test]
fn qf6_explain_shows_decorrelation_over_a_union_build() {
    let rendered = explain_for(&datagen::queries::qf6());
    let union_builds = compiled_nodes(&datagen::queries::qf6())
        .iter()
        .filter(|n| {
            matches!(n, PhysicalPlan::HashSemiJoin { anti: true, build, .. }
                if matches!(build.as_ref(), PhysicalPlan::UnionAll(bs) if bs.len() == 2))
        })
        .count();
    assert_eq!(union_builds, 2, "in:\n{}", rendered);
    let plan = physical_plan_lines(&rendered);
    assert!(
        !plan.contains("ExistsSemiJoin"),
        "plan kept a correlated node:\n{}",
        plan
    );
}

/// Q6's salary and `client` predicates each read one relation, so the
/// planner filters that relation below its hash join: every filter of the
/// compiled stages is an input of a `HashJoin`.
#[test]
fn q6_filters_sit_below_their_hash_joins() {
    let nodes = compiled_nodes(&datagen::queries::q6());
    let filters = nodes
        .iter()
        .filter(|n| matches!(n, PhysicalPlan::Filter { .. }))
        .count();
    let below_joins: Vec<String> = nodes
        .iter()
        .filter(|n| matches!(n, PhysicalPlan::HashJoin { .. }))
        .flat_map(|join| join.children())
        .filter_map(|input| match input {
            PhysicalPlan::Filter { predicate, .. } => Some(predicate.to_string()),
            _ => None,
        })
        .collect();
    assert_eq!(below_joins.len(), filters, "{:?}", below_joins);
    for column in ["salary", "client"] {
        assert!(
            below_joins.iter().any(|p| p.contains(column)),
            "no {column} filter below a join: {:?}",
            below_joins
        );
    }
}

/// Q1's four stages share the same outer `WITH q AS (...)` definition; the
/// package-level CSE pass must hoist it into a shared subplan executed once.
#[test]
fn q1_explain_shows_cross_stage_subplan_sharing() {
    let rendered = explain_for(&datagen::queries::q1());
    assert!(
        rendered.contains("bound `q` to package-shared subplan #0 (cross-stage CSE)"),
        "missing cross-stage CSE in:\n{}",
        rendered
    );
    assert!(
        rendered
            .matches("bound `q` to package-shared subplan #0 (cross-stage CSE)")
            .count()
            >= 2,
        "a shared subplan needs at least two consuming stages:\n{}",
        rendered
    );
}

/// The planner narrows every join input of QF2 (its one join reads 3 of the
/// 7 joined columns) and of Q5 (two joins) to the columns read above it: a
/// `Project` of bare columns that reads fewer columns than its input has.
#[test]
fn qf2_and_q5_explain_show_narrowed_join_inputs() {
    for (q, inputs) in [(datagen::queries::qf2(), 2), (datagen::queries::q5(), 4)] {
        let nodes = compiled_nodes(&q);
        let join_inputs: Vec<&PhysicalPlan> = nodes
            .iter()
            .filter(|n| {
                matches!(
                    n,
                    PhysicalPlan::HashJoin { .. } | PhysicalPlan::NestedLoopJoin { .. }
                )
            })
            .flat_map(|join| join.children())
            .collect();
        assert_eq!(join_inputs.len(), inputs, "{:?}", join_inputs);
        for input in join_inputs {
            let PhysicalPlan::Project {
                input: below,
                exprs,
                ..
            } = input
            else {
                panic!("an unnarrowed join input:\n{}", input);
            };
            assert!(
                exprs
                    .iter()
                    .all(|e| matches!(e, sqlengine::plan::VExpr::Col { .. }))
                    && exprs.len() < below.output_columns().len(),
                "not a narrowing projection:\n{}",
                input
            );
        }
    }
}

/// Planned plans verify clean, and narrowing never touches a `WITH`
/// definition's output, so cross-stage sharing — which compares
/// definitions — finds Q1's outer query, bound by two stages, and nothing
/// else.
#[test]
fn pruned_plans_verify_clean_and_keep_their_shared_slots() {
    let shredder = Shredder::builder()
        .database(org_db())
        .verify(true)
        .build()
        .unwrap();
    for (name, q) in all_queries() {
        let prepared = shredder.prepare(&q).unwrap();
        assert!(
            !prepared.check().has_errors(),
            "{}: {}",
            name,
            prepared.check()
        );
        let rendered = prepared.explain().to_string();
        assert_eq!(
            rendered.matches("to package-shared subplan #").count(),
            if name == "Q1" { 2 } else { 0 },
            "{} binds other shared slots:\n{}",
            name,
            rendered
        );
    }
}

/// The golden snapshot: the full explain() rendering of Q2, pinned
/// byte-for-byte so plan-shape regressions are loud. Refresh
/// with `UPDATE_GOLDEN=1 cargo test -p bench --test optimizer`.
#[test]
fn q2_explain_matches_the_golden_snapshot() {
    let rendered = explain_for(&datagen::queries::q2());
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/q2_explain.golden"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden snapshot exists");
    assert_eq!(
        rendered, golden,
        "Q2 explain drifted from the golden snapshot; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// Append one plan's facts to a golden transcript.
fn describe(out: &mut String, heading: &str, plan: &PhysicalPlan, report: &OptReport) {
    writeln!(out, "--- {heading}").unwrap();
    writeln!(out, "{plan}").unwrap();
    for rewrite in &report.rewrites {
        writeln!(out, "rewrite: {rewrite}").unwrap();
    }
    writeln!(out, "params: {:?}", plan.params()).unwrap();
    writeln!(
        out,
        "node_count: {}, nodes: {}",
        plan.node_count(),
        plan.nodes().len()
    )
    .unwrap();
}

/// The plans pinned whole: for every stage of QF1–QF6 and Q1–Q6, raw and
/// auto-parameterized, the compiled plan (its rendering, cross-stage
/// sharing, param slots and node counts). Refresh with
/// `UPDATE_GOLDEN=1 cargo test -p bench --test optimizer`.
#[test]
fn optimizer_output_matches_the_golden_file() {
    let schema = organisation_schema();
    let mut out = String::new();
    let queries = datagen::queries::flat_queries()
        .into_iter()
        .chain(datagen::queries::nested_queries());
    for (name, q) in queries {
        let (parameterized, _) = auto_parameterize(&q);
        for (form, term) in [("raw", &q), ("auto-parameterized", &parameterized)] {
            let (normalised, ty) = normalise_with_type(term, &schema).unwrap();
            let compiled = compile_normalised_opts(normalised, ty, &schema, None, true).unwrap();
            for (i, stage) in compiled.stages.annotations().into_iter().enumerate() {
                writeln!(out, "=== {name} {form} stage {i} ({})", stage.path).unwrap();
                describe(&mut out, "compiled", &stage.plan, &stage.opt);
                // The planner places every conjunct: no pass needs to move
                // one.
                let misplaced = bench::misplaced_filters(&stage.plan);
                assert!(
                    misplaced.is_empty(),
                    "{name} {form} stage {i}: {misplaced:?}"
                );
            }
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/optimizer_plans.golden"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &out).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert!(
        out == golden,
        "the compiled plans drifted from tests/golden/optimizer_plans.golden; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// A correlation the planner cannot turn into hash keys (`<` instead of
/// `=`): the plan must keep the correlated semi-join, the analysis pass must
/// surface the O001 warning, and the un-rewritten plan
/// must still agree with the oracle.
#[test]
fn non_equality_correlation_is_skipped_and_diagnosed() {
    // Departments with an employee whose name sorts strictly below the
    // department's own name — correlated through `<`.
    let q = for_where(
        "d",
        table("departments"),
        not(is_empty(for_where(
            "e",
            table("employees"),
            lt(project(var("e"), "name"), project(var("d"), "name")),
            singleton(project(var("e"), "name")),
        ))),
        singleton(project(var("d"), "name")),
    );
    let db = org_db();
    let shredder = Shredder::builder()
        .database(db)
        .verify(true)
        .build()
        .unwrap();
    let prepared = shredder.prepare(&q).unwrap();
    assert!(
        prepared
            .check()
            .has_code(shredding::analysis::codes::RETAINED_CORRELATED_SUBQUERY),
        "expected an O001 warning, got: {}",
        prepared.check()
    );
    let via_plan = shredder.execute(&prepared).unwrap();
    let reference = shredder.oracle(&q).unwrap();
    assert!(via_plan.multiset_eq(&reference));
}
