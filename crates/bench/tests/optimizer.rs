//! Differential suite for the logical optimizer phase (PR 10).
//!
//! Every benchmark query the paper evaluates (Q1–Q6 nested, QF1–QF6 flat)
//! runs three ways — a session's optimized shredded pipeline, the same
//! pipeline compiled without the optimizer (`compile_normalised_opts(…,
//! false)`), and the λNRC interpreter oracle — at worker counts {1, 4}. The
//! three answers must agree as multisets. On top of the differential sweep,
//! the compiled plans and golden `explain()` snapshots pin down where each
//! job is done: the planner's predicate placement on Q2 and Q6,
//! decorrelation on Q2 and QF6, column pruning on QF2 and Q5, and
//! package-level common-subplan sharing on Q1.

use datagen::{generate, organisation_schema, OrgConfig};
use nrc::builder::*;
use nrc::Term;
use shredding::normalise_with_type;
use shredding::pipeline::{
    compile_normalised_opts, engine_from_database, execute_bound_obs_opts, storage_from_database,
    CompiledQuery,
};
use shredding::session::{auto_parameterize, Shredder};
use sqlengine::{ExecOptions, OptReport, ParamValues, PhysicalPlan};
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

/// `q`'s stages compiled below the session, with or without the logical
/// optimizer.
fn compiled(q: &Term, optimize: bool) -> CompiledQuery {
    let schema = organisation_schema();
    let (normalised, result_type) = normalise_with_type(q, &schema).unwrap();
    compile_normalised_opts(normalised, result_type, &schema, None, optimize).unwrap()
}

/// The tentpole guarantee: rewritten plans are observationally identical to
/// the plans they replace, at every worker count.
#[test]
fn optimized_plans_agree_with_unoptimized_plans_and_the_oracle() {
    let db = org_db();
    let engine = engine_from_database(&db).unwrap();
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
        let raw = compiled(&q, false);
        for (workers, session) in &sessions {
            let optimized = session.run(&q).unwrap();
            let unoptimized = execute_bound_obs_opts(
                &raw,
                &engine,
                &ParamValues::new(),
                None,
                ExecOptions { workers: *workers },
            )
            .unwrap();
            assert!(
                optimized.multiset_eq(&reference),
                "{} optimized vs oracle (workers {})",
                name,
                workers
            );
            assert!(
                optimized.multiset_eq(&unoptimized),
                "{} optimized vs unoptimized (workers {})",
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

/// Every node of every stage of `q` compiled with the optimizer.
fn compiled_nodes(q: &Term) -> Vec<PhysicalPlan> {
    compiled(q, true)
        .stages
        .annotations()
        .iter()
        .flat_map(|stage| stage.plan.nodes().into_iter().cloned().collect::<Vec<_>>())
        .collect()
}

/// Q2 (departments with no employee lacking an "abstract" task) is the
/// doubly-correlated NOT-EXISTS query: the planner turns the negation chain
/// at each nesting level into an anti-join, and both decorrelate into hash
/// anti-joins, leaving no row-at-a-time EXISTS evaluation anywhere.
#[test]
fn q2_compiles_to_two_hash_anti_joins() {
    let rendered = explain_for(&datagen::queries::q2());
    assert_eq!(
        rendered
            .matches("decorrelated ExistsSemiJoin anti into HashSemiJoin")
            .count(),
        2,
        "expected both nesting levels decorrelated in:\n{}",
        rendered
    );
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
/// inside a NOT EXISTS; both must decorrelate.
#[test]
fn qf6_explain_shows_decorrelation_over_a_union_build() {
    let rendered = explain_for(&datagen::queries::qf6());
    assert_eq!(
        rendered
            .matches("decorrelated ExistsSemiJoin anti into HashSemiJoin")
            .count(),
        2,
        "expected both anti-joins decorrelated in:\n{}",
        rendered
    );
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

/// Column pruning narrows both inputs of QF2's one join (it reads 3 of the
/// 7 joined columns) and all four inputs of Q5's two.
#[test]
fn qf2_and_q5_explain_show_narrowed_join_inputs() {
    for (q, inputs) in [(datagen::queries::qf2(), 2), (datagen::queries::q5(), 4)] {
        let rendered = explain_for(&q);
        let rewrite = format!(
            "narrowed {} join input(s) to the columns read above them",
            inputs
        );
        assert!(
            rendered.contains(&rewrite),
            "missing `{}` in:\n{}",
            rewrite,
            rendered
        );
    }
}

/// Pruned plans are re-validated like every other rewrite, and pruning never
/// narrows a `WITH` definition, so cross-stage sharing — which compares
/// definitions — finds what it found before the pass existed: Q1's outer
/// query, bound by two stages, and nothing else.
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

/// With the optimizer off, no stage records a rewrite and nothing is
/// shared across stages.
#[test]
fn unoptimized_sessions_report_no_rewrites() {
    for q in [
        datagen::queries::q1(),
        datagen::queries::q2(),
        datagen::queries::q6(),
    ] {
        let unoptimized = compiled(&q, false);
        for stage in unoptimized.stages.annotations() {
            assert!(
                stage.opt.rewrites.is_empty(),
                "optimize = false still rewrote stage {}: {:?}",
                stage.path,
                stage.opt.rewrites
            );
        }
        assert!(unoptimized.shared.is_empty());
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

/// Append one plan's optimizer-visible facts to a golden transcript.
fn describe(out: &mut String, heading: &str, plan: &PhysicalPlan, report: &OptReport) {
    writeln!(out, "--- {heading}").unwrap();
    writeln!(out, "{plan}").unwrap();
    for rewrite in &report.rewrites {
        writeln!(out, "rewrite: {rewrite}").unwrap();
    }
    for skip in &report.skipped {
        writeln!(out, "skipped: {} ({})", skip.node, skip.reason).unwrap();
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

/// The optimizer pinned whole: for every stage of QF1–QF6 and Q1–Q6, raw and
/// auto-parameterized, the plan compiled with the optimizer on (its
/// rendering, rewrite log in order, skips, param slots and node counts).
/// `optimize` reads no catalog, so the unoptimized stage plan optimized
/// against a loaded 8-department storage must be that same plan. Refresh
/// with `UPDATE_GOLDEN=1 cargo test -p bench --test optimizer`.
#[test]
fn optimizer_output_matches_the_golden_file() {
    let schema = organisation_schema();
    let storage = storage_from_database(&generate(&OrgConfig {
        departments: 8,
        ..OrgConfig::default()
    }))
    .unwrap();
    let mut out = String::new();
    let queries = datagen::queries::flat_queries()
        .into_iter()
        .chain(datagen::queries::nested_queries());
    for (name, q) in queries {
        let (parameterized, _) = auto_parameterize(&q);
        for (form, term) in [("raw", &q), ("auto-parameterized", &parameterized)] {
            let (normalised, ty) = normalise_with_type(term, &schema).unwrap();
            let optimized =
                compile_normalised_opts(normalised.clone(), ty.clone(), &schema, None, true)
                    .unwrap();
            let unoptimized =
                compile_normalised_opts(normalised, ty, &schema, None, false).unwrap();
            let stages = optimized
                .stages
                .annotations()
                .into_iter()
                .zip(unoptimized.stages.annotations());
            for (i, (compiled, raw)) in stages.enumerate() {
                writeln!(out, "=== {name} {form} stage {i} ({})", compiled.path).unwrap();
                describe(&mut out, "compiled", &compiled.plan, &compiled.opt);
                // The planner places every conjunct: neither plan needs a
                // pass to move one.
                for plan in [&compiled.plan, &raw.plan] {
                    let misplaced = bench::misplaced_filters(plan);
                    assert!(
                        misplaced.is_empty(),
                        "{name} {form} stage {i}: {misplaced:?}"
                    );
                }
                assert_eq!(
                    sqlengine::optimize(raw.plan.clone(), &storage).0,
                    compiled.plan,
                    "{name} {form} stage {i}: optimizing on storage changed the plan"
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
        "the optimizer's output drifted from tests/golden/optimizer_plans.golden; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// A correlation the decorrelator cannot turn into hash keys (`<` instead of
/// `=`): the plan must keep the correlated semi-join, the analysis pass must
/// surface the O001 warning with the skip reason, and the un-rewritten plan
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
