//! Integration tests for the static verification layer: golden lint output
//! over the benchmark corpus, seeded mutation properties over compiled
//! physical plans, and prepare-time rejection of corrupted backend plans.

use datagen::rng::Rng;
use nrc::builder::*;
use nrc::schema::Schema;
use nrc::term::Term;
use shredding::analysis::{codes, lint, plan_check, Severity};
use shredding::pipeline::{self, CompiledQuery};
use shredding::session::{
    BackendPlan, Bindings, ExecContext, PlanRequest, Shredder, SqlBackend, StageExplain,
};
use shredding::ShredError;
use sqlengine::plan::{PhysicalPlan, VExpr};
use sqlengine::storage::TableDef;

fn corpus() -> Vec<(&'static str, Term)> {
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    queries
}

// ---------------------------------------------------------------------------
// Golden lint output over the benchmark corpus
// ---------------------------------------------------------------------------

fn lint_line(name: &str, term: &Term, declared: &[String]) -> String {
    let ds = lint::lint_term(term, declared);
    if ds.is_empty() {
        format!("{}: clean", name)
    } else {
        let codes: Vec<&str> = ds.iter().map(|d| d.code).collect();
        format!("{}: {}", name, codes.join(" "))
    }
}

/// The lint pass over QF1–QF6 / Q1–Q6 plus a handful of deliberately
/// suspicious terms, compared against a checked-in golden file. The corpus
/// must stay clean; the crafted terms pin each lint code's trigger.
#[test]
fn benchmark_corpus_lints_match_the_golden_file() {
    let mut lines = Vec::new();
    for (name, q) in corpus() {
        lines.push(lint_line(name, &q, &[]));
    }
    let crafted: Vec<(&str, Term)> = vec![
        (
            "shadowed-binder",
            for_in(
                "x",
                table("employees"),
                for_in(
                    "x",
                    table("employees"),
                    singleton(project(var("x"), "name")),
                ),
            ),
        ),
        (
            "dead-generator",
            for_in("x", table("employees"), singleton(int(1))),
        ),
        (
            "unused-let",
            app(
                lam(
                    "y",
                    for_in(
                        "x",
                        table("employees"),
                        singleton(project(var("x"), "name")),
                    ),
                ),
                int(1),
            ),
        ),
        (
            "constant-conditional",
            for_in(
                "x",
                table("employees"),
                if_then_else(
                    boolean(true),
                    singleton(project(var("x"), "name")),
                    empty_bag(),
                ),
            ),
        ),
    ];
    for (name, q) in &crafted {
        lines.push(lint_line(name, q, &[]));
    }
    lines.push(lint_line(
        "unused-param",
        &for_in(
            "x",
            table("employees"),
            singleton(project(var("x"), "name")),
        ),
        &["cutoff".to_string()],
    ));
    let actual = format!("{}\n", lines.join("\n"));
    let golden = include_str!("golden/lint_corpus.golden");
    assert_eq!(
        actual, golden,
        "lint output drifted from tests/golden/lint_corpus.golden; \
         if the change is intended, update the golden file to:\n{}",
        actual
    );
}

// ---------------------------------------------------------------------------
// Seeded mutation properties over compiled physical plans
// ---------------------------------------------------------------------------

fn visit_mut(plan: &mut PhysicalPlan, f: &mut dyn FnMut(&mut PhysicalPlan)) {
    f(plan);
    match plan {
        PhysicalPlan::UnitRow | PhysicalPlan::TableScan { .. } | PhysicalPlan::CteScan { .. } => {}
        PhysicalPlan::SubqueryScan { input, .. }
        | PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::RowNumber { input, .. }
        | PhysicalPlan::Project { input, .. } => visit_mut(input, f),
        PhysicalPlan::NestedLoopJoin { left, right }
        | PhysicalPlan::HashJoin { left, right, .. } => {
            visit_mut(left, f);
            visit_mut(right, f);
        }
        PhysicalPlan::ExistsSemiJoin { input, subplan, .. } => {
            visit_mut(input, f);
            visit_mut(subplan, f);
        }
        PhysicalPlan::HashSemiJoin { input, build, .. } => {
            visit_mut(input, f);
            visit_mut(build, f);
        }
        PhysicalPlan::UnionAll(branches) => {
            for b in branches {
                visit_mut(b, f);
            }
        }
        PhysicalPlan::With {
            definition, body, ..
        } => {
            visit_mut(definition, f);
            visit_mut(body, f);
        }
    }
}

/// A plan corruption with the diagnostic code the validator must report.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// Rename a `TableScan` to a table the catalog does not know → P011.
    RenameTable,
    /// Drop the last output column name of a `Project` → P008.
    TruncateProject,
    /// Empty one side's key list of a `HashJoin` → P003.
    BreakJoinArity,
    /// Replace a `Filter` predicate with an undeclared param slot → P005.
    UndeclaredParam,
}

impl Mutation {
    const ALL: [Mutation; 4] = [
        Mutation::RenameTable,
        Mutation::TruncateProject,
        Mutation::BreakJoinArity,
        Mutation::UndeclaredParam,
    ];

    fn expected_code(self) -> &'static str {
        match self {
            Mutation::RenameTable => codes::UNKNOWN_TABLE,
            Mutation::TruncateProject => codes::PROJECTION_ARITY,
            Mutation::BreakJoinArity => codes::JOIN_KEY_ARITY,
            Mutation::UndeclaredParam => codes::UNDECLARED_PARAM_SLOT,
        }
    }

    fn matches(self, node: &PhysicalPlan) -> bool {
        match self {
            Mutation::RenameTable => matches!(node, PhysicalPlan::TableScan { .. }),
            Mutation::TruncateProject => {
                matches!(node, PhysicalPlan::Project { columns, .. } if !columns.is_empty())
            }
            Mutation::BreakJoinArity => {
                matches!(node, PhysicalPlan::HashJoin { left_keys, .. } if !left_keys.is_empty())
            }
            Mutation::UndeclaredParam => matches!(node, PhysicalPlan::Filter { .. }),
        }
    }

    fn sites(self, plan: &PhysicalPlan) -> usize {
        let mut plan = plan.clone();
        let mut n = 0;
        visit_mut(&mut plan, &mut |node| {
            if self.matches(node) {
                n += 1;
            }
        });
        n
    }

    fn apply(self, plan: &mut PhysicalPlan, site: usize) {
        let mut remaining = site;
        let mut done = false;
        visit_mut(plan, &mut |node| {
            if done || !self.matches(node) {
                return;
            }
            if remaining > 0 {
                remaining -= 1;
                return;
            }
            done = true;
            match (self, node) {
                (Mutation::RenameTable, PhysicalPlan::TableScan { table, .. }) => {
                    *table = "no_such_table".to_string();
                }
                (Mutation::TruncateProject, PhysicalPlan::Project { columns, .. }) => {
                    columns.pop();
                }
                (Mutation::BreakJoinArity, PhysicalPlan::HashJoin { right_keys, .. }) => {
                    right_keys.clear();
                }
                (Mutation::UndeclaredParam, PhysicalPlan::Filter { predicate, .. }) => {
                    *predicate = VExpr::Param("__undeclared".to_string());
                }
                _ => unreachable!("matches() gated the node kind"),
            }
        });
        assert!(done, "apply() must find the chosen site");
    }
}

fn stage_plans(compiled: &CompiledQuery) -> Vec<PhysicalPlan> {
    compiled
        .stages
        .annotations()
        .into_iter()
        .map(|s| s.plan.clone())
        .collect()
}

/// Property: every well-formed compiled stage validates clean, and a random
/// single-node corruption is always reported with exactly the documented
/// diagnostic code. Seeded via the in-repo splitmix64 generator, so failures
/// reproduce.
#[test]
fn seeded_plan_mutations_trigger_the_documented_codes() {
    let schema: Schema = datagen::organisation_schema();
    let catalog: Vec<TableDef> = pipeline::table_defs_of_schema(&schema);
    let compiled: Vec<(&'static str, CompiledQuery)> = corpus()
        .into_iter()
        .map(|(name, q)| (name, pipeline::compile(&q, &schema).expect(name)))
        .collect();
    for (name, c) in &compiled {
        for plan in stage_plans(c) {
            let ds = plan_check::validate_plan(&plan, &catalog, &[]);
            assert!(
                !ds.iter().any(|d| d.severity == Severity::Error),
                "{} must validate clean, got: {:?}",
                name,
                ds
            );
        }
    }
    let mut rng = Rng::seed_from_u64(0x05EE_DCA7_A106);
    let mut applied = [0usize; 4];
    for _ in 0..64 {
        let (name, c) = &compiled[rng.range_usize(0, compiled.len() - 1)];
        let plans = stage_plans(c);
        let mut plan = plans[rng.range_usize(0, plans.len() - 1)].clone();
        let applicable: Vec<Mutation> = Mutation::ALL
            .into_iter()
            .filter(|m| m.sites(&plan) > 0)
            .collect();
        let mutation = applicable[rng.range_usize(0, applicable.len() - 1)];
        let site = rng.range_usize(0, mutation.sites(&plan) - 1);
        mutation.apply(&mut plan, site);
        let ds = plan_check::validate_plan(&plan, &catalog, &[]);
        let expected = mutation.expected_code();
        assert!(
            ds.iter()
                .any(|d| d.code == expected && d.severity == Severity::Error),
            "{}: {:?} at site {} must report {}, got: {:?}",
            name,
            mutation,
            site,
            expected,
            ds
        );
        applied[Mutation::ALL
            .iter()
            .position(|m| std::mem::discriminant(m) == std::mem::discriminant(&mutation))
            .unwrap()] += 1;
    }
    assert!(
        applied.iter().all(|&n| n > 0),
        "the seed must exercise every mutation kind at least once: {:?}",
        applied
    );
}

// ---------------------------------------------------------------------------
// Prepare-time rejection of corrupted backend plans
// ---------------------------------------------------------------------------

/// A backend that compiles correctly, then corrupts one physical plan —
/// standing in for a backend bug that the verifier must catch at prepare.
#[derive(Debug)]
struct CorruptingBackend;

impl SqlBackend for CorruptingBackend {
    fn name(&self) -> &'static str {
        "corrupting"
    }

    fn prepare(&self, req: &PlanRequest<'_>) -> Result<BackendPlan, ShredError> {
        let mut compiled = pipeline::compile(req.term, req.schema)?;
        let mut first = true;
        compiled.stages = compiled.stages.map(&mut |stage| {
            let mut stage = stage.clone();
            if first {
                first = false;
                Mutation::RenameTable.apply(&mut stage.plan, 0);
            }
            stage
        });
        let stages = vec![StageExplain {
            path: "ε".to_string(),
            sql: None,
            physical: None,
            columns: Vec::new(),
            rewrites: Vec::new(),
        }];
        Ok(BackendPlan::new(stages, compiled))
    }

    fn execute(
        &self,
        _plan: &BackendPlan,
        _cx: &ExecContext<'_>,
        _bindings: &Bindings,
    ) -> Result<nrc::value::Value, ShredError> {
        panic!("the corrupted plan must be rejected before execution");
    }
}

/// A deliberately corrupted backend plan is rejected at `prepare` time with
/// the documented diagnostic code when verification gates (`verify(true)`),
/// and surfaced through `check()` when it only collects (`verify(false)`).
#[test]
fn corrupted_plans_are_rejected_at_prepare_time() {
    let gated = Shredder::builder()
        .schema(datagen::organisation_schema())
        .backend(Box::new(CorruptingBackend))
        .verify(true)
        .build()
        .unwrap();
    let (_, q) = &datagen::queries::nested_queries()[0];
    // Twice: a plan that failed verification enters neither cache level, so
    // the second prepare plans, checks and fails exactly as the first did.
    let mut messages = Vec::new();
    for _ in 0..2 {
        match gated.prepare(q) {
            Err(ShredError::Verification { code, message }) => {
                assert_eq!(code, codes::UNKNOWN_TABLE);
                assert!(message.contains("no_such_table"), "message: {}", message);
                messages.push(message);
            }
            other => panic!("expected a Verification error, got {:?}", other.map(|_| ())),
        }
    }
    assert_eq!(messages[0], messages[1]);
    let stats = gated.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 0));

    let collecting = Shredder::builder()
        .schema(datagen::organisation_schema())
        .backend(Box::new(CorruptingBackend))
        .verify(false)
        .build()
        .unwrap();
    let prepared = collecting.prepare(q).unwrap();
    assert!(prepared.check().has_errors());
    assert!(prepared.check().has_code(codes::UNKNOWN_TABLE));
    // The diagnostics also surface through explain().
    assert!(prepared
        .explain()
        .to_string()
        .contains(codes::UNKNOWN_TABLE));
    // A cache hit hands back the findings of the first prepare.
    let again = collecting.prepare(q).unwrap();
    assert!(again.from_cache());
    assert_eq!(again.check().to_string(), prepared.check().to_string());
}

// ---------------------------------------------------------------------------
// The static-analysis sweep
// ---------------------------------------------------------------------------

/// One cell of the static-analysis sweep: a benchmark query prepared on one
/// backend, with every diagnostic the verifier reported (see
/// `shredding::verify` and the `analysis` crate).
#[derive(Debug, Clone)]
struct AnalyzeEntry {
    query: &'static str,
    backend: &'static str,
    /// `None` when the backend cannot plan the query at all (e.g. Links'
    /// default flat evaluation on a nested query) — recorded as skipped,
    /// not as a verification failure.
    skip_reason: Option<String>,
    diagnostics: Vec<shredding::Diagnostic>,
}

impl AnalyzeEntry {
    /// Number of error-severity diagnostics in this cell.
    fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == shredding::Severity::Error)
            .count()
    }
}

/// Run the full static-verification pass over every benchmark query
/// (QF1–QF6 and Q1–Q6) × all six backends. No backend reads an indexing
/// scheme while planning, so one pass covers every scheme. Sessions are
/// built schema-only (`prepare` needs no data) with verification
/// *collection* but not *gating* enabled, so error-severity findings are
/// reported rather than thrown.
fn analyze_all() -> Vec<AnalyzeEntry> {
    use baselines::{FlatDefaultBackend, LoopLiftBackend, VandenBusscheBackend};
    use shredding::session::{NestedOracleBackend, ShreddedMemoryBackend, SqlEngineBackend};

    let schema = datagen::organisation_schema();
    let backends: Vec<(&'static str, Box<dyn SqlBackend>)> = vec![
        ("sqlengine", Box::new(SqlEngineBackend)),
        (
            "shredded-memory",
            Box::new(ShreddedMemoryBackend::default()),
        ),
        ("oracle", Box::new(NestedOracleBackend)),
        ("flat-default", Box::new(FlatDefaultBackend)),
        ("loop-lifting", Box::new(LoopLiftBackend)),
        ("vandenbussche", Box::new(VandenBusscheBackend)),
    ];
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    let mut out = Vec::new();
    for (backend_name, backend) in backends {
        let session = Shredder::builder()
            .schema(schema.clone())
            .backend(backend)
            .verify(false)
            .build()
            .expect("the organisation schema always configures a session");
        for (name, query) in &queries {
            let entry = match session.prepare(query) {
                Ok(prepared) => AnalyzeEntry {
                    query: name,
                    backend: backend_name,
                    skip_reason: None,
                    diagnostics: prepared.check().iter().cloned().collect(),
                },
                Err(e) => AnalyzeEntry {
                    query: name,
                    backend: backend_name,
                    skip_reason: Some(e.to_string()),
                    diagnostics: Vec::new(),
                },
            };
            out.push(entry);
        }
    }
    out
}

#[test]
fn the_analysis_sweep_covers_every_cell_and_finds_no_errors() {
    let entries = analyze_all();
    // 12 queries × 6 backends.
    assert_eq!(entries.len(), 12 * 6);
    let errors: Vec<String> = entries
        .iter()
        .filter(|e| e.error_count() > 0)
        .map(|e| format!("{} on {}", e.query, e.backend))
        .collect();
    assert!(
        errors.is_empty(),
        "the benchmark corpus must verify clean: {errors:?}"
    );
    // The flat-default backend skips nested queries; shredding never skips.
    assert!(entries
        .iter()
        .any(|e| e.backend == "flat-default" && e.skip_reason.is_some()));
    assert!(entries
        .iter()
        .all(|e| e.backend != "sqlengine" || e.skip_reason.is_none()));
}
