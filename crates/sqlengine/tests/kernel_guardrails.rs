//! Guardrails for the executor: `kernels.rs` holds the one copy of key
//! hashing, the join table and key ordering, `vexec.rs` the one walk over
//! the physical operators, `plan.rs` the one description of where a plan
//! node keeps its inputs and expressions, and each layer one way in; no
//! layer implements SQL the translations never emit, no lock in obs
//! re-panics once poisoned, a commit copies no table, no plan carries a
//! guessed build side or row count, and no pass after the planner rewrites
//! the plan it emits. The checks read
//! the sources as text, so a reintroduced per-row path, a second walk, a
//! forwarding entry point or a removed operator fails here before any
//! benchmark notices.

use std::path::{Path, PathBuf};

const VEXEC: &str = include_str!("../src/vexec.rs");
const PAR: &str = include_str!("../src/par.rs");
const ENGINE: &str = include_str!("../src/exec.rs");
const PIPELINE: &str = include_str!("../../core/src/pipeline.rs");
const AST: &str = include_str!("../src/ast.rs");
const STORAGE: &str = include_str!("../src/storage.rs");
const DELTA: &str = include_str!("../src/delta.rs");
const OBS_LIB: &str = include_str!("../../obs/src/lib.rs");
const OBS_METRICS: &str = include_str!("../../obs/src/metrics.rs");
const OBS_PROFILE: &str = include_str!("../../obs/src/profile.rs");
const OBS_SINK: &str = include_str!("../../obs/src/sink.rs");

/// Every `.rs` file under `dir`, with its text.
fn sources(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("a source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            out.extend(sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("a readable source file");
            out.push((path, text));
        }
    }
    out
}

/// Every source file of every crate's `src/`.
fn all_crate_sources() -> Vec<(PathBuf, String)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    std::fs::read_dir(crates)
        .expect("the crates directory")
        .map(|entry| entry.expect("a directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .flat_map(|src| sources(&src))
        .collect()
}

/// The product code of a source file: everything before its test module.
fn product(source: &str) -> &str {
    let (product, _tests) = source
        .split_once("#[cfg(test)]")
        .expect("the file ends in a test module");
    product
}

/// The batch executor of `vexec.rs`: the product code before the section
/// of the incremental executor, which walks the operators a second time —
/// over signed batches, on the same kernels.
fn batch_executor(vexec: &str) -> &str {
    let (batch, _delta) = product(vexec)
        .split_once("// Incremental (delta) execution")
        .expect("vexec.rs keeps DeltaExec in its own marked section, after the batch executor");
    batch
}

#[test]
fn the_executors_keep_no_private_key_kernels() {
    let banned = [
        "fn eval_keys",
        "fn par_eval_keys",
        "fn hash_row",
        "HashMap<Row",
        "HashSet<Row",
        "HashMap<&Row",
        "HashSet<&Row",
        "DefaultHasher",
    ];
    // The whole of `vexec.rs`, the incremental executor included: it keeps
    // its state in columnar stores under `kernels::PersistentIndex`.
    for (file, code) in [("vexec.rs", product(VEXEC)), ("par.rs", product(PAR))] {
        for needle in banned {
            assert!(
                !code.contains(needle),
                "{file} contains `{needle}`: keyed operators go through crate::kernels"
            );
        }
    }
    // The row-at-a-time delta algebra stays removed.
    for needle in [
        "fn normalise_delta",
        "fn eval_row",
        "fn incremental_rank",
        "fn positional_diff",
        "struct JoinIndex",
        "type DeltaRows",
    ] {
        assert!(
            !VEXEC.contains(needle),
            "vexec.rs contains `{needle}`: deltas are signed columnar batches"
        );
    }
}

/// One operator walk: outside the incremental executor and the planner,
/// exactly one function of the engine matches on the physical
/// operators (`HashSemiJoin` stands for all of them — a walk cannot skip it),
/// and one type names the `(alias, column)` schema of a plan's output.
#[test]
fn one_function_walks_the_physical_operators() {
    let probe = "PhysicalPlan::HashSemiJoin {";
    assert_eq!(
        batch_executor(VEXEC).matches(probe).count() + product(PAR).matches(probe).count(),
        1,
        "vexec::exec_node is the only batch-executor walk"
    );
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for (path, text) in sources(&src) {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !["vexec.rs", "par.rs", "plan.rs"].contains(&name.as_str()) {
            assert!(!text.contains(probe), "{name} walks the physical operators");
        }
    }
    let aliases: usize = sources(&src)
        .iter()
        .map(|(_, text)| text.matches("type SchemaCol").count())
        .sum();
    assert_eq!(aliases, 1, "one `SchemaCol` alias, in plan.rs");
}

/// The planner places every `WHERE` conjunct — each relation's own
/// conjuncts below its join, every chain of `NOT`s over `EXISTS` as a
/// semi-join — so the optimizer keeps no pass that moves, folds or lifts
/// predicates after it.
#[test]
fn no_pass_repairs_the_planners_predicate_placement() {
    let removed = [
        "fn fold_plan",
        "fn lift_exists_plan",
        "fn pushdown_plan",
        "fn push_pred",
        "fn route_join_pred",
    ];
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for (path, text) in sources(&src) {
        for needle in removed {
            assert!(
                !text.contains(needle),
                "{} contains `{needle}`: the planner places predicates",
                path.display()
            );
        }
    }
}

/// The planner emits the final plan: it decorrelates `EXISTS` and narrows
/// join inputs while it plans, deciding from the query text, so the
/// optimizer's passes — and the helpers that rebuilt correlation and
/// remapped column positions after planning — stay deleted, and `optimize`
/// returns every stage plan of the twelve benchmark queries, raw and
/// auto-parameterized, as it is.
#[test]
fn the_planner_emits_the_final_plan() {
    let removed = [
        "fn decorrelate_plan",
        "fn try_decorrelate",
        "fn extract(",
        "fn as_correlation_eq",
        "fn resolve_outer",
        "fn resolves_to_frame",
        "fn expr_refs_frame",
        "fn plan_refs_frame",
        "fn shift_cols",
        "fn prune_plan",
        "fn prune_whole",
        "fn prune_node",
        "fn prune_join",
        "fn narrow(",
        "fn remap_expr",
        "fn map_children",
    ];
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for (path, text) in sources(&src) {
        for needle in removed {
            assert!(
                !text.contains(needle),
                "{} contains `{needle}`: the planner emits the final plan",
                path.display()
            );
        }
    }
    let schema = datagen::organisation_schema();
    let catalog = sqlengine::SchemaCatalog::new(shredding::pipeline::table_defs_of_schema(&schema));
    let queries = datagen::queries::flat_queries()
        .into_iter()
        .chain(datagen::queries::nested_queries());
    for (name, q) in queries {
        let (parameterized, _) = shredding::session::auto_parameterize(&q);
        for term in [&q, &parameterized] {
            let compiled = shredding::pipeline::compile(term, &schema).unwrap();
            for stage in compiled.stages.annotations() {
                let (plan, report) = sqlengine::optimize(stage.plan.clone(), &catalog);
                assert_eq!(plan, stage.plan, "{name}: optimize rewrote a stage plan");
                assert_eq!(report, sqlengine::OptReport::default(), "{name}");
            }
        }
    }
}

/// The engine speaks the SQL the translations emit: `ORDER BY`, `DISTINCT`
/// and `EXCEPT ALL` are gone from every layer, from the AST down to the
/// incremental executor, and stay gone.
#[test]
fn no_layer_implements_order_by_distinct_or_except_all() {
    let removed = [
        "PhysicalPlan::Sort",
        "PhysicalPlan::Distinct",
        "PhysicalPlan::ExceptAll",
        "Query::ExceptAll",
        "fn distinct_rows",
        "fn except_all_rows",
        "fn strip_order",
    ];
    for (path, text) in all_crate_sources() {
        for needle in removed {
            assert!(
                !text.contains(needle),
                "{} contains `{needle}`: no translation emits ORDER BY, DISTINCT or EXCEPT ALL",
                path.display()
            );
        }
    }
    for needle in [
        "pub distinct",
        "pub order_by",
        "fn distinct(",
        "fn order_by(",
    ] {
        assert!(!AST.contains(needle), "ast.rs contains `{needle}`");
    }
    assert!(
        !VEXEC.contains("fn fold("),
        "vexec.rs contains `fn fold(`: `Counts` keeps one sum per key for the semi-join"
    );
}

/// A poisoned lock in obs is recovered with `PoisonError::into_inner`:
/// what those locks guard cannot be left torn, so one panic must not become
/// a panic for every later caller.
#[test]
fn obs_recovers_poisoned_locks() {
    for (file, text) in [
        ("obs/src/lib.rs", OBS_LIB),
        ("obs/src/metrics.rs", OBS_METRICS),
        ("obs/src/profile.rs", OBS_PROFILE),
        ("obs/src/sink.rs", OBS_SINK),
    ] {
        let code: String = text.split_whitespace().collect();
        for acquire in [".lock()", ".read()", ".write()", ".get_mut()"] {
            assert!(
                !code.contains(&format!("{acquire}.expect(")),
                "{file} panics on a poisoned lock: `{acquire}.expect(`"
            );
        }
    }
}

/// For each `open` in `code`, the text up to the bracket that closes it,
/// and the text after that bracket.
fn bracketed<'a>(code: &'a str, open: &str) -> Vec<(&'a str, &'a str)> {
    let (start, end) = match open.chars().last() {
        Some('<') => ('<', '>'),
        _ => ('(', ')'),
    };
    code.match_indices(open)
        .map(|(at, _)| {
            let inner = &code[at + open.len()..];
            let mut depth = 1;
            let close = inner
                .char_indices()
                .find(|&(_, c)| {
                    depth += i32::from(c == start) - i32::from(c == end);
                    depth == 0
                })
                .map_or(inner.len(), |(i, _)| i);
            (&inner[..close], inner.get(close + 1..).unwrap_or(""))
        })
        .collect()
}

/// A commit costs O(batch), not O(table): validation replays the batch on
/// an overlay over the borrowed tables instead of copies of them, and every
/// mutation edits the table's columns in step with its rows instead of
/// leaving a reader to transpose the whole table again.
#[test]
fn the_commit_path_copies_no_table() {
    let delta: String = product(DELTA).split_whitespace().collect();
    for (args, _) in bracketed(&delta, "Map<") {
        let value = args.rsplit(',').next().unwrap_or(args);
        assert!(
            value != "Table" && !value.ends_with("::Table"),
            "delta.rs keeps a map of tables (`Map<{args}>`): validate against an overlay"
        );
    }
    for (args, after) in bracketed(&delta, "self.table(") {
        assert!(
            !after.trim_start_matches('?').starts_with(".clone()")
                && !after.starts_with(".cloned()"),
            "delta.rs clones a table (`self.table({args})`): validate against an overlay"
        );
    }

    // In storage.rs, a table keeps its columns current: every function that
    // changes the rows edits the columns beside them, `columnar()` hands out
    // the columns it keeps, and no code walks the rows into columns. The
    // lazy, version-stamped column cache stays gone.
    let storage = product(STORAGE);
    let removed = ["ColumnarCell", "version", "RwLock", "PoisonError"];
    for ident in storage.split(|c: char| !c.is_alphanumeric() && c != '_') {
        assert!(
            !removed.contains(&ident),
            "storage.rs names `{ident}`: a table keeps its columns current, not cached"
        );
    }
    let storage: String = storage.split_whitespace().collect();
    for transpose in [
        "forrowin&self.rows",
        "forrowinself.rows.iter()",
        "self.rows.iter().map(",
        "self.rows.iter().enumerate()",
        "with_capacity(self.rows.len())",
    ] {
        assert!(
            !storage.contains(transpose),
            "storage.rs transposes rows into columns (`{transpose}`): edit the columns in step"
        );
    }
    assert!(
        storage.contains("#[derive(Debug,Clone)]pubstructTable{")
            && !storage.contains("implCloneforTable"),
        "a cloned table shares its columns: `Table` derives `Clone`"
    );
    let columnar = storage
        .split_once("pubfncolumnar(&self)->Arc<Vec<Arc<Vec<SqlValue>>>>{")
        .expect("Table::columnar")
        .1;
    assert!(
        columnar.starts_with("Arc::clone(&self.columns)}"),
        "Table::columnar does more than share the columns it keeps"
    );
    let row_writes = [
        "self.rows.push(",
        "self.rows.remove(",
        "self.rows.insert(",
        "self.rows.swap_remove(",
        "self.rows.retain(",
        "self.rows.truncate(",
        "self.rows.clear(",
        "self.rows.extend(",
        "self.rows.drain(",
        "self.rows.iter_mut(",
        "self.rows.sort",
    ];
    let mut writers = 0;
    for function in storage.split("fn").skip(1) {
        let assigned = function
            .match_indices("self.rows=")
            .any(|(at, w)| !function[at + w.len()..].starts_with('='));
        if assigned || row_writes.iter().any(|w| function.contains(w)) {
            writers += 1;
            assert!(
                function.contains("self.columns_mut()"),
                "storage.rs changes rows without editing the columns: `fn{}`",
                function.split_once('{').map_or(function, |(sig, _)| sig)
            );
        }
    }
    assert_eq!(writers, 2, "rows change only in `append` and `delete_at`");
}

/// A hash join picks its build side at run time from its inputs' real sizes,
/// so the engine keeps no plan-time guess of it: no build-side field, no
/// pass that re-chooses it and no row-count estimator to feed either. (Only
/// `sqlengine` is checked: `nrc::Database::table_rows` is another, live
/// method.)
#[test]
fn no_plan_guesses_a_build_side_or_a_row_count() {
    let removed = [
        "BuildSide",
        "rechoose_plan",
        "estimate_env",
        "fn estimate(",
        "estimated_rows",
        "fn table_rows",
        "DEFAULT_ROWS",
        "FILTER_SELECTIVITY",
    ];
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for (path, text) in sources(&src) {
        for needle in removed {
            assert!(
                !text.contains(needle),
                "{} contains `{needle}`: the executor builds the smaller input",
                path.display()
            );
        }
    }
}

/// One entry point per layer, and the removed ones stay removed.
#[test]
fn each_layer_keeps_one_way_in() {
    let removed = [
        "fn pexec_node",
        "fn execute_plan_bound(",
        "fn execute_plan_profiled(",
        "fn execute_plan_bound_ctes(",
        "fn compile_unoptimized",
        "fn compile_normalised_obs",
        "fn execute_bound_obs(",
    ];
    let mut plan_executors = 0;
    for (path, text) in all_crate_sources() {
        for needle in removed {
            assert!(
                !text.contains(needle),
                "{} contains `{needle}`, a removed entry point",
                path.display()
            );
        }
        if path.components().any(|c| c.as_os_str() == "sqlengine") && !path.ends_with("exec.rs") {
            plan_executors += text.matches("pub fn execute_plan").count();
        }
    }
    assert_eq!(plan_executors, 1, "sqlengine::execute_plan is the one");
    assert_eq!(
        ENGINE.matches("pub fn execute_plan").count(),
        3,
        "Engine keeps the three `execute_plan_*_opts` methods the benchmark calls"
    );
    assert_eq!(product(PIPELINE).matches("pub fn compile").count(), 2);
    // Two of the `execute*` are the row-path reference implementations.
    for reference in ["pub fn execute_rows(", "pub fn execute_via_sql_text("] {
        assert_eq!(product(PIPELINE).matches(reference).count(), 1);
    }
    assert!(product(PIPELINE).matches("pub fn execute").count() <= 4);
}

/// The per-PR timing gates were replaced by `benchmark/`, and the
/// static-analysis sweep is a test: the bench crate renders no JSON report.
#[test]
fn the_bench_crate_keeps_no_timing_gate() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/src");
    for (path, text) in sources(&src) {
        assert!(
            !text.contains("_report_json"),
            "{} renders a JSON report",
            path.display()
        );
    }
}

/// Parallelism stays above the operators (stage fan-out and the stitch
/// split): the morsel pool, its two knobs and its metrics stay removed from
/// every crate.
#[test]
fn no_crate_keeps_a_morsel_pool() {
    let removed = [
        "struct Pool",
        "fn par_map",
        "fn engage",
        "morsel_rows",
        "min_parallel_rows",
        "DEFAULT_MORSEL_ROWS",
        "DEFAULT_MIN_PARALLEL_ROWS",
        "PAR_SUBPLAN_ROWS",
        "MorselStats",
    ];
    for (path, text) in all_crate_sources() {
        for needle in removed {
            assert!(
                !text.contains(needle),
                "{} contains `{needle}`: operators run whole batches",
                path.display()
            );
        }
    }
}

/// `workers` is the one execution setting: `ExecOptions` keeps its one
/// field and no product source reads the environment, so the stitch's split
/// threshold stays a constant, not a setting.
#[test]
fn execution_is_configured_only_by_the_workers_budget() {
    let (_, options) = product(PAR)
        .split_once("pub struct ExecOptions {")
        .expect("par.rs defines ExecOptions");
    let (fields, _) = options.split_once('}').expect("ExecOptions closes");
    let fields: Vec<&str> = fields
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .collect();
    assert_eq!(
        fields,
        ["pub workers: usize,"],
        "ExecOptions gained a field"
    );
    let facade = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../src");
    for (path, text) in all_crate_sources().into_iter().chain(sources(&facade)) {
        assert!(
            !text.contains("env::var"),
            "{} reads an environment variable",
            path.display()
        );
    }
}
