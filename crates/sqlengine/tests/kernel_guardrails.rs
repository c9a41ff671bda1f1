//! Guardrails for the executor: `kernels.rs` holds the one copy of key
//! hashing, the join table and key ordering, `vexec.rs` the one walk over
//! the physical operators, `plan.rs` the one description of where a plan
//! node keeps its inputs and expressions, and each layer one way in. The
//! checks read the sources as text, so a reintroduced per-row path, a second
//! walk or a forwarding entry point fails here before any benchmark notices.

use std::path::{Path, PathBuf};

const VEXEC: &str = include_str!("../src/vexec.rs");
const OPT: &str = include_str!("../src/opt.rs");
const PAR: &str = include_str!("../src/par.rs");
const ENGINE: &str = include_str!("../src/exec.rs");
const PIPELINE: &str = include_str!("../../core/src/pipeline.rs");

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

/// One operator walk: outside the incremental executor, the optimizer and
/// the planner, exactly one function of the engine matches on the physical
/// operators (`HashSemiJoin` stands for all of them — a walk cannot skip it).
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
        if !["vexec.rs", "par.rs", "opt.rs", "plan.rs"].contains(&name.as_str()) {
            assert!(!text.contains(probe), "{name} walks the physical operators");
        }
    }
}

/// The optimizer walks plans through `PhysicalPlan`'s child and expression
/// accessors: no private per-variant traversal, no second schema function,
/// and only the passes that treat `EXCEPT ALL` specially name it.
#[test]
fn the_optimizer_walks_plans_through_the_accessors() {
    for needle in ["fn map_expr_plans", "fn plan_schema", "fn map_children"] {
        assert!(
            !OPT.contains(needle),
            "opt.rs contains `{needle}`: use PhysicalPlan's accessors"
        );
    }
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let aliases: usize = sources(&src)
        .iter()
        .map(|(_, text)| text.matches("type SchemaCol").count())
        .sum();
    assert_eq!(aliases, 1, "one `SchemaCol` alias, in plan.rs");
    let except_all = product(OPT).matches("PhysicalPlan::ExceptAll").count();
    assert!(
        except_all <= 5,
        "opt.rs names `PhysicalPlan::ExceptAll` {except_all} times: a pass that does not \
         treat it specially goes through the accessors"
    );
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

/// Stage fan-out is the one level of parallelism: the morsel pool, its two
/// knobs and its metrics stay removed from every crate.
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
                "{} contains `{needle}`: operators run whole batches and only stages fan out",
                path.display()
            );
        }
    }
}
