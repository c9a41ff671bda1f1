//! The layer adapter: **every** call the benchmark makes into a public
//! function below the `Shredder` session API lives in this file.
//!
//! ROADMAP plans to collapse the `execute_plan*` / `compile*` variants; when
//! that lands, this file is the one place to follow it. The end-to-end
//! binary does not include it and keeps building either way.
//!
//! Each function re-drives one part of what a session does for one
//! operation, stage by stage, with a span around every layer call:
//!
//! ```text
//! Shredder::run (no plan cache)  front_end(cold = true) + execute + discard
//! Shredder::run (cache hit)      front_end(cold = false) + execute
//! Shredder::execute              execute
//! first read after a write       retranspose + execute
//! the compile, layer by layer    phases
//! ```

use crate::trace::Tracer;
use nrc::{Database, Schema, Term, Value};
use shredding::analysis::lint::lint_term;
use shredding::flatten::{sql_to_value, value_to_sql, ColumnarStage, ResultLayout};
use shredding::letins::let_insert;
use shredding::normalise::{normalise_at, normalise_with_type, rewrite_to_normal_form};
use shredding::pipeline::{
    compile_normalised_opts, engine_from_database, table_defs_of_schema, CompiledQuery, QueryStage,
};
use shredding::session::{auto_parameterize, Params};
use shredding::shred::{package_by, shred_query, shred_type};
use shredding::sqlgen::sql_of_let_query;
use shredding::stitch::stitch;
use shredding::verify::check_compiled;
use shredding::ShredError;
use sqlengine::plan::{plan_query, SchemaCatalog};
use sqlengine::{
    optimize, print_query, ColumnarResult, Engine, EngineError, ExecOptions, ExecStats,
    ParamValues, StorageDelta, WriteBatch,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The execution options a session built with `workers(n)` and defaults for
/// everything else runs its plans under.
pub fn exec_options(workers: usize) -> ExecOptions {
    ExecOptions::with_workers(workers)
}

/// What the product compiles a query to, obtained through the same entry
/// point `SqlEngineBackend::prepare` uses. The traced front end re-runs the
/// phases one by one and is held against this; the traced back end executes
/// it, so it runs the plans the session runs (shared subplans included).
#[derive(Debug)]
pub struct Reference {
    /// The auto-lifted literals as engine parameter values.
    pub params: ParamValues,
    pub compiled: CompiledQuery,
}

/// Exact sizes of a compiled query's intermediate representations.
#[derive(Debug, Default, Clone, Copy)]
pub struct IrCounts {
    pub stages: u64,
    pub sql_bytes: u64,
    pub plan_nodes: u64,
    pub rewrites: u64,
    pub skips: u64,
    pub shared_slots: u64,
}

impl IrCounts {
    /// Summed over the compiled forms of `references`.
    pub fn of(references: &[Reference]) -> IrCounts {
        let mut counts = IrCounts::default();
        for reference in references {
            counts.shared_slots += reference.compiled.shared.len() as u64;
            for stage in reference.compiled.stages.annotations() {
                counts.stages += 1;
                counts.sql_bytes += print_query(&stage.sql).len() as u64;
                counts.plan_nodes += stage.plan.node_count() as u64;
                counts.rewrites += stage.opt.rewrites.len() as u64;
                counts.skips += stage.opt.skipped.len() as u64;
            }
        }
        counts
    }
}

impl Reference {
    pub fn compile(source: &Term, schema: &Schema) -> Result<Reference, ShredError> {
        let (term, defaults) = auto_parameterize(source);
        let (normalised, result_type) = normalise_with_type(&term, schema)?;
        Ok(Reference {
            params: sql_params(&defaults)?,
            compiled: compile_normalised_opts(normalised, result_type, schema, None, true)?,
        })
    }

    /// The base tables the query's plans scan.
    pub fn tables(&self) -> BTreeSet<String> {
        self.compiled
            .stages
            .annotations()
            .into_iter()
            .flat_map(|stage| stage.plan.referenced_tables())
            .collect()
    }
}

fn param_names(term: &Term) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (name, _) in term.params() {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

fn sql_params(defaults: &Params) -> Result<ParamValues, ShredError> {
    defaults
        .iter()
        .map(|(name, value)| Ok((name.to_string(), value_to_sql(value)?)))
        .collect()
}

/// Re-drive what `Shredder::prepare` does before execution, one span per
/// call: auto-parameterization, normalisation (with type inference between
/// its two passes) and then
///
/// * `cold` (no cached plan): the whole compile through the entry point the
///   backend itself calls, and the explain rendering the backend attaches to
///   the plan. The compiled query is returned: the caller executes it and
///   drops it, as `Shredder::run` does without a cache;
/// * otherwise (a plan-cache hit): the cache key of the normal form; the
///   caller executes the reference's plans.
///
/// The verifier runs either way, as it does in the session. [`phases`] breaks
/// the compile into its layers.
pub fn front_end(
    t: &mut Tracer,
    source: &Term,
    schema: &Schema,
    reference: &Reference,
    cold: bool,
) -> Result<(ParamValues, Option<CompiledQuery>), ShredError> {
    let (term, defaults) = t.span("session.auto_parameterize", "auto_parameterize", || {
        auto_parameterize(source)
    });
    let rewritten = t.span("normalise", "rewrite_to_normal_form", || {
        rewrite_to_normal_form(&term)
    })?;
    let result_type = t.span("nrc.typecheck", "typecheck", || {
        nrc::typecheck(&rewritten, schema)
    })?;
    let normalised = t.span("normalise", "normalise_at", || {
        normalise_at(&rewritten, &result_type, schema)
    })?;
    let names = t.span("session.bind", "Term::params", || param_names(&term));

    let compiled = if cold {
        let compiled = t.span("pipeline.compile", "compile_normalised_opts", || {
            // The backend compiles clones of the request's normal form and type.
            compile_normalised_opts(normalised.clone(), result_type.clone(), schema, None, true)
        })?;
        t.count("stages", compiled.query_count() as u64);
        let explained = t.span("session.explain", "StageExplain", || {
            compiled
                .stages
                .annotations()
                .into_iter()
                .map(|stage| {
                    (
                        stage.path.to_string(),
                        print_query(&stage.sql),
                        stage.plan.to_string(),
                        stage.layout.columns().to_vec(),
                        stage.opt.rewrites.clone(),
                    )
                })
                .collect::<Vec<_>>()
        });
        t.count(
            "sql_bytes",
            explained.iter().map(|e| e.1.len() as u64).sum(),
        );
        Some(compiled)
    } else {
        // The plan-cache key: the normal form's debug rendering.
        let key = t.span("session.plan_key", "NormQuery::fmt", || {
            format!("{normalised:?}")
        });
        t.count("key_bytes", key.len() as u64);
        None
    };

    t.span("verify", "lint_term", || lint_term(&term, &names));
    t.span("verify", "check_compiled", || {
        check_compiled(
            compiled.as_ref().unwrap_or(&reference.compiled),
            &table_defs_of_schema(schema),
            &names,
        )
    });
    let params = t.span("session.bind", "value_to_sql", || sql_params(&defaults))?;
    // The label of the finished query's profile.
    t.span("session.profile", "Type::to_string", || {
        result_type.to_string()
    });
    Ok((params, compiled))
}

/// Free a compiled query, as the end of a cache-less `Shredder::run` does.
pub fn discard(t: &mut Tracer, compiled: Option<CompiledQuery>) {
    if compiled.is_some() {
        t.span("session.drop", "drop(CompiledQuery)", || drop(compiled));
    }
}

/// The compile of [`front_end`] taken apart: shredding, let-insertion, SQL
/// generation, planning and optimization, one span each per stage, over the
/// reference's normal form. What `compile_normalised_opts` does besides —
/// cross-stage subplan sharing and packaging — has no public entry point;
/// it is the difference between that span and the sum of these. Returns
/// whether the plans built here equal the reference's: `false` means this
/// adapter no longer mirrors the pipeline.
pub fn phases(t: &mut Tracer, schema: &Schema, reference: &Reference) -> Result<bool, ShredError> {
    let (normalised, result_type) = (
        &reference.compiled.normalised,
        &reference.compiled.result_type,
    );
    let catalog = t.span("plan", "SchemaCatalog::new", || {
        SchemaCatalog::new(table_defs_of_schema(schema))
    });
    let reference_stages = reference.compiled.stages.annotations();
    let mut mirrors = true;
    let mut index = 0;
    package_by(result_type, &mut |path| -> Result<(), ShredError> {
        let shredded = t.span("shred", "shred_query", || shred_query(normalised, path))?;
        let layout = t.span("shred", "shred_type+ResultLayout::new", || {
            shred_type(result_type, path).map(|ty| Arc::new(ResultLayout::new(&ty.inner)))
        })?;
        let let_inserted = t.span("letins", "let_insert", || let_insert(&shredded))?;
        let sql = t.span("sqlgen", "sql_of_let_query", || {
            sql_of_let_query(&let_inserted, &layout, schema)
        })?;
        let plan = t.span("plan", "plan_query", || plan_query(&sql, &catalog))?;
        let (plan, report) = t.span("opt", "optimize", || optimize(plan, &catalog));
        t.count("rewrites", report.rewrites.len() as u64);
        t.count("skips", report.skipped.len() as u64);
        mirrors &= reference_stages
            .get(index)
            .is_some_and(|stage| stage.plan == plan && stage.sql == sql);
        index += 1;
        Ok(())
    })?;
    Ok(mirrors)
}

/// What the engine reported about one execution of a compiled query.
#[derive(Debug, Default)]
pub struct ExecTotals {
    pub morsels: u64,
    pub peak_workers: u64,
    pub morsel_nanos: Vec<u64>,
}

impl ExecTotals {
    fn add(&mut self, stats: ExecStats) {
        self.morsels += stats.morsels_dispatched;
        self.peak_workers = self.peak_workers.max(stats.peak_workers);
        self.morsel_nanos.extend(stats.morsel_nanos);
    }
}

fn run_plan(
    stage: &QueryStage,
    engine: &Engine,
    params: &ParamValues,
    opts: ExecOptions,
    shared: &[ColumnarResult],
) -> Result<(ColumnarResult, ExecStats), EngineError> {
    match &stage.shared {
        Some(slot) if slot.index < shared.len() => engine.execute_plan_bound_ctes_opts(
            &slot.body,
            params,
            &[(slot.name.clone(), shared[slot.index].clone())],
            opts,
        ),
        _ => engine.execute_plan_bound_opts(&stage.plan, params, opts),
    }
}

/// One stage executed and decoded, with the instants around both calls (the
/// stage may have run on a worker thread; the caller turns them into spans).
struct StageRun {
    begun: Instant,
    executed: Instant,
    decoded: Instant,
    result: Result<(ColumnarStage, ExecStats), ShredError>,
}

fn run_stage(
    stage: &QueryStage,
    engine: &Engine,
    params: &ParamValues,
    opts: ExecOptions,
    shared: &[ColumnarResult],
) -> StageRun {
    let begun = Instant::now();
    let executed = run_plan(stage, engine, params, opts, shared);
    let executed_at = Instant::now();
    let result = executed
        .map_err(ShredError::from)
        .and_then(|(result, stats)| {
            Ok((ColumnarStage::decode(stage.layout.clone(), result)?, stats))
        });
    StageRun {
        begun,
        executed: executed_at,
        decoded: Instant::now(),
        result,
    }
}

/// Re-drive `pipeline::execute_bound_obs_opts`: run each package-shared
/// subplan once, then execute and decode every stage — one after another,
/// or, under `workers > 1`, fanned across scoped threads with the worker
/// budget split exactly as the pipeline splits it — and stitch.
pub fn execute(
    t: &mut Tracer,
    compiled: &CompiledQuery,
    engine: &Engine,
    params: &ParamValues,
    opts: ExecOptions,
) -> Result<(Value, ExecTotals), ShredError> {
    let mut totals = ExecTotals::default();
    let stages: Vec<&QueryStage> = compiled.stages.annotations();
    let n = stages.len();

    let mut shared: Vec<ColumnarResult> = Vec::with_capacity(compiled.shared.len());
    for plan in &compiled.shared {
        let (result, stats) = t.span("exec.execute", "execute_plan_bound_opts(shared)", || {
            engine.execute_plan_bound_opts(plan, params, opts)
        })?;
        t.count("rows", result.len() as u64);
        totals.add(stats);
        shared.push(result);
    }
    let shared = &shared[..];

    let runs: Vec<StageRun> = if opts.workers > 1 && n > 1 {
        let stage_opts = ExecOptions {
            workers: (opts.workers / n.min(opts.workers)).max(1),
            ..opts
        };
        let cursor = AtomicUsize::new(0);
        let work = || {
            let mut local = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break local;
                }
                local.push((i, run_stage(stages[i], engine, params, stage_opts, shared)));
            }
        };
        let mut indexed: Vec<(usize, StageRun)> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..opts.workers.min(n)).map(|_| s.spawn(work)).collect();
            let mut all = work();
            for handle in handles {
                all.extend(handle.join().expect("a stage worker panicked"));
            }
            all
        });
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, run)| run).collect()
    } else {
        stages
            .iter()
            .map(|stage| run_stage(stage, engine, params, opts, shared))
            .collect()
    };

    let mut decoded = Vec::with_capacity(n);
    for run in runs {
        t.push_span(
            "exec.execute",
            "execute_plan_bound_opts",
            run.begun,
            run.executed,
        );
        t.push_span(
            "flatten.decode",
            "ColumnarStage::decode",
            run.executed,
            run.decoded,
        );
        let (stage, stats) = run.result?;
        t.count("rows", stage.len() as u64);
        totals.add(stats);
        decoded.push(stage);
    }
    let mut decoded = decoded.into_iter();
    let package = compiled.stages.try_map(&mut |_: &QueryStage| {
        decoded
            .next()
            .ok_or_else(|| ShredError::Internal("stage count mismatch".to_string()))
    })?;
    let value = t.span("stitch", "stitch", || stitch(package))?;
    Ok((value, totals))
}

/// The operator buckets of the profiled pass.
pub const OP_BUCKETS: [&str; 9] = [
    "scan",
    "join",
    "semijoin",
    "filter",
    "project",
    "rownumber",
    "sort",
    "setop",
    "with",
];

fn bucket_of(kind: &str) -> &'static str {
    match kind {
        "TableScan" | "CteScan" | "SubqueryScan" | "UnitRow" => "scan",
        "NestedLoopJoin" | "HashJoin" => "join",
        "ExistsSemiJoin" | "HashSemiJoin" => "semijoin",
        "Filter" => "filter",
        "Project" => "project",
        "RowNumber" => "rownumber",
        "Sort" => "sort",
        "Distinct" | "UnionAll" | "ExceptAll" => "setop",
        _ => "with",
    }
}

/// One pass through the engine's own per-operator profiler (program
/// reported, not an outside stopwatch): per bucket, rows produced and
/// inclusive nanoseconds, summed over every stage plan of the query. The
/// profiled path runs each stage's self-contained plan, without sharing.
pub fn profile_operators(
    compiled: &CompiledQuery,
    engine: &Engine,
    params: &ParamValues,
    opts: ExecOptions,
    into: &mut BTreeMap<&'static str, (u64, u64)>,
) -> Result<(), ShredError> {
    for stage in compiled.stages.annotations() {
        let (_, profile, _) = engine.execute_plan_profiled_opts(&stage.plan, params, opts)?;
        for (node, actuals) in stage.plan.nodes().iter().zip(&profile.ops) {
            let bucket = into.entry(bucket_of(node.kind())).or_default();
            bucket.0 += actuals.rows_out;
            bucket.1 += actuals.nanos;
        }
    }
    Ok(())
}

/// An engine loaded from `db` with no subscriptions attached: fed the same
/// batches as a session, it measures the storage write alone.
pub fn shadow_engine(db: &Database) -> Result<Engine, ShredError> {
    engine_from_database(db)
}

pub fn shadow_apply(engine: &Engine, batch: &WriteBatch) -> Result<StorageDelta, ShredError> {
    Ok(engine.apply_batch(batch)?)
}

/// The first `Table::columnar()` of each of `tables` after a write: a write
/// discards the table's transposed columns, and the next reader rebuilds
/// them. Untouched tables answer from their cache.
pub fn retranspose(
    t: &mut Tracer,
    engine: &Engine,
    tables: &BTreeSet<String>,
) -> Result<(), ShredError> {
    let storage = engine.storage();
    for name in tables {
        let table = storage.table(name)?;
        let columns = t.span("storage.retranspose", "Table::columnar", || {
            table.columnar()
        });
        t.count("rows", columns.first().map_or(0, |c| c.len()) as u64);
    }
    Ok(())
}

pub fn rows_live(engine: &Engine) -> u64 {
    engine.storage().total_rows() as u64
}

/// A λNRC database rebuilt from what the engine's storage holds now, so the
/// reference semantics can be evaluated over post-write data.
pub fn rebuild_database(engine: &Engine, schema: &Schema) -> Result<Database, ShredError> {
    let storage = engine.storage();
    let mut db = Database::new(schema.clone());
    for table in schema.tables() {
        let rows = storage
            .table(&table.name)?
            .rows
            .iter()
            .map(|row| {
                let fields = table
                    .columns
                    .iter()
                    .zip(row)
                    .map(|((column, ty), cell)| Ok((column.clone(), sql_to_value(cell, *ty)?)))
                    .collect::<Result<Vec<_>, ShredError>>()?;
                Ok(Value::Record(fields))
            })
            .collect::<Result<Vec<_>, ShredError>>()?;
        db.insert_bulk(&table.name, rows)
            .map_err(|e| ShredError::Internal(e.to_string()))?;
    }
    Ok(db)
}

/// N⟦−⟧ over an explicit database.
pub fn eval_reference(term: &Term, db: &Database) -> Result<Value, ShredError> {
    Ok(nrc::eval(term, db)?)
}
