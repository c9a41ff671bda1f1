//! The end-to-end query shredding pipeline (Figure 1(c) of the paper).
//!
//! ```text
//! λNRC query
//!   │ normalise            (crate::normalise)
//!   ▼
//! normal form + static indexes
//!   │ shred                (crate::shred)     — one flat query per bag constructor
//!   │ let-insert           (crate::letins)    — flat ⟨static, dynamic⟩ indexes
//!   │ SQL generation       (crate::sqlgen)    — WITH / UNION ALL / key or ROW_NUMBER
//!   ▼
//! SQL queries  ── run on sqlengine ──▶ flat results
//!   │ decode               (crate::flatten)
//!   │ stitch               (crate::stitch)
//!   ▼
//! nested value  (≡ evaluating the original query directly — Theorem 4)
//! ```

use crate::error::ShredError;
use crate::flatten::{sql_to_value, value_to_sql, ColumnarStage, ResultLayout};
use crate::letins::{let_insert, LetQuery};
use crate::nf::NormQuery;
use crate::normalise::normalise_with_type;
use crate::semantics::{IndexScheme, ShredResult};
use crate::shred::{shred_query, shred_type, Package, ShreddedQuery};
use crate::stitch::stitch_rows;
use nrc::schema::{Database, Schema};
use nrc::term::Term;
use nrc::types::{Path, Type};
use nrc::value::Value;
use sqlengine::plan::{plan_query, PhysicalPlan, SchemaCatalog};
use sqlengine::storage::{ColumnType, Storage, TableDef};
use sqlengine::{ColumnarResult, Engine, ExecOptions, ParamValues, Query, SqlValue};
use std::sync::Arc;

/// Everything produced for one bag constructor of the result type: the
/// shredded query, its let-inserted form, the SQL rendering, the compiled
/// physical plan and the column layout used to decode results.
#[derive(Debug, Clone)]
pub struct QueryStage {
    pub path: Path,
    pub shredded: ShreddedQuery,
    pub let_inserted: LetQuery,
    pub sql: Query,
    /// The physical plan compiled from `sql` against the source schema.
    /// Executing a compiled query runs this plan directly — no parsing or
    /// planning happens per execution, so cached plans amortise completely.
    pub plan: PhysicalPlan,
    /// The stage's column layout, resolved once at compile time and shared
    /// by `Arc` with every per-execution [`ColumnarStage`] decoded from it.
    pub layout: Arc<ResultLayout>,
    /// The rewrites applied to `plan` after planning: its binding to a
    /// package-shared subplan (see [`QueryStage::shared`]), if any. The
    /// planner itself decorrelates and narrows; [`crate::verify`] reports
    /// each correlated subquery a plan keeps as an `O001` diagnostic.
    pub opt: sqlengine::OptReport,
    /// Package-level common-subplan sharing: when set, `plan`'s top-level
    /// `WITH` definition is structurally identical to the shared subplan at
    /// this slot of [`CompiledQuery::shared`], and executors may run `body`
    /// with the shared result bound under `name` instead of recomputing the
    /// definition. `plan` itself stays fully self-contained — the profiled,
    /// incremental and text paths keep using it unchanged.
    pub shared: Option<SharedSlot>,
}

/// A stage's binding into the package's shared-subplan table (see
/// [`QueryStage::shared`]).
#[derive(Debug, Clone)]
pub struct SharedSlot {
    /// Index into [`CompiledQuery::shared`].
    pub index: usize,
    /// The CTE name the stage's plan binds the definition under.
    pub name: String,
    /// The stage's plan with the top-level `With` node stripped; its free
    /// `CteScan`s of `name` resolve against the shared result.
    pub body: PhysicalPlan,
}

/// A fully compiled nested query: the normal form plus one [`QueryStage`] per
/// bag constructor of the result type.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    pub normalised: NormQuery,
    pub result_type: Type,
    pub stages: Package<QueryStage>,
    /// Subplans shared by two or more stages (package-level CSE): each is a
    /// top-level `WITH` definition, structurally equal across its consuming
    /// stages and free of outside CTE references, hoisted so executors run
    /// it once per package instead of once per stage. Empty when no
    /// definition recurs.
    pub shared: Vec<PhysicalPlan>,
}

impl CompiledQuery {
    /// The number of flat queries (= the nesting degree of the result type).
    pub fn query_count(&self) -> usize {
        self.stages.nesting_degree()
    }

    /// The SQL text of every stage, outermost first.
    pub fn sql_texts(&self) -> Vec<String> {
        self.stages
            .annotations()
            .into_iter()
            .map(|s| sqlengine::print_query(&s.sql))
            .collect()
    }
}

/// Compile a nested λNRC query down to SQL: normalise, shred at every path of
/// the result type, let-insert, generate SQL, plan every stage and share
/// common subplans across stages.
pub fn compile(term: &Term, schema: &Schema) -> Result<CompiledQuery, ShredError> {
    let (normalised, result_type) = normalise_with_type(term, schema)?;
    compile_normalised_opts(normalised, result_type, schema, None, true)
}

/// Compile an already-normalised query. With a per-call collector present,
/// each shredded stage records `Stage::Shred` (shredding, layout
/// construction and let-insertion), `Stage::Sqlgen` and `Stage::Plan` spans
/// into it. The planner emits each stage's final plan — predicates placed,
/// `EXISTS` decorrelated, join inputs narrowed — and the package is then
/// scanned for stages whose top-level `WITH` definitions are structurally
/// equal: those are hoisted into [`CompiledQuery::shared`] so executors run
/// each once per package (cross-stage CSE). `_optimize` is unread: there is
/// no unoptimized form left to compile; the argument stays for the callers
/// that pass it.
pub fn compile_normalised_opts(
    normalised: NormQuery,
    result_type: Type,
    schema: &Schema,
    obs: Option<&obs::QueryObs>,
    _optimize: bool,
) -> Result<CompiledQuery, ShredError> {
    if !matches!(result_type, Type::Bag(_)) {
        return Err(ShredError::NotAQuery(result_type.to_string()));
    }
    let catalog = SchemaCatalog::new(table_defs_of_schema(schema));
    let stages = crate::shred::package_by(&result_type, &mut |path: &Path| {
        let (shredded, layout, let_inserted) =
            obs::time_maybe(obs, obs::Stage::Shred, || -> Result<_, ShredError> {
                let shredded = shred_query(&normalised, path)?;
                let shredded_type = shred_type(&result_type, path)?;
                let layout = Arc::new(ResultLayout::new(&shredded_type.inner));
                let let_inserted = let_insert(&shredded)?;
                Ok((shredded, layout, let_inserted))
            })?;
        let sql = obs::time_maybe(obs, obs::Stage::Sqlgen, || {
            crate::sqlgen::sql_of_let_query(&let_inserted, &layout, schema)
        })?;
        let plan = obs::time_maybe(obs, obs::Stage::Plan, || plan_query(&sql, &catalog))
            .map_err(ShredError::Engine)?;
        Ok::<QueryStage, ShredError>(QueryStage {
            path: path.clone(),
            shredded,
            let_inserted,
            sql,
            plan,
            layout,
            opt: sqlengine::OptReport::default(),
            shared: None,
        })
    })?;
    let (stages, shared) = share_subplans(stages)?;
    Ok(CompiledQuery {
        normalised,
        result_type,
        stages,
        shared,
    })
}

/// Package-level common-subplan elimination: find top-level `WITH`
/// definitions that are structurally equal across two or more stages and
/// self-contained (no free CTE references), hoist each distinct one into a
/// shared slot, and record on every consuming stage the slot plus its
/// `With`-stripped body. Sharing is only sound at package level — a single
/// stage's plan already evaluates its `WITH` definition exactly once, so
/// the duplicated work the paper's shredding scheme introduces is *across*
/// the flat queries of one package, where every inner stage re-derives the
/// same outer comprehension under its CTE.
fn share_subplans(
    stages: Package<QueryStage>,
) -> Result<(Package<QueryStage>, Vec<PhysicalPlan>), ShredError> {
    let mut uses: Vec<(PhysicalPlan, usize)> = Vec::new();
    for stage in stages.annotations() {
        if let PhysicalPlan::With { definition, .. } = &stage.plan {
            if definition.free_ctes().is_empty() {
                match uses.iter_mut().find(|(d, _)| d == definition.as_ref()) {
                    Some((_, n)) => *n += 1,
                    None => uses.push((definition.as_ref().clone(), 1)),
                }
            }
        }
    }
    let shared: Vec<PhysicalPlan> = uses
        .iter()
        .filter(|(_, n)| *n >= 2)
        .map(|(d, _)| d.clone())
        .collect();
    if shared.is_empty() {
        return Ok((stages, Vec::new()));
    }
    let stages = stages.try_map(&mut |stage: &QueryStage| {
        let mut stage = stage.clone();
        if let PhysicalPlan::With {
            name,
            definition,
            body,
        } = &stage.plan
        {
            if let Some(index) = shared.iter().position(|d| d == definition.as_ref()) {
                stage.opt.rewrites.push(format!(
                    "bound `{}` to package-shared subplan #{} (cross-stage CSE)",
                    name, index
                ));
                stage.shared = Some(SharedSlot {
                    index,
                    name: name.clone(),
                    body: (**body).clone(),
                });
            }
        }
        Ok::<_, ShredError>(stage)
    })?;
    Ok((stages, shared))
}

/// Execute a compiled query on a SQL engine with bound values for its
/// `:name` param slots, and stitch the shredded results back into a nested
/// value: `execute_bound_obs_opts` without tracing, under the default
/// execution options.
pub fn execute_bound(
    compiled: &CompiledQuery,
    engine: &Engine,
    params: &ParamValues,
) -> Result<Value, ShredError> {
    execute_bound_obs_opts(compiled, engine, params, None, ExecOptions::default())
}

/// Execute a compiled query: run every stage's pre-compiled physical plan,
/// decode and stitch. The stages' plans are immutable — binding happens
/// inside the executor, so re-executing the same compiled query with
/// different bindings does zero parsing, shredding, SQL generation or
/// physical planning.
///
/// The result path is **columnar end to end**: each stage's batch is handed
/// over as `Arc`-shared columns, grouped by its outer index columns
/// ([`ColumnarStage::decode`]) and stitched straight into the nested value
/// ([`crate::stitch::stitch`]) — no row-major transpose, no per-row
/// `FlatValue` tree, no per-cell string copies.
///
/// The whole package reads **one storage state**: a single read guard is
/// taken here and every plan — shared subplans and stages, on whichever
/// thread — runs against it, so a concurrent write batch lands before or
/// after the execution, never between two of its stages.
///
/// With a collector, each stage records a `Stage::Execute` and a
/// `Stage::Decode` span and the final stitch a `Stage::Stitch` span; when it
/// additionally requests operator profiling
/// ([`obs::QueryObs::profile_operators`]), each stage pushes one
/// [`obs::OperatorProfile`] per physical-plan node (pre-order indexed).
///
/// With `opts.workers > 1` the package's stages — independent by
/// construction (each is one self-contained flat query; only the final
/// stitch joins them) — are executed **and decoded** concurrently on up to
/// `workers` threads ([`sqlengine::scoped_map`]); each stage's plan runs on
/// the one thread that picked it up. The stitch then spends the same budget
/// on chunks of the top-level bag once the package has decoded enough rows
/// ([`crate::stitch::stitch_obs`]). Stages are reassembled in the package's
/// canonical depth-first order and chunks in row order, so the stitched
/// value does not depend on the worker count.
pub(crate) fn execute_bound_obs_opts(
    compiled: &CompiledQuery,
    engine: &Engine,
    params: &ParamValues,
    obs: Option<&obs::QueryObs>,
    opts: ExecOptions,
) -> Result<Value, ShredError> {
    let storage = engine.storage();
    let run = StageRun {
        storage: &storage,
        params,
        obs,
        profile: obs.is_some_and(|o| o.profile_operators()),
    };
    let stage_refs: Vec<&QueryStage> = compiled.stages.annotations();

    // Run each package-shared subplan once; stages carrying a shared slot
    // bind the columnar result under their CTE name instead of recomputing
    // the definition. The profiled path skips sharing — its per-operator
    // actuals are defined over the stage's self-contained plan.
    let shared: Vec<ColumnarResult> = if run.profile {
        Vec::new()
    } else {
        compiled
            .shared
            .iter()
            .map(|plan| Ok(run.plan(plan, &[])?.0))
            .collect::<Result<_, ShredError>>()?
    };

    let decoded = sqlengine::scoped_map(opts.workers, &stage_refs, |i, stage| {
        run.stage(stage, i, &shared)
    })?;
    // Every plan has run: writers need not wait for the stitch.
    drop(storage);

    // Reassemble in the package's canonical depth-first order — the same
    // order `annotations()` listed the stages in, so stage `i` lands back
    // on the constructor it came from.
    let mut results = decoded.into_iter();
    let stages: Package<ColumnarStage> = compiled.stages.try_map(&mut |_: &QueryStage| {
        results.next().ok_or_else(|| {
            ShredError::Internal("stage count mismatch during reassembly".to_string())
        })
    })?;
    crate::stitch::stitch_obs(stages, obs, opts.workers)
}

/// What every plan execution of one package execution shares: the storage
/// snapshot, the bindings and the collector.
struct StageRun<'a> {
    storage: &'a Storage,
    params: &'a ParamValues,
    obs: Option<&'a obs::QueryObs>,
    profile: bool,
}

impl StageRun<'_> {
    /// Execute one plan under a `Stage::Execute` span.
    fn plan(
        &self,
        plan: &PhysicalPlan,
        ctes: &[(String, ColumnarResult)],
    ) -> Result<(ColumnarResult, Option<sqlengine::PlanProfile>), ShredError> {
        let req = sqlengine::ExecRequest {
            params: self.params,
            ctes,
            profile: self.profile,
        };
        let sqlengine::Execution { result, profile } =
            obs::time_maybe(self.obs, obs::Stage::Execute, || {
                sqlengine::execute_plan(plan, self.storage, &req)
            })?;
        Ok((result, profile))
    }

    /// Execute and decode stage `i` of the package.
    fn stage(
        &self,
        stage: &QueryStage,
        i: usize,
        shared: &[ColumnarResult],
    ) -> Result<ColumnarStage, ShredError> {
        let (result, profile) = match &stage.shared {
            // CSE path: execute the With-stripped body against the
            // pre-computed shared definition (column `Arc`s shared).
            Some(slot) if slot.index < shared.len() => self.plan(
                &slot.body,
                &[(slot.name.clone(), shared[slot.index].clone())],
            )?,
            _ => self.plan(&stage.plan, &[])?,
        };
        if let (Some(o), Some(prof)) = (self.obs, profile) {
            let nodes = stage.plan.nodes();
            o.push_operators(
                prof.ops
                    .iter()
                    .enumerate()
                    .map(|(n, a)| obs::OperatorProfile {
                        stage: i,
                        node: n,
                        op: nodes[n].kind().to_string(),
                        batches: a.batches,
                        rows_in: a.rows_in,
                        rows_out: a.rows_out,
                        nanos: a.nanos,
                    }),
            );
        }
        ColumnarStage::decode_obs(stage.layout.clone(), result, self.obs)
    }
}

/// Execute a compiled query over the row-major result path: transpose each
/// stage's columnar result into rows, decode per-row
/// [`FlatValue`](crate::semantics::FlatValue) trees and stitch with
/// [`stitch_rows`]. This is the differential oracle for
/// [`execute_bound`]'s columnar path.
pub fn execute_rows(compiled: &CompiledQuery, engine: &Engine) -> Result<Value, ShredError> {
    let params = ParamValues::new();
    let results: Package<ShredResult> = compiled.stages.try_map(&mut |stage: &QueryStage| {
        let req = sqlengine::ExecRequest::new(&params);
        let rs = sqlengine::execute_plan(&stage.plan, &engine.storage(), &req)?
            .result
            .into_result_set();
        stage.layout.decode(&rs)
    })?;
    stitch_rows(results, IndexScheme::Flat)
}

/// Execute a compiled query by shipping SQL *text* to the engine (parsing it
/// back), exactly as Links ships SQL strings to PostgreSQL. Slower than
/// [`execute_bound`], but exercises the printer/parser round trip — and, since
/// text consumers receive row-major results, the row-path decode + stitch.
pub fn execute_via_sql_text(
    compiled: &CompiledQuery,
    engine: &Engine,
) -> Result<Value, ShredError> {
    let results: Package<ShredResult> = compiled.stages.try_map(&mut |stage: &QueryStage| {
        let text = sqlengine::print_query(&stage.sql);
        let rs = engine.execute_sql(&text)?;
        stage.layout.decode(&rs)
    })?;
    stitch_rows(results, IndexScheme::Flat)
}

// ---------------------------------------------------------------------------
// Bridging the λNRC database to the SQL engine
// ---------------------------------------------------------------------------

/// Convert a λNRC schema into SQL table definitions.
pub fn table_defs_of_schema(schema: &Schema) -> Vec<TableDef> {
    schema
        .tables()
        .map(|t| {
            let columns = t
                .columns
                .iter()
                .map(|(c, ty)| {
                    let col_ty = match ty {
                        nrc::BaseType::Int => ColumnType::Int,
                        nrc::BaseType::Bool => ColumnType::Bool,
                        nrc::BaseType::String | nrc::BaseType::Unit => ColumnType::Text,
                    };
                    (c.as_str(), col_ty)
                })
                .collect();
            let mut def = TableDef::new(t.name.clone(), columns);
            def.key = t.key.clone();
            def
        })
        .collect()
}

/// Load an in-memory λNRC database into SQL engine storage: rows keep the
/// schema's column order, each table is sized once to its row count, and
/// strings are copied, not shared. A session drops the database after the
/// load; cells sharing its strings would pin them between the freed records
/// and scatter later allocations across the holes (warm passes over the
/// twelve queries at 128 departments ran 30 % slower).
pub fn storage_from_database(db: &Database) -> Result<Storage, ShredError> {
    let mut storage = Storage::new();
    for (def, table) in table_defs_of_schema(&db.schema)
        .into_iter()
        .zip(db.schema.tables())
    {
        let name = &table.name;
        storage.create_table(def)?;
        storage.reserve_exact(name, db.row_count(name))?;
        for row in db
            .table_rows_unordered(name)
            .map_err(|e| ShredError::Internal(e.to_string()))?
        {
            let cells = table
                .columns
                .iter()
                .map(|(column, _)| match row.field(column) {
                    // A copy, though `build()` drops the database and sharing
                    // its `Arc` looks free: a build that shared it read
                    // `exec_seq` `peak_rss_mb` 27.8–28.3 MiB against 24.5–24.8
                    // (3 of 3 pairs), and `setup_s` 0.27–0.36 s against
                    // 0.22–0.27 in those 5 s runs (2-core host).
                    Some(Value::String(s)) => Ok(SqlValue::str(&**s)),
                    Some(v) => value_to_sql(v),
                    None => Err(ShredError::Internal(format!("row missing column {column}"))),
                });
            storage.insert(name, cells.collect::<Result<_, _>>()?)?;
        }
    }
    Ok(storage)
}

/// An engine loaded with the contents of a λNRC database.
pub fn engine_from_database(db: &Database) -> Result<Engine, ShredError> {
    Ok(Engine::with_storage(storage_from_database(db)?))
}

/// The λNRC database that engine storage holds, the inverse of
/// [`storage_from_database`]: strings share their `Arc<str>` with the stored
/// cells, and a cell λNRC cannot express (a `NULL`) is a typed decode error.
pub(crate) fn database_from_storage(
    storage: &Storage,
    schema: &Schema,
) -> Result<Database, ShredError> {
    let mut db = Database::new(schema.clone());
    for table in schema.tables() {
        let stored = &storage.table(&table.name)?.rows;
        let mut rows = Vec::with_capacity(stored.len());
        for row in stored {
            let fields = table.columns.iter().zip(row);
            let fields =
                fields.map(|((column, ty), cell)| Ok((column.clone(), sql_to_value(cell, *ty)?)));
            rows.push(Value::Record(fields.collect::<Result<_, ShredError>>()?));
        }
        db.insert_bulk(&table.name, rows)
            .map_err(|e| ShredError::Internal(e.to_string()))?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ShreddedMemoryBackend, Shredder};
    use nrc::builder::*;
    use nrc::schema::TableSchema;
    use nrc::types::BaseType;

    fn schema() -> Schema {
        Schema::new()
            .with_table(
                TableSchema::new(
                    "departments",
                    vec![("id", BaseType::Int), ("name", BaseType::String)],
                )
                .with_key(vec!["id"]),
            )
            .with_table(
                TableSchema::new(
                    "employees",
                    vec![
                        ("id", BaseType::Int),
                        ("dept", BaseType::String),
                        ("name", BaseType::String),
                        ("salary", BaseType::Int),
                    ],
                )
                .with_key(vec!["id"]),
            )
            .with_table(
                TableSchema::new(
                    "tasks",
                    vec![
                        ("id", BaseType::Int),
                        ("employee", BaseType::String),
                        ("task", BaseType::String),
                    ],
                )
                .with_key(vec!["id"]),
            )
    }

    fn db() -> Database {
        let mut db = Database::new(schema());
        for (id, name) in [
            (1, "Product"),
            (2, "Quality"),
            (3, "Research"),
            (4, "Sales"),
        ] {
            db.insert_row(
                "departments",
                vec![("id", Value::Int(id)), ("name", Value::string(name))],
            )
            .unwrap();
        }
        for (id, dept, name, salary) in [
            (1, "Product", "Alex", 20000),
            (2, "Product", "Bert", 900),
            (3, "Research", "Cora", 50000),
            (4, "Research", "Drew", 60000),
            (5, "Sales", "Erik", 2000000),
            (6, "Sales", "Fred", 700),
            (7, "Sales", "Gina", 100000),
        ] {
            db.insert_row(
                "employees",
                vec![
                    ("id", Value::Int(id)),
                    ("dept", Value::string(dept)),
                    ("name", Value::string(name)),
                    ("salary", Value::Int(salary)),
                ],
            )
            .unwrap();
        }
        for (id, emp, task) in [
            (1, "Alex", "build"),
            (2, "Bert", "build"),
            (3, "Cora", "abstract"),
            (4, "Cora", "build"),
            (5, "Cora", "call"),
            (6, "Cora", "dissemble"),
            (7, "Cora", "enthuse"),
            (8, "Drew", "abstract"),
            (9, "Drew", "enthuse"),
            (10, "Erik", "call"),
            (11, "Erik", "enthuse"),
            (12, "Fred", "call"),
            (13, "Gina", "call"),
            (14, "Gina", "dissemble"),
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

    /// The two-level nested query used throughout the paper's Section 3.
    fn department_employee_tasks() -> Term {
        for_in(
            "d",
            table("departments"),
            singleton(record(vec![
                ("department", project(var("d"), "name")),
                (
                    "employees",
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
        )
    }

    fn assert_all_paths_agree(q: &Term) {
        let schema = schema();
        let db = db();
        let reference = nrc::eval(q, &db).unwrap();

        // In-memory shredded semantics, all three indexing schemes (through
        // the session API's shredded-memory backend).
        for scheme in IndexScheme::ALL {
            let session = Shredder::builder()
                .database(db.clone())
                .backend(Box::new(ShreddedMemoryBackend::new(scheme)))
                .build()
                .unwrap();
            let v = session.run(q).unwrap();
            assert!(
                v.multiset_eq(&reference),
                "in-memory shredding with {} indexes disagrees:\n  expected {}\n  got {}",
                scheme,
                reference,
                v
            );
        }

        // SQL path.
        let engine = engine_from_database(&db).unwrap();
        let compiled = compile(q, &schema).unwrap();
        assert_eq!(
            compiled.query_count(),
            compiled.result_type.nesting_degree()
        );
        let via_sql = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
        assert!(
            via_sql.multiset_eq(&reference),
            "SQL path disagrees:\n  expected {}\n  got {}",
            reference,
            via_sql
        );

        // SQL-as-text path (printer/parser round trip).
        let via_text = execute_via_sql_text(&compiled, &engine).unwrap();
        assert!(via_text.multiset_eq(&reference));
    }

    #[test]
    fn flat_query_round_trips() {
        let q = for_where(
            "e",
            table("employees"),
            gt(project(var("e"), "salary"), int(10000)),
            singleton(record(vec![("name", project(var("e"), "name"))])),
        );
        assert_all_paths_agree(&q);
    }

    #[test]
    fn two_level_nested_query_round_trips() {
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
                        singleton(project(var("e"), "name")),
                    ),
                ),
            ])),
        );
        assert_all_paths_agree(&q);
    }

    #[test]
    fn three_level_nested_query_round_trips() {
        assert_all_paths_agree(&department_employee_tasks());
    }

    #[test]
    fn query_with_union_of_nested_sources_round_trips() {
        // The outliers-and-clients shape of the running example Q, reduced to
        // the employees table only.
        let q = for_in(
            "d",
            table("departments"),
            singleton(record(vec![
                ("department", project(var("d"), "name")),
                (
                    "people",
                    union(
                        for_where(
                            "e",
                            table("employees"),
                            and(
                                eq(project(var("e"), "dept"), project(var("d"), "name")),
                                or(
                                    lt(project(var("e"), "salary"), int(1000)),
                                    gt(project(var("e"), "salary"), int(1000000)),
                                ),
                            ),
                            singleton(record(vec![
                                ("name", project(var("e"), "name")),
                                (
                                    "tasks",
                                    for_where(
                                        "t",
                                        table("tasks"),
                                        eq(
                                            project(var("t"), "employee"),
                                            project(var("e"), "name"),
                                        ),
                                        singleton(project(var("t"), "task")),
                                    ),
                                ),
                            ])),
                        ),
                        for_where(
                            "e",
                            table("employees"),
                            eq(project(var("e"), "dept"), project(var("d"), "name")),
                            singleton(record(vec![
                                ("name", project(var("e"), "name")),
                                ("tasks", singleton(string("buy"))),
                            ])),
                        ),
                    ),
                ),
            ])),
        );
        assert_all_paths_agree(&q);
    }

    #[test]
    fn emptiness_test_query_round_trips() {
        // Departments where every employee can do the "abstract" task.
        let q = for_where(
            "d",
            table("departments"),
            is_empty(for_where(
                "e",
                table("employees"),
                and(
                    eq(project(var("e"), "dept"), project(var("d"), "name")),
                    is_empty(for_where(
                        "t",
                        table("tasks"),
                        and(
                            eq(project(var("t"), "employee"), project(var("e"), "name")),
                            eq(project(var("t"), "task"), string("abstract")),
                        ),
                        singleton(var("t")),
                    )),
                ),
                singleton(var("e")),
            )),
            singleton(record(vec![("dept", project(var("d"), "name"))])),
        );
        assert_all_paths_agree(&q);
    }

    #[test]
    fn empty_result_bags_are_preserved() {
        // The Quality department has no employees; its inner bag must be empty
        // rather than missing.
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
                        singleton(project(var("e"), "name")),
                    ),
                ),
            ])),
        );
        let db = db();
        let engine = engine_from_database(&db).unwrap();
        let compiled = compile(&q, &schema()).unwrap();
        let v = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
        let quality = v
            .as_bag()
            .unwrap()
            .iter()
            .find(|r| r.field("dept") == Some(&Value::string("Quality")))
            .expect("Quality department present");
        assert_eq!(quality.field("emps"), Some(&Value::bag([])));
    }

    #[test]
    fn multiplicities_are_preserved_by_the_whole_pipeline() {
        // A union that produces duplicate people; bag semantics must keep both
        // copies (this is where Van den Bussche's simulation goes wrong).
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
        assert_all_paths_agree(&q);
    }

    #[test]
    fn compiled_query_exposes_sql_texts() {
        let compiled = compile(&department_employee_tasks(), &schema()).unwrap();
        let texts = compiled.sql_texts();
        assert_eq!(texts.len(), 3);
        assert!(texts[1].contains("WITH"));
        assert!(texts[2].contains("ROW_NUMBER"));
    }

    #[test]
    fn storage_round_trip_preserves_row_counts() {
        let db = db();
        let storage = storage_from_database(&db).unwrap();
        assert_eq!(storage.table("employees").unwrap().len(), 7);
        assert_eq!(storage.table("tasks").unwrap().len(), 14);
        assert_eq!(storage.total_rows(), db.total_rows());
    }

    /// A load sizes each table once: rows and columns end with no growth
    /// slack (grown a `push` at a time, 7 rows would hold 8 slots).
    #[test]
    fn a_loaded_table_keeps_no_growth_slack() {
        let storage = storage_from_database(&db()).unwrap();
        for table in storage.tables() {
            let name = &table.def.name;
            assert_eq!(table.rows.capacity(), table.len(), "{name}: rows");
            for (col, (column, _)) in table.columnar().iter().zip(&table.def.columns) {
                assert_eq!(col.capacity(), col.len(), "{name}.{column}");
            }
        }
    }

    /// The load copies every string: no stored cell, in the rows or the
    /// columns, shares an allocation with the database it was loaded from.
    #[test]
    fn a_load_shares_no_string_with_the_database() {
        let db = db();
        let storage = storage_from_database(&db).unwrap();
        let mut loaded = std::collections::HashSet::new();
        for table in db.schema.tables() {
            for row in db.table_rows_unordered(&table.name).unwrap() {
                for (column, _) in &table.columns {
                    if let Some(Value::String(s)) = row.field(column) {
                        loaded.insert(s.as_ptr());
                    }
                }
            }
        }
        let mut strings = 0;
        for table in storage.tables() {
            let cells = table.rows.iter().flatten();
            for cell in cells.chain(table.columnar().iter().flat_map(|c| c.iter())) {
                if let sqlengine::SqlValue::Str(s) = cell {
                    strings += 1;
                    assert!(
                        !loaded.contains(&s.as_ptr()),
                        "{}: cell {s:?} shares the database's string",
                        table.def.name
                    );
                }
            }
        }
        assert!(strings > 0, "the fixture holds strings");
    }

    /// Storage read back as a database gives back the database it was loaded
    /// from, strings sharing their payloads with the stored cells; a `NULL`
    /// λNRC cannot express is a typed decode error.
    #[test]
    fn database_from_storage_inverts_the_load() {
        let db = db();
        let mut storage = storage_from_database(&db).unwrap();
        let back = database_from_storage(&storage, &db.schema).unwrap();
        assert_eq!(back, db);
        let (Some(Value::String(stored)), sqlengine::SqlValue::Str(cell)) = (
            back.table_rows_unordered("departments").unwrap()[0].field("name"),
            &storage.table("departments").unwrap().rows[0][1],
        ) else {
            panic!("departments.name is a string column");
        };
        assert!(Arc::ptr_eq(stored, cell), "a string is shared, not copied");

        storage
            .insert(
                "departments",
                vec![sqlengine::SqlValue::Null, sqlengine::SqlValue::str("Nulls")],
            )
            .unwrap();
        assert!(matches!(
            database_from_storage(&storage, &db.schema),
            Err(ShredError::Decode { .. })
        ));
    }
}
