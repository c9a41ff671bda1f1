//! The `Shredder` session API: the front door of the crate.
//!
//! A [`Shredder`] is a configured query session. It owns the schema, the
//! (optional) SQL engine whose storage is the session's one copy of the data
//! (an attached database is loaded into it at build), a pluggable execution
//! backend ([`SqlBackend`]) and a two-level LRU plan cache: source terms in
//! front of normal forms.
//! The session lifecycle mirrors the staged planner lifecycles of production
//! query engines:
//!
//! ```text
//! Shredder::builder() … .build()      configure: schema, data, backend
//!   │
//!   ├─ prepare(term)  ──▶ PreparedQuery   auto-param → (term known?) → normalise → (plan known?) → plan
//!   │       │                              │
//!   │       ├─ explain()                   per-stage SQL, layouts, indexes
//!   │       └─ params()                    declared bind variables (name : type)
//!   │
//!   ├─ execute(&prepared)            ──▶ Value   execution with default bindings
//!   ├─ execute_bound(&prepared, &p)  ──▶ Value   execution with explicit bindings
//!   ├─ run(term)            = prepare + execute
//!   ├─ oracle(term)         = the nested reference semantics N⟦−⟧ (ground truth)
//!   └─ oracle_bound(term,p) = N⟦−⟧ under a parameter binding environment
//! ```
//!
//! Queries may declare typed **parameters** (bind variables) — explicitly
//! with [`nrc::builder::int_param`] or [`nrc::builder::string_param`], or
//! implicitly: `prepare` lifts integer and string literals out of ad-hoc
//! terms ([`auto_parameterize`]) so queries
//! differing only in such constants share one cached plan. The plan cache is keyed on the *param-shape* normal form,
//! with the param-shape source terms that led there in front of it, so
//! re-issuing a query shape with other constants costs a hash of the term:
//! no normalisation, typechecking or verification, and zero parsing,
//! shredding, SQL generation or physical planning.
//!
//! Two backends ship with this crate: [`SqlEngineBackend`] (shred to SQL,
//! execute on the in-memory `sqlengine`, stitch — the paper's Figure 1(c))
//! and [`ShreddedMemoryBackend`] (the shredded semantics of Figure 5 under
//! the [`IndexScheme`] it was built with, no SQL involved). [`NestedOracleBackend`] runs the
//! nested reference semantics directly and is the correctness oracle the
//! other backends are validated against. The `baselines` crate implements the
//! paper's comparison systems (loop-lifting, Links' default flat evaluation,
//! Van den Bussche's simulation) as further backends.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

use crate::delta::{LiveView, StorageDelta, Subscription, WriteBatch, WriteOp};
use crate::error::ShredError;
use crate::flatten::{value_to_sql, ResultLayout};
use crate::nf::NormQuery;
use crate::normalise::normalise_with_type_obs;
use crate::pipeline::{self, CompiledQuery};
use crate::semantics::{eval_shredded_package, IndexScheme, IndexTables};
use crate::shred::{package_by, shred_query, shred_type, Package, ShreddedQuery};
use crate::stitch::stitch_rows;
use crate::verify;
use analysis::{lint, Diagnostic, Diagnostics};
use nrc::schema::{Database, Schema};
use nrc::term::{Constant, Term};
use nrc::types::{BaseType, Type};
use nrc::value::Value;
use obs::{MetricsRegistry, MetricsSnapshot, QueryObs, QueryProfile, RingSink, Span, Stage};
use sqlengine::{Engine, SqlValue};

/// Default number of plans the session keeps cached.
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

// ---------------------------------------------------------------------------
// Parameters and bindings
// ---------------------------------------------------------------------------

/// One declared parameter of a prepared query: its name and base type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpec {
    /// The parameter's name (without the `?` / `:` sigil).
    pub name: String,
    /// The parameter's declared base type.
    pub ty: BaseType,
}

impl fmt::Display for ParamSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{} : {}", self.name, self.ty)
    }
}

/// A set of named parameter bindings, built fluently and passed to
/// [`Shredder::execute_bound`]:
///
/// ```
/// use shredding::session::Params;
/// use nrc::value::Value;
/// let params = Params::new()
///     .bind("dpt", "Sales")
///     .bind("cutoff", 1000i64);
/// assert_eq!(params.get("cutoff"), Some(&Value::Int(1000)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    values: Vec<(String, Value)>,
}

impl Params {
    /// An empty binding set.
    pub fn new() -> Params {
        Params::default()
    }

    /// Bind `name` to a value, replacing any earlier binding of the same
    /// name. Accepts anything convertible into a [`Value`] (`i64`, `bool`,
    /// `&str`, `String`, or a `Value` itself).
    pub fn bind(mut self, name: &str, value: impl Into<Value>) -> Params {
        self.set(name, value);
        self
    }

    /// Non-consuming version of [`bind`](Params::bind).
    pub(crate) fn set(&mut self, name: &str, value: impl Into<Value>) {
        let value = value.into();
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The bound value of a name, if any.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Iterate over the bindings in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.values.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Is the binding set empty?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Fully resolved parameter values handed to a backend's `execute`: one
/// type-checked value per declared parameter of the plan. Produced by the
/// session from the prepared query's defaults overlaid with the caller's
/// [`Params`]; backends never see missing or mistyped bindings.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    values: Vec<(String, Value)>,
}

impl Bindings {
    /// Are there no bindings?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The bindings as engine-level SQL parameter values (for backends that
    /// ship plans with `:name` slots to the vectorized executor).
    pub fn to_sql_params(&self) -> Result<sqlengine::ParamValues, ShredError> {
        let mut out = sqlengine::ParamValues::new();
        for (name, value) in &self.values {
            out.insert(name.clone(), value_to_sql(value)?);
        }
        Ok(out)
    }

    /// The bindings as constants (for backends that substitute parameters
    /// into terms or normal forms before evaluating).
    pub(crate) fn to_constants(&self) -> HashMap<String, Constant> {
        self.values
            .iter()
            .filter_map(|(n, v)| v.as_constant().map(|c| (n.clone(), c)))
            .collect()
    }

    /// The bindings as a λNRC evaluation parameter environment.
    pub fn to_value_map(&self) -> nrc::ParamBindings {
        self.values
            .iter()
            .map(|(n, v)| (n.clone(), v.clone()))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The backend trait
// ---------------------------------------------------------------------------

/// Everything a backend may consult while planning a query. The session
/// normalises the term once (also deriving the plan-cache key from the
/// normal form) and hands both the source term and the normal form over.
pub struct PlanRequest<'a> {
    /// The original λNRC term (after auto-parameterization).
    pub term: &'a Term,
    /// Its normal form (Theorem 1: semantically equivalent to `term`).
    pub normalised: &'a NormQuery,
    /// The query's result type (always a bag type).
    pub result_type: &'a Type,
    /// The flat source schema Σ.
    pub schema: &'a Schema,
    /// The declared parameters of the normal form, deduplicated and
    /// conflict-checked.
    pub params: &'a [ParamSpec],
    /// The session's per-call span collector, when stage tracing is active.
    /// SQL-compiling backends record `Shred`/`Sqlgen`/`Plan` spans into it
    /// (e.g. via [`pipeline::compile_normalised_opts`]); backends that ignore
    /// it simply produce plans without compile-phase spans.
    pub obs: Option<&'a QueryObs>,
}

/// Execution-time context handed to a backend: the session's schema and SQL
/// engine, whose storage holds the session's data.
pub struct ExecContext<'a> {
    schema: &'a Schema,
    engine: Option<&'a Arc<Engine>>,
    obs: Option<&'a QueryObs>,
    exec_opts: sqlengine::ExecOptions,
}

impl<'a> ExecContext<'a> {
    /// The session's execution options: the worker count a package's stages
    /// and stitch fan out on ([`ShredderBuilder::workers`]). Backends that
    /// execute shredded packages pass these through to
    /// [`crate::pipeline::execute_bound_obs_opts`]; `workers == 1` runs the
    /// stages and the stitch one after another on the calling thread.
    pub(crate) fn exec_opts(&self) -> sqlengine::ExecOptions {
        self.exec_opts
    }

    /// The session's per-call span collector, when stage tracing is active
    /// for this execute call. Backends record `Execute`/`Decode`/`Stitch`
    /// spans into it (conveniently via [`obs::time_maybe`]); when it also
    /// requests operator profiling, SQL backends run the instrumented
    /// executor and push per-plan-node actuals.
    pub fn obs(&self) -> Option<&'a QueryObs> {
        self.obs
    }
    /// The committed state of the session's storage as a λNRC database,
    /// rebuilt by each call from one read of the storage
    /// (`pipeline::database_from_storage`).
    pub fn db(&self) -> Result<Database, ShredError> {
        pipeline::database_from_storage(&self.engine()?.storage(), self.schema)
    }

    /// The session's SQL engine, or a configuration error if the session was
    /// built from a schema alone.
    pub fn engine(&self) -> Result<&'a Arc<Engine>, ShredError> {
        self.engine.ok_or_else(|| {
            ShredError::Config(
                "this session has no database or engine; attach one with \
                 ShredderBuilder::database or ShredderBuilder::engine"
                    .into(),
            )
        })
    }
}

/// A pluggable execution strategy: how a normalised λNRC query is planned
/// and evaluated. Implementations ship with this crate ([`SqlEngineBackend`],
/// [`ShreddedMemoryBackend`], [`NestedOracleBackend`]) and with the
/// `baselines` crate (loop-lifting, Links' default flat evaluation, Van den
/// Bussche's simulation).
///
/// Backends are `Send + Sync`: one backend instance is shared by every clone
/// of the session, and `prepare`/`execute` may be called from any number of
/// threads at once. Backends therefore keep no per-call mutable state — the
/// provided implementations hold at most an immutable setting, such as
/// [`ShreddedMemoryBackend`]'s index scheme — and their plan payloads must be `Send + Sync` too (enforced by
/// [`BackendPlan::new`]).
pub trait SqlBackend: fmt::Debug + Send + Sync {
    /// A short stable name, shown by `explain()` and used to guard against
    /// executing a plan on the wrong session.
    fn name(&self) -> &'static str;

    /// Translate a normalised query into a backend plan. Called once per
    /// distinct param-shape normal form when the plan cache is enabled —
    /// queries differing only in bound constants share one plan.
    fn prepare(&self, req: &PlanRequest<'_>) -> Result<BackendPlan, ShredError>;

    /// Evaluate a plan produced by `prepare` against the session's data,
    /// with a fully resolved value for every parameter the plan declares.
    /// `bindings` is empty for parameter-free plans.
    fn execute(
        &self,
        plan: &BackendPlan,
        cx: &ExecContext<'_>,
        bindings: &Bindings,
    ) -> Result<Value, ShredError>;
}

/// One per-stage entry of a plan's `explain()` output: the path of the bag
/// constructor it evaluates, the SQL text (for SQL-producing backends), the
/// physical plan the engine will run and the flat column layout used to
/// decode its rows.
#[derive(Debug, Clone)]
pub struct StageExplain {
    /// The path of the result type's bag constructor this stage computes.
    pub path: String,
    /// The SQL text shipped to the engine, if the backend compiles to SQL.
    pub sql: Option<String>,
    /// The rendered physical plan (scans, join strategy and keys, filters,
    /// row-numbering), for backends that pre-plan execution. A hash join's
    /// build side is not part of it: the executor picks the smaller input.
    pub physical: Option<String>,
    /// The flat columns of the stage's result (indexes first, then data).
    pub columns: Vec<String>,
    /// The rewrites applied to this stage's plan after planning, one line
    /// per rewrite (a cross-stage CSE binding). Empty when nothing fired.
    pub rewrites: Vec<String>,
}

/// A backend-specific plan: human-readable per-stage information plus an
/// opaque payload the backend downcasts at execution time.
///
/// Plans are immutable after `prepare` and shared by `Arc` — between the
/// plan cache, every [`PreparedQuery`] handle and every thread executing
/// one — so the payload must be `Send + Sync`.
pub struct BackendPlan {
    stage_count: usize,
    /// The explain entries: given up front ([`new`](Self::new)), or
    /// rendered from the payload the first time someone reads them
    /// ([`lazy`](Self::lazy)).
    stages: OnceLock<Vec<StageExplain>>,
    render: Option<RenderStages>,
    payload: Arc<dyn Any + Send + Sync>,
}

type RenderStages = Box<dyn Fn(&(dyn Any + Send + Sync)) -> Vec<StageExplain> + Send + Sync>;

impl BackendPlan {
    /// Wrap a backend-specific payload together with its explain stages.
    pub fn new<T: Any + Send + Sync>(stages: Vec<StageExplain>, payload: T) -> BackendPlan {
        BackendPlan {
            stage_count: stages.len(),
            stages: OnceLock::from(stages),
            render: None,
            payload: Arc::new(payload),
        }
    }

    /// Wrap a payload of `stage_count` stages whose explain entries `render`
    /// derives from it on first use: compiling a query should not pay for
    /// pretty-printing SQL and plan trees that only `explain()` reads.
    pub(crate) fn lazy<T: Any + Send + Sync>(
        stage_count: usize,
        payload: T,
        render: fn(&T) -> Vec<StageExplain>,
    ) -> BackendPlan {
        BackendPlan {
            stage_count,
            stages: OnceLock::new(),
            render: Some(Box::new(move |payload| {
                payload.downcast_ref::<T>().map(render).unwrap_or_default()
            })),
            payload: Arc::new(payload),
        }
    }

    /// Per-stage explain entries, outermost bag constructor first.
    pub(crate) fn stages(&self) -> &[StageExplain] {
        self.stages.get_or_init(|| match &self.render {
            Some(render) => render(self.payload.as_ref()),
            None => Vec::new(),
        })
    }

    /// Number of flat stages the plan evaluates; renders nothing.
    pub(crate) fn stage_count(&self) -> usize {
        self.stage_count
    }

    /// Recover the typed payload stored by `prepare`.
    pub fn downcast<T: 'static>(&self) -> Result<&T, ShredError> {
        self.payload
            .downcast_ref::<T>()
            .ok_or_else(|| ShredError::Internal("backend plan payload has the wrong type".into()))
    }
}

impl fmt::Debug for BackendPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendPlan")
            .field("stages", &self.stages())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Prepared queries and explain output
// ---------------------------------------------------------------------------

/// What planning a normal form produces, shared by every handle prepared from
/// it and by the plan cache: nothing here depends on which source term (or
/// which constants) asked.
#[derive(Debug)]
struct PlannedQuery {
    normalised: NormQuery,
    result_type: Type,
    plan: BackendPlan,
    /// What the structural checks found in the plan: the cross-stage
    /// [`verify::check_compiled`] pass for SQL-pipeline plans, the index
    /// tree check for shredded-memory plans, nothing for opaque payloads
    /// (oracle, baselines).
    diagnostics: Vec<Diagnostic>,
    /// The name of this query's executions in profiles: its result type,
    /// cut to 120 bytes.
    label: String,
}

/// A query prepared by a [`Shredder`] session: the backend plan plus enough
/// metadata to explain and to re-execute it without recompiling.
///
/// A prepared query may declare **parameters** (bind variables), either
/// written explicitly with `nrc::builder::param` or lifted out of literal
/// constants by the session's auto-parameterization. Re-executing the same
/// prepared shape with different bindings does zero parsing, shredding, SQL
/// generation or physical planning:
///
/// ```
/// use nrc::builder::*;
/// use shredding::session::{Params, Shredder};
/// # use nrc::schema::{Database, Schema, TableSchema};
/// # use nrc::types::BaseType;
/// # use nrc::value::Value;
/// # let schema = Schema::new().with_table(
/// #     TableSchema::new("items", vec![("id", BaseType::Int)]).with_key(vec!["id"]));
/// # let mut db = Database::new(schema);
/// # db.insert_row("items", vec![("id", Value::Int(1))]).unwrap();
/// # db.insert_row("items", vec![("id", Value::Int(2))]).unwrap();
/// let session = Shredder::builder().database(db).build().unwrap();
/// let query = for_where(
///     "x",
///     table("items"),
///     eq(project(var("x"), "id"), int_param("wanted")),
///     singleton(project(var("x"), "id")),
/// );
/// let prepared = session.prepare(&query).unwrap();
/// assert_eq!(prepared.params().len(), 1);
/// let one = session
///     .execute_bound(&prepared, &Params::new().bind("wanted", 1i64))
///     .unwrap();
/// let two = session
///     .execute_bound(&prepared, &Params::new().bind("wanted", 2i64))
///     .unwrap();
/// assert_eq!(one, Value::bag(vec![Value::Int(1)]));
/// assert_eq!(two, Value::bag(vec![Value::Int(2)]));
/// ```
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    backend: &'static str,
    schema: Arc<Schema>,
    planned: Arc<PlannedQuery>,
    params: Arc<Vec<ParamSpec>>,
    defaults: Arc<Params>,
    /// The lint findings for the source term, then the plan's.
    diagnostics: Arc<Diagnostics>,
    from_cache: bool,
    /// Spans recorded while preparing this handle (typecheck/normalise and,
    /// on cache misses, shred/sqlgen/plan/verify).
    prepare_spans: Arc<Vec<Span>>,
    /// Per-stage, per-node actuals of the most recent *profiled* execution
    /// of this handle, shared across clones (plans are immutable, so the
    /// actuals ride in a side slot rather than on the plan itself).
    last_exec: Arc<Mutex<Option<Vec<Vec<sqlengine::OpActuals>>>>>,
    /// Plan-cache counters captured when this handle was prepared.
    cache_stats: CacheStats,
    /// Engine plan-compilation counter captured when this handle was
    /// prepared (0 until the engine is first loaded).
    plans_built: u64,
}

impl PreparedQuery {
    /// The parameters this query declares, in first-occurrence order. Every
    /// parameter without a default (i.e. every explicitly written one) must
    /// be bound via [`Shredder::execute_bound`].
    pub fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    /// The default bindings extracted by auto-parameterization (empty for
    /// explicitly parameterized queries).
    pub fn default_bindings(&self) -> &Params {
        &self.defaults
    }

    /// Per-stage explain output: backend, static indexes of the normal form
    /// and one entry per flat query.
    pub fn explain(&self) -> Explain {
        Explain {
            backend: self.backend,
            cached: self.from_cache,
            result_type: self.planned.result_type.to_string(),
            static_indexes: self
                .planned
                .normalised
                .tags()
                .iter()
                .map(|t| t.as_int())
                .collect(),
            stages: self.planned.plan.stages().to_vec(),
            diagnostics: self.diagnostics.iter().map(|d| d.to_string()).collect(),
            cache: self.cache_stats,
            plans_built: self.plans_built,
        }
    }

    /// Render every stage's physical plan tree annotated with the **actuals**
    /// of the most recent profiled execution of this handle: per plan node,
    /// the number of executions (`batches` — correlated subplans run once per
    /// outer row), rows fed in by its children, rows produced and inclusive
    /// wall time. The shape mirrors Postgres' `EXPLAIN ANALYZE`.
    ///
    /// Requires the sqlengine backend and at least one execution through
    /// [`Shredder::execute_profiled`].
    ///
    /// ```
    /// use nrc::builder::*;
    /// use shredding::session::{Params, Shredder};
    /// # use nrc::schema::{Database, Schema, TableSchema};
    /// # use nrc::types::BaseType;
    /// # use nrc::value::Value;
    /// # let schema = Schema::new().with_table(
    /// #     TableSchema::new("items", vec![("id", BaseType::Int)]).with_key(vec!["id"]));
    /// # let mut db = Database::new(schema);
    /// # db.insert_row("items", vec![("id", Value::Int(1))]).unwrap();
    /// # db.insert_row("items", vec![("id", Value::Int(2))]).unwrap();
    /// let session = Shredder::over(db).unwrap();
    /// let query = for_in("x", table("items"), singleton(project(var("x"), "id")));
    /// let prepared = session.prepare(&query).unwrap();
    /// session.execute_profiled(&prepared, &Params::new()).unwrap();
    /// let analyzed = prepared.explain_analyze().unwrap();
    /// assert!(analyzed.contains("rows_out=2"));   // both items reached the root
    /// ```
    pub fn explain_analyze(&self) -> Result<String, ShredError> {
        use fmt::Write as _;
        let compiled: &CompiledQuery = self.planned.plan.downcast().map_err(|_| {
            ShredError::Config(
                "explain_analyze() requires a plan prepared by the sqlengine backend".into(),
            )
        })?;
        let guard = self
            .last_exec
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let Some(actuals) = guard.as_ref() else {
            return Err(ShredError::Config(
                "no profiled execution recorded for this prepared query; run it with \
                 Shredder::execute_profiled"
                    .into(),
            ));
        };
        let mut out = String::new();
        for (i, stage) in compiled.stages.annotations().into_iter().enumerate() {
            let _ = writeln!(out, "stage {} at path {}:", i + 1, stage.path);
            let empty: &[sqlengine::OpActuals] = &[];
            let rendered = stage
                .plan
                .render_analyzed(actuals.get(i).map(Vec::as_slice).unwrap_or(empty));
            for line in rendered.lines() {
                let _ = writeln!(out, "  > {}", line);
            }
        }
        Ok(out)
    }

    /// The static diagnostics computed at prepare time: the λNRC lint pass
    /// over the source term plus the cross-stage package and physical-plan
    /// verification (see the `analysis` crate for the code registry).
    ///
    /// When the session verifies (debug builds by default, or
    /// [`ShredderBuilder::verify`]`(true)`), error-severity diagnostics have
    /// already failed `prepare`, so this list holds warnings at most;
    /// with verification off it may also hold the errors that would have
    /// been fatal.
    ///
    /// ```
    /// use nrc::builder::*;
    /// use shredding::session::Shredder;
    /// # use nrc::schema::{Database, Schema, TableSchema};
    /// # use nrc::types::BaseType;
    /// # let schema = Schema::new().with_table(
    /// #     TableSchema::new("items", vec![("id", BaseType::Int)]).with_key(vec!["id"]));
    /// let session = Shredder::builder().schema(schema).build().unwrap();
    ///
    /// // A clean query prepares with no findings.
    /// let clean = for_in("x", table("items"), singleton(project(var("x"), "id")));
    /// assert!(session.prepare(&clean).unwrap().check().is_empty());
    ///
    /// // A dead generator (`y` never used) is reported as a warning,
    /// // carrying its registry code.
    /// let dead = for_in("x", table("items"),
    ///     for_in("y", table("items"), singleton(project(var("x"), "id"))));
    /// let diagnostics = session.prepare(&dead).unwrap();
    /// assert!(diagnostics.check().has_code(analysis::codes::DEAD_GENERATOR));
    /// assert_eq!(diagnostics.check().error_count(), 0);
    /// ```
    pub fn check(&self) -> &Diagnostics {
        &self.diagnostics
    }

    /// The SQL text of every stage, outermost first (empty for backends that
    /// do not compile to SQL).
    pub fn sql_texts(&self) -> Vec<String> {
        self.planned
            .plan
            .stages()
            .iter()
            .filter_map(|s| s.sql.clone())
            .collect()
    }

    /// Number of flat stages the plan evaluates (the nesting degree, for
    /// shredding backends).
    pub fn query_count(&self) -> usize {
        self.planned.plan.stage_count()
    }

    /// The query's result type.
    pub fn result_type(&self) -> &Type {
        &self.planned.result_type
    }

    /// Whether this handle was served from the session's plan cache (the
    /// backend's `prepare` was skipped).
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }
}

/// The rendered plan of a [`PreparedQuery`]; display it with `{}`.
#[derive(Debug, Clone)]
pub struct Explain {
    /// Backend that produced the plan.
    pub backend: &'static str,
    /// Whether the plan came from the session's plan cache.
    pub cached: bool,
    /// The query's result type.
    pub result_type: String,
    /// The static indexes assigned to the normal form's comprehensions.
    pub static_indexes: Vec<i64>,
    /// One entry per flat stage, outermost first.
    pub stages: Vec<StageExplain>,
    /// Rendered prepare-time diagnostics (see [`PreparedQuery::check`]).
    pub diagnostics: Vec<String>,
    /// Plan-cache counters at the time this handle was prepared.
    pub cache: CacheStats,
    /// Physical plans the engine had compiled when this handle was prepared
    /// (0 until the engine is first loaded).
    pub plans_built: u64,
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan (backend={}, cached={})", self.backend, self.cached)?;
        writeln!(f, "result type: {}", self.result_type)?;
        writeln!(f, "static indexes: {:?}", self.static_indexes)?;
        writeln!(
            f,
            "cache: hits={} misses={} evictions={} entries={}",
            self.cache.hits, self.cache.misses, self.cache.evictions, self.cache.entries
        )?;
        writeln!(f, "engine plans built: {}", self.plans_built)?;
        for (i, stage) in self.stages.iter().enumerate() {
            writeln!(f, "stage {} at path {}:", i + 1, stage.path)?;
            if !stage.columns.is_empty() {
                writeln!(f, "  columns: {}", stage.columns.join(", "))?;
            }
            if let Some(sql) = &stage.sql {
                for line in sql.lines() {
                    writeln!(f, "  | {}", line)?;
                }
            }
            if let Some(physical) = &stage.physical {
                writeln!(f, "  physical plan:")?;
                for line in physical.lines() {
                    writeln!(f, "  > {}", line)?;
                }
            }
            if !stage.rewrites.is_empty() {
                writeln!(f, "  rewrites:")?;
                for rewrite in &stage.rewrites {
                    writeln!(f, "  * {}", rewrite)?;
                }
            }
        }
        if !self.diagnostics.is_empty() {
            writeln!(f, "diagnostics:")?;
            for d in &self.diagnostics {
                writeln!(f, "  ! {}", d)?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The plan cache
// ---------------------------------------------------------------------------

/// Counters describing the plan cache's behaviour so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Prepares answered from the cache (the backend's `prepare` was skipped).
    pub hits: u64,
    /// Prepares that had to invoke the backend.
    pub misses: u64,
    /// Plans evicted to stay within capacity.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// What a prepare works out, from the cache or the long way round, before it
/// is made into a handle.
#[derive(Debug)]
struct Prepared {
    planned: Arc<PlannedQuery>,
    params: Arc<Vec<ParamSpec>>,
    /// The lint findings for the source term, then the plan's.
    diagnostics: Arc<Diagnostics>,
}

/// Level 2 of the cache: a plan, under the key of its normal form.
#[derive(Debug)]
struct CachedPlan {
    planned: Arc<PlannedQuery>,
    /// Atomic because a hit on any term that points here refreshes it.
    last_used: AtomicU64,
}

/// Level 1 of the cache: what preparing one source term came to — which
/// plan, and what else today's `prepare` would otherwise recompute from the
/// term alone.
#[derive(Debug)]
struct CachedTerm {
    plan: Arc<CachedPlan>,
    params: Arc<Vec<ParamSpec>>,
    /// The diagnostics the first prepare of this term returned.
    diagnostics: Arc<Diagnostics>,
    last_used: u64,
}

/// The LRU maps themselves: the only part of the cache that needs a lock.
#[derive(Debug, Default)]
struct CacheMap {
    tick: u64,
    plans: HashMap<String, Arc<CachedPlan>>,
    terms: HashMap<Term, CachedTerm>,
}

/// A least-recently-used plan cache in two levels, shared by every clone of
/// a session.
///
/// **Level 1** is keyed on the source term as `prepare` sees it after
/// auto-parameterization — integer and string literals already lifted into
/// parameters, so the key is the query's *shape*; booleans stay inline. It
/// is consulted before any other work: a hit is a hash of the term, and
/// returns the plan, the declared parameters and the diagnostics of the
/// first prepare without normalising, typechecking, rendering a key or
/// verifying again. The term alone is a safe key because everything else a
/// prepare depends on — the schema and the backend — is fixed for the
/// session that owns the cache.
///
/// **Level 2** is keyed on the normal form (its canonical rendering, see
/// [`plan_key`]) and holds the plan with what was derived from it. A term
/// that misses level 1 is normalised and looked up here, so two different
/// source terms with one normal form share one plan; each is then linted
/// once and remembered at level 1.
///
/// An entry enters either level only after the prepare that produced it
/// passed verification, so a hit cannot return what `verify(true)` would
/// have refused. Both levels hold at most `capacity` entries, on one LRU
/// clock; a plan that is evicted or cleared takes the terms that point at
/// it along. The counters count prepares, and `entries` counts plans: a
/// level-1 hit is a hit, a level-1 miss counts as whatever level 2 answers.
///
/// Locking strategy: the maps (and their LRU ticks) sit behind one
/// [`Mutex`]; the hit/miss/eviction counters are atomics updated outside any
/// contention-sensitive path. The critical section is a hash lookup plus
/// three `Arc` clones — the cached plans themselves are immutable and shared,
/// so the expensive parts (backend `prepare`, plan execution) happen entirely
/// outside the lock.
#[derive(Debug)]
struct PlanCache {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    map: Mutex<CacheMap>,
}

impl PlanCache {
    fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            map: Mutex::new(CacheMap::default()),
        }
    }

    fn lock_map(&self) -> std::sync::MutexGuard<'_, CacheMap> {
        // A panic while holding the lock can only happen on allocation
        // failure; the maps are structurally intact either way, so poisoning
        // is safe to shrug off rather than propagate to every caller.
        self.map
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Level 1. Counts a hit when the term is known and nothing when it is
    /// not: the prepare goes on to level 2, which counts it.
    fn lookup_term(&self, term: &Term) -> Option<Prepared> {
        let mut map = self.lock_map();
        map.tick += 1;
        let tick = map.tick;
        let entry = map.terms.get_mut(term)?;
        entry.last_used = tick;
        entry.plan.last_used.store(tick, Ordering::Relaxed);
        let found = Prepared {
            planned: entry.plan.planned.clone(),
            params: entry.params.clone(),
            diagnostics: entry.diagnostics.clone(),
        };
        drop(map);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(found)
    }

    /// Level 2. Counts a hit or a miss.
    fn lookup_plan(&self, key: &str) -> Option<Arc<PlannedQuery>> {
        let mut map = self.lock_map();
        map.tick += 1;
        let tick = map.tick;
        let found = map.plans.get(key).map(|entry| {
            entry.last_used.store(tick, Ordering::Relaxed);
            entry.planned.clone()
        });
        drop(map);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Remember a verified prepare of `term`: its plan under `key` at level
    /// 2 (unless a plan is there already) and the term at level 1, each
    /// displacing the least recently used entry of a full level.
    fn insert(&self, key: String, term: &Term, prepared: &Prepared) {
        let mut evicted = 0u64;
        {
            let mut map = self.lock_map();
            map.tick += 1;
            let tick = map.tick;
            let CacheMap { plans, terms, .. } = &mut *map;
            let plan = match plans.get(&key) {
                Some(plan) => {
                    plan.last_used.store(tick, Ordering::Relaxed);
                    plan.clone()
                }
                None => {
                    if plans.len() >= self.capacity {
                        let oldest = plans
                            .iter()
                            .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                            .map(|(k, _)| k.clone());
                        if let Some(gone) = oldest.and_then(|k| plans.remove(&k)) {
                            terms.retain(|_, t| !Arc::ptr_eq(&t.plan, &gone));
                            evicted = 1;
                        }
                    }
                    let plan = Arc::new(CachedPlan {
                        planned: prepared.planned.clone(),
                        last_used: AtomicU64::new(tick),
                    });
                    plans.insert(key, plan.clone());
                    plan
                }
            };
            if terms.len() >= self.capacity && !terms.contains_key(term) {
                let oldest = terms
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                if let Some(oldest) = oldest {
                    terms.remove(&oldest);
                }
            }
            terms.insert(
                term.clone(),
                CachedTerm {
                    plan,
                    params: prepared.params.clone(),
                    diagnostics: prepared.diagnostics.clone(),
                    last_used: tick,
                },
            );
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    fn clear(&self) {
        let mut map = self.lock_map();
        map.plans.clear();
        map.terms.clear();
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.lock_map().plans.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Configures and validates a [`Shredder`] session.
#[derive(Default)]
pub struct ShredderBuilder {
    schema: Option<Schema>,
    database: Option<Database>,
    engine: Option<Arc<Engine>>,
    backend: Option<Box<dyn SqlBackend>>,
    cache_capacity: Option<usize>,
    cache_disabled: bool,
    verify: Option<bool>,
    workers: Option<usize>,
}

impl fmt::Debug for ShredderBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShredderBuilder")
            .field("backend", &self.backend)
            .field("cache_capacity", &self.cache_capacity)
            .field("cache_disabled", &self.cache_disabled)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl ShredderBuilder {
    /// The flat source schema Σ. Optional when a database is attached (its
    /// schema is used); if both are given they must agree.
    pub fn schema(mut self, schema: Schema) -> Self {
        self.schema = Some(schema);
        self
    }

    /// Attach the database the session queries; [`build`](Self::build) loads
    /// it into engine storage and drops it. Enables execution; sessions built
    /// from a schema alone can still `prepare` and `explain`.
    pub fn database(mut self, db: Database) -> Self {
        self.database = Some(db);
        self
    }

    /// Use a loaded SQL engine, instead of a database, as the session's data.
    /// Accepts an `Arc<Engine>` (e.g. from [`Shredder::shared_engine`]) so
    /// several sessions over the same data can share one loaded engine
    /// without copying its storage — across threads, if desired.
    pub fn engine(mut self, engine: impl Into<Arc<Engine>>) -> Self {
        self.engine = Some(engine.into());
        self
    }

    /// The execution backend. Defaults to [`SqlEngineBackend`].
    pub fn backend(mut self, backend: Box<dyn SqlBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Capacity of the LRU plan cache (must be non-zero; use
    /// [`without_plan_cache`](Self::without_plan_cache) to disable caching).
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Disable the plan cache: every `prepare` invokes the backend.
    pub fn without_plan_cache(mut self) -> Self {
        self.cache_disabled = true;
        self
    }

    /// Enable or disable the prepare-time static verifier. When enabled, an
    /// error-severity diagnostic (see [`PreparedQuery::check`] and the
    /// `analysis` crate's code registry) fails `prepare` with
    /// [`ShredError::Verification`] instead of surfacing later as a wrong
    /// answer or an execution panic. Defaults to **on in debug builds, off
    /// in release builds**; warnings are collected either way.
    pub fn verify(mut self, enabled: bool) -> Self {
        self.verify = Some(enabled);
        self
    }

    /// Worker threads for executing one query: a multi-stage shredded
    /// package runs its independent stages concurrently on up to this many
    /// threads, and each stage's plan runs whole on the thread that picked
    /// it up; a package that decodes enough rows then stitches chunks of its
    /// top-level bag on up to this many threads too. Defaults to
    /// [`std::thread::available_parallelism`]. `workers(1)` runs the stages
    /// and the stitch one after another on the calling thread. Answers are
    /// identical at every worker count. Values are clamped to at least 1.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Validate the configuration and build the session, loading an
    /// attached database into engine storage.
    pub fn build(self) -> Result<Shredder, ShredError> {
        if self.database.is_some() && self.engine.is_some() {
            return Err(ShredError::Config(
                "database and engine are mutually exclusive: a session has one data copy".into(),
            ));
        }
        let schema = match (self.schema, &self.database) {
            (Some(schema), Some(db)) => {
                if schema != db.schema {
                    return Err(ShredError::Config(
                        "the schema passed to ShredderBuilder::schema differs from the \
                         attached database's schema"
                            .into(),
                    ));
                }
                schema
            }
            (Some(schema), None) => schema,
            (None, Some(db)) => db.schema.clone(),
            (None, None) => {
                return Err(ShredError::Config(
                    "a session needs a schema or a database; call ShredderBuilder::schema \
                     or ShredderBuilder::database"
                        .into(),
                ));
            }
        };
        if self.cache_disabled && self.cache_capacity.is_some() {
            return Err(ShredError::Config(
                "plan_cache_capacity and without_plan_cache are mutually exclusive".into(),
            ));
        }
        let cache = if self.cache_disabled {
            None
        } else {
            let capacity = self.cache_capacity.unwrap_or(DEFAULT_PLAN_CACHE_CAPACITY);
            if capacity == 0 {
                return Err(ShredError::Config(
                    "plan_cache_capacity must be non-zero; use without_plan_cache() to \
                     disable caching"
                        .into(),
                ));
            }
            Some(PlanCache::new(capacity))
        };
        let engine = match self.database {
            Some(db) => Some(Arc::new(pipeline::engine_from_database(&db)?)),
            None => self.engine,
        };
        Ok(Shredder {
            core: Arc::new(ShredderCore {
                schema: Arc::new(schema),
                engine,
                snapshot: OnceLock::new(),
                backend: self.backend.unwrap_or_else(|| Box::new(SqlEngineBackend)),
                cache,
                verify: self.verify.unwrap_or(cfg!(debug_assertions)),
                metrics: MetricsRegistry::default(),
                profiles: RingSink::default(),
                write_lock: Arc::new(Mutex::new(())),
                subs: Mutex::new(Vec::new()),
                exec_opts: sqlengine::ExecOptions {
                    workers: self.workers.unwrap_or_else(|| {
                        std::thread::available_parallelism()
                            .map(|n| n.get())
                            .unwrap_or(1)
                    }),
                },
            }),
        })
    }
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// A configured query-shredding session. See the [module docs](self) for the
/// lifecycle and an overview of the available backends.
///
/// ```
/// use nrc::builder::*;
/// use shredding::session::Shredder;
/// # use nrc::schema::{Database, Schema, TableSchema};
/// # use nrc::types::BaseType;
/// # use nrc::value::Value;
/// # let schema = Schema::new().with_table(
/// #     TableSchema::new("items", vec![("id", BaseType::Int)]).with_key(vec!["id"]));
/// # let mut db = Database::new(schema);
/// # db.insert_row("items", vec![("id", Value::Int(1))]).unwrap();
/// let session = Shredder::builder().database(db).build().unwrap();
/// let query = for_in("x", table("items"), singleton(project(var("x"), "id")));
/// let prepared = session.prepare(&query).unwrap();
/// let value = session.execute(&prepared).unwrap();
/// assert_eq!(value, Value::bag(vec![Value::Int(1)]));
/// ```
///
/// # Concurrency
///
/// A `Shredder` is `Send + Sync` **and cheaply clonable**: the session state
/// (schema, engine, backend, plan cache) lives behind one `Arc`, so
/// `clone()` is a reference-count bump and every clone shares the same plan
/// cache and the same engine. To serve a parametric workload from N worker
/// threads, prepare once and hand each thread a clone:
///
/// ```
/// use nrc::builder::*;
/// use shredding::session::{Params, Shredder};
/// # use nrc::schema::{Database, Schema, TableSchema};
/// # use nrc::types::BaseType;
/// # use nrc::value::Value;
/// # let schema = Schema::new().with_table(
/// #     TableSchema::new("items", vec![("id", BaseType::Int)]).with_key(vec!["id"]));
/// # let mut db = Database::new(schema);
/// # for id in 1..=4 { db.insert_row("items", vec![("id", Value::Int(id))]).unwrap(); }
/// let session = Shredder::builder().database(db).build().unwrap();
/// let query = for_where(
///     "x",
///     table("items"),
///     eq(project(var("x"), "id"), int_param("wanted")),
///     singleton(project(var("x"), "id")),
/// );
/// let prepared = session.prepare(&query).unwrap();
/// let handles: Vec<_> = (1..=4i64)
///     .map(|wanted| {
///         let session = session.clone();   // shares cache + engine
///         let prepared = prepared.clone(); // plans are immutable + shared
///         std::thread::spawn(move || {
///             session
///                 .execute_bound(&prepared, &Params::new().bind("wanted", wanted))
///                 .unwrap()
///         })
///     })
///     .collect();
/// for (i, h) in handles.into_iter().enumerate() {
///     assert_eq!(h.join().unwrap(), Value::bag(vec![Value::Int(i as i64 + 1)]));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Shredder {
    core: Arc<ShredderCore>,
}

/// The shared state behind every clone of a [`Shredder`].
#[derive(Debug)]
struct ShredderCore {
    schema: Arc<Schema>,
    /// The session's data; `None` only for a schema-only session.
    engine: Option<Arc<Engine>>,
    /// The copy [`Shredder::database`] makes; nothing else reads it.
    snapshot: OnceLock<Database>,
    backend: Box<dyn SqlBackend>,
    cache: Option<PlanCache>,
    /// Fail `prepare` on error-severity diagnostics (see
    /// [`ShredderBuilder::verify`]).
    verify: bool,
    /// Counters and latency histograms, shared by every clone.
    metrics: MetricsRegistry,
    /// The ring buffer of recent profiles behind
    /// [`Shredder::recent_profiles`].
    profiles: RingSink,
    /// Serialises committed write batches (and live-view seeding) so every
    /// subscription observes the same totally ordered sequence of deltas.
    /// Shared with each live view, which takes it to re-seed itself when it
    /// is read stale.
    write_lock: Arc<Mutex<()>>,
    /// The session's live subscriptions. Weak: dropping every clone of a
    /// [`Subscription`] unsubscribes it; dead entries are pruned on the next
    /// committed batch.
    subs: Mutex<Vec<Weak<LiveView>>>,
    /// The worker count a package's stages and stitch fan out on (see
    /// [`ShredderBuilder::workers`]). Live-view maintenance ignores it: a
    /// delta pass runs the batch kernels on the committing thread.
    exec_opts: sqlengine::ExecOptions,
}

impl Shredder {
    /// Start configuring a session.
    pub fn builder() -> ShredderBuilder {
        ShredderBuilder::default()
    }

    /// A session over a database with the default configuration (sqlengine
    /// backend, default plan cache).
    pub fn over(db: Database) -> Result<Shredder, ShredError> {
        Shredder::builder().database(db).build()
    }

    /// The session's schema.
    pub fn schema(&self) -> &Schema {
        &self.core.schema
    }

    /// A copy of the session's data that the first call builds from storage
    /// and later writes do not reach; `None` if there is no data to copy.
    #[deprecated(note = "fixed at the first call; `oracle` reads the committed state")]
    pub fn database(&self) -> Option<&Database> {
        if self.core.snapshot.get().is_none() {
            let _ = self.core.snapshot.set(self.exec_context().db().ok()?);
        }
        self.core.snapshot.get()
    }

    /// The name of the session's backend.
    pub fn backend_name(&self) -> &'static str {
        self.core.backend.name()
    }

    /// The session's SQL engine, whose storage holds the session's data.
    pub fn engine(&self) -> Result<&Engine, ShredError> {
        self.exec_context().engine().map(Arc::as_ref)
    }

    /// A shareable handle to the session's engine, for building further
    /// sessions over the same loaded storage without copying it (pass it to
    /// [`ShredderBuilder::engine`]).
    pub fn shared_engine(&self) -> Result<Arc<Engine>, ShredError> {
        self.exec_context().engine().cloned()
    }

    /// Normalise and plan a query, consulting the plan cache. A second
    /// `prepare` of a query with the same *param-shape* normal form returns
    /// the cached plan without invoking the backend
    /// (`PreparedQuery::from_cache` reports which), and a second `prepare`
    /// of the same param-shape *term* returns it without normalising
    /// either. Integer and string literals are lifted into parameters first
    /// ([`auto_parameterize`]), so two ad-hoc queries differing only in such
    /// constants share one plan.
    pub fn prepare(&self, term: &Term) -> Result<PreparedQuery, ShredError> {
        let (term, defaults) = auto_parameterize(term);
        let obs = QueryObs::new(false);
        let (prepared, from_cache) = self.prepare_stages(&term, &obs)?;
        let (spans, _) = obs.take();
        for span in &spans {
            self.core
                .metrics
                .record(span.stage.metric_name(), span.nanos);
        }
        self.core.metrics.counter("queries.prepared").inc();
        Ok(PreparedQuery {
            backend: self.core.backend.name(),
            schema: self.core.schema.clone(),
            planned: prepared.planned,
            params: prepared.params,
            defaults: Arc::new(defaults),
            diagnostics: prepared.diagnostics,
            from_cache,
            prepare_spans: Arc::new(spans),
            last_exec: Arc::new(Mutex::new(None)),
            cache_stats: self.cache_stats(),
            plans_built: self.core.engine.as_ref().map_or(0, |e| e.plans_built()),
        })
    }

    /// The stages of a prepare, and whether its plan came from the cache.
    fn prepare_stages(&self, term: &Term, obs: &QueryObs) -> Result<(Prepared, bool), ShredError> {
        let cache = self.core.cache.as_ref();
        // Level 1: this term, constants lifted, has been prepared before.
        if let Some(prepared) = cache.and_then(|c| c.lookup_term(term)) {
            return Ok((prepared, true));
        }
        let (normalised, result_type) =
            normalise_with_type_obs(term, &self.core.schema, Some(obs))?;
        let params = Arc::new(param_specs(term)?);
        // Level 2: some term with this normal form has been planned before.
        let key = cache.map(|_| plan_key(&normalised));
        let cached = cache
            .zip(key.as_deref())
            .and_then(|(cache, key)| cache.lookup_plan(key));
        let from_cache = cached.is_some();
        let planned = match cached {
            Some(planned) => planned,
            None => Arc::new(self.plan(term, normalised, result_type, &params, obs)?),
        };
        let diagnostics = Arc::new(self.verified(term, &params, &planned, obs)?);
        let prepared = Prepared {
            planned,
            params,
            diagnostics,
        };
        if let Some((cache, key)) = cache.zip(key) {
            cache.insert(key, term, &prepared);
        }
        Ok((prepared, from_cache))
    }

    /// Hand a normal form to the backend and run the structural checks that
    /// fit the payload over the plan it returns (a `Stage::Verify` span;
    /// [`verified`](Self::verified) records the other).
    fn plan(
        &self,
        term: &Term,
        normalised: NormQuery,
        result_type: Type,
        params: &[ParamSpec],
        obs: &QueryObs,
    ) -> Result<PlannedQuery, ShredError> {
        let req = PlanRequest {
            term,
            normalised: &normalised,
            result_type: &result_type,
            schema: &self.core.schema,
            params,
            obs: Some(obs),
        };
        let plan = self.core.backend.prepare(&req)?;
        let diagnostics = obs.time(Stage::Verify, || {
            if let Ok(compiled) = plan.downcast::<CompiledQuery>() {
                let catalog = pipeline::table_defs_of_schema(&self.core.schema);
                verify::check_compiled(compiled, &catalog, &param_names(params))
            } else if let Ok(shredded) = plan.downcast::<ShreddedMemoryPlan>() {
                verify::check_package(&shredded.package)
            } else {
                Vec::new()
            }
        });
        let mut label = result_type.to_string();
        if label.len() > 120 {
            let mut end = 117;
            while !label.is_char_boundary(end) {
                end -= 1;
            }
            label.truncate(end);
            label.push_str("...");
        }
        Ok(PlannedQuery {
            normalised,
            result_type,
            plan,
            diagnostics,
            label,
        })
    }

    /// The static verdict on preparing `term` to `planned`: the λNRC lint
    /// pass on the source term, then what the structural checks found in
    /// the plan when it was built. With verification enabled (see
    /// [`ShredderBuilder::verify`]) an error-severity finding fails the
    /// prepare — before anything is cached; otherwise the diagnostics are
    /// attached to the handle.
    fn verified(
        &self,
        term: &Term,
        params: &[ParamSpec],
        planned: &PlannedQuery,
        obs: &QueryObs,
    ) -> Result<Diagnostics, ShredError> {
        let mut diagnostics = Diagnostics::from_vec(obs.time(Stage::Verify, || {
            lint::lint_term(term, &param_names(params))
        }));
        diagnostics.extend(planned.diagnostics.iter().cloned());
        if self.core.verify {
            if let Some(first) = diagnostics.first_error() {
                return Err(ShredError::Verification {
                    code: first.code,
                    message: first.to_string(),
                });
            }
        }
        Ok(diagnostics)
    }

    /// Execute a prepared query on this session's data, using the prepared
    /// query's default bindings for every parameter (equivalent to
    /// `execute_bound` with no explicit bindings).
    pub fn execute(&self, prepared: &PreparedQuery) -> Result<Value, ShredError> {
        self.execute_bound(prepared, &Params::new())
    }

    /// Execute a prepared query with explicit parameter bindings. Explicit
    /// bindings override the prepared query's defaults; every declared
    /// parameter must end up bound. This is the hot path for parametric
    /// workloads: the plan is immutable, so re-executing with different
    /// bindings does zero parsing, shredding, SQL generation or physical
    /// planning.
    pub fn execute_bound(
        &self,
        prepared: &PreparedQuery,
        params: &Params,
    ) -> Result<Value, ShredError> {
        self.execute_observed(prepared, params, false)
    }

    /// [`execute_bound`](Self::execute_bound) with per-operator profiling:
    /// the plan runs through the instrumented executor, each plan node
    /// accumulates batches, rows and time, and
    /// [`PreparedQuery::explain_analyze`] renders the actuals. Stage tracing
    /// (per-phase spans) is on for every execution, profiled or not.
    pub fn execute_profiled(
        &self,
        prepared: &PreparedQuery,
        params: &Params,
    ) -> Result<Value, ShredError> {
        self.execute_observed(prepared, params, true)
    }

    /// Reject a prepared query that belongs to a different backend or schema
    /// than this session's.
    fn guard_prepared(&self, prepared: &PreparedQuery) -> Result<(), ShredError> {
        if prepared.backend != self.core.backend.name() {
            return Err(ShredError::Config(format!(
                "prepared query belongs to the {} backend but this session uses {}",
                prepared.backend,
                self.core.backend.name()
            )));
        }
        if !Arc::ptr_eq(&prepared.schema, &self.core.schema)
            && *prepared.schema != *self.core.schema
        {
            return Err(ShredError::Config(
                "prepared query was planned against a different schema".into(),
            ));
        }
        Ok(())
    }

    fn execute_observed(
        &self,
        prepared: &PreparedQuery,
        params: &Params,
        profile: bool,
    ) -> Result<Value, ShredError> {
        self.guard_prepared(prepared)?;
        let bindings = resolve_bindings(&prepared.params, &prepared.defaults, params)?;
        let obs = QueryObs::new(profile);
        let start = Instant::now();
        let result = self.core.backend.execute(
            &prepared.planned.plan,
            &self.exec_context_obs(Some(&obs)),
            &bindings,
        );
        let total_nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        match &result {
            Ok(_) => self.record_execution(prepared, &obs, profile, total_nanos),
            Err(_) => self.core.metrics.counter("queries.failed").inc(),
        }
        result
    }

    /// Fold a successful execution's spans and operator actuals into the
    /// registry, stash the actuals on the prepared handle and keep the
    /// finished profile among the recent ones.
    fn record_execution(
        &self,
        prepared: &PreparedQuery,
        obs: &QueryObs,
        profile: bool,
        total_nanos: u64,
    ) {
        let (spans, operators) = obs.take();
        let metrics = &self.core.metrics;
        metrics.counter("queries.executed").inc();
        metrics.record("query.total", total_nanos);
        for span in &spans {
            metrics.record(span.stage.metric_name(), span.nanos);
        }
        if profile {
            let mut per_stage: Vec<Vec<sqlengine::OpActuals>> =
                vec![Vec::new(); prepared.planned.plan.stage_count().max(1)];
            for op in &operators {
                metrics.record(&format!("operator.{}", op.op), op.nanos);
                if op.stage >= per_stage.len() {
                    per_stage.resize_with(op.stage + 1, Vec::new);
                }
                let stage = &mut per_stage[op.stage];
                if stage.len() <= op.node {
                    stage.resize_with(op.node + 1, Default::default);
                }
                stage[op.node] = sqlengine::OpActuals {
                    batches: op.batches,
                    rows_in: op.rows_in,
                    rows_out: op.rows_out,
                    nanos: op.nanos,
                };
            }
            if !operators.is_empty() {
                *prepared
                    .last_exec
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(per_stage);
            }
        }
        let mut all_spans = prepared.prepare_spans.as_ref().clone();
        all_spans.extend(spans);
        self.core.profiles.record(QueryProfile {
            query: prepared.planned.label.clone(),
            backend: prepared.backend.to_string(),
            cached: prepared.from_cache,
            profiled: profile,
            spans: all_spans,
            operators,
            total_nanos,
        });
    }

    /// Prepare (or fetch from the cache) and execute in one call.
    pub fn run(&self, term: &Term) -> Result<Value, ShredError> {
        let prepared = self.prepare(term)?;
        self.execute(&prepared)
    }

    /// Subscribe to a prepared query's result: returns a live
    /// [`Subscription`] whose [`value`](Subscription::value) is kept up to
    /// date across every write batch committed through
    /// [`apply_batch`](Self::apply_batch) — incrementally, without
    /// re-running the query from scratch. Each shredded stage keeps a delta
    /// executor over its physical plan; a committed write flows through the
    /// operators as a signed row delta and the stitcher re-materialises only
    /// the nested subtrees whose `(oidx_tag, oidx_ord)` groups changed.
    /// Writes outside the incremental fragment transparently fall back to
    /// recompute-from-scratch ([`Subscription::reseeds`] counts those).
    ///
    /// Subscriptions require the default [`SqlEngineBackend`]: they maintain
    /// the compiled SQL pipeline itself. Every declared parameter must be
    /// covered by the prepared query's defaults; use
    /// `subscribe_bound` to bind explicitly.
    /// Dropping every clone of the handle unsubscribes it.
    ///
    /// ```
    /// use nrc::builder::*;
    /// use shredding::delta::WriteBatch;
    /// use shredding::session::Shredder;
    /// use sqlengine::SqlValue;
    /// # use nrc::schema::{Database, Schema, TableSchema};
    /// # use nrc::types::BaseType;
    /// # use nrc::value::Value;
    /// # let schema = Schema::new().with_table(
    /// #     TableSchema::new("items", vec![("id", BaseType::Int)]).with_key(vec!["id"]));
    /// # let mut db = Database::new(schema);
    /// # db.insert_row("items", vec![("id", Value::Int(1))]).unwrap();
    /// let session = Shredder::over(db).unwrap();
    /// let query = for_in("x", table("items"), singleton(project(var("x"), "id")));
    /// let prepared = session.prepare(&query).unwrap();
    /// let live = session.subscribe(&prepared).unwrap();
    /// assert_eq!(live.value().unwrap(), Value::bag(vec![Value::Int(1)]));
    ///
    /// session
    ///     .apply_batch(&WriteBatch::new().insert("items", vec![SqlValue::Int(2)]))
    ///     .unwrap();
    /// assert_eq!(
    ///     live.value().unwrap(),
    ///     Value::bag(vec![Value::Int(1), Value::Int(2)])
    /// );
    /// ```
    pub fn subscribe(&self, prepared: &PreparedQuery) -> Result<Subscription, ShredError> {
        self.subscribe_bound(prepared, &Params::new())
    }

    /// [`subscribe`](Self::subscribe) with explicit parameter bindings,
    /// fixed for the lifetime of the subscription (mirroring
    /// [`execute_bound`](Self::execute_bound)).
    pub(crate) fn subscribe_bound(
        &self,
        prepared: &PreparedQuery,
        params: &Params,
    ) -> Result<Subscription, ShredError> {
        self.guard_prepared(prepared)?;
        let compiled = prepared
            .planned
            .plan
            .downcast::<CompiledQuery>()
            .map_err(|_| {
                ShredError::Config(
                    "subscriptions require the sqlengine backend: only compiled SQL \
                     pipelines can be maintained incrementally"
                        .into(),
                )
            })?
            .clone();
        let bindings = resolve_bindings(&prepared.params, &prepared.defaults, params)?;
        let sql_params = bindings.to_sql_params()?;
        let engine = self.shared_engine()?;
        // Hold the commit lock while seeding and registering, so no write
        // batch can slip between the snapshot the view is seeded from and
        // the first delta it observes.
        let commit = Arc::clone(&self.core.write_lock);
        let _commit = commit
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let view = Arc::new(LiveView::new(
            Arc::new(compiled),
            sql_params,
            engine,
            Arc::clone(&commit),
        )?);
        self.live_views().push(Arc::downgrade(&view));
        Ok(Subscription { inner: view })
    }

    /// Atomically commit a write batch to the session's engine storage and
    /// maintain every live subscription with the emitted delta. Returns the
    /// typed per-table delta (insertion/retraction multisets). On a
    /// validation error nothing is applied.
    ///
    /// Observability: bumps the `writes.applied` counter, adds the delta's
    /// signed row count to `delta.rows`, records one `stage.commit`
    /// histogram sample for the storage commit and one `stage.maintain`
    /// sample per maintained subscription.
    ///
    /// Once storage is committed, *every* live subscription is maintained
    /// before anything is reported: a view whose maintenance fails is left
    /// flagged stale (it re-seeds from storage before it serves another
    /// value) and the first such error is returned — the batch itself stays
    /// committed.
    ///
    /// Writes go to engine storage, the session's one copy of the data, which
    /// every backend and [`oracle`](Self::oracle) read. A `NULL` written
    /// there past the session, which λNRC cannot express, makes the oracle a
    /// typed decode error.
    ///
    /// A row that puts `NULL` into a column of its table's declared key is
    /// rejected with [`ShredError::NullKey`] before anything is applied:
    /// SQL generation indexes a bag by its generator's key.
    pub fn apply_batch(&self, batch: &WriteBatch) -> Result<StorageDelta, ShredError> {
        let engine = self.engine()?;
        reject_null_keys(&self.core.schema, batch)?;
        let _commit = self
            .core
            .write_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let start = Instant::now();
        let delta = engine.apply_batch(batch)?;
        let metrics = &self.core.metrics;
        metrics
            .histogram(Stage::Commit.metric_name())
            .record_duration(start.elapsed());
        metrics.counter("writes.applied").inc();
        metrics.counter("delta.rows").add(delta.row_count() as u64);
        let live: Vec<Arc<LiveView>> = {
            let mut subs = self.live_views();
            subs.retain(|w| w.strong_count() > 0);
            subs.iter().filter_map(Weak::upgrade).collect()
        };
        let mut failed = None;
        if !live.is_empty() {
            let storage = engine.storage();
            for view in live {
                let start = Instant::now();
                let maintained = view.maintain(&storage, &delta);
                metrics.record(
                    Stage::Maintain.metric_name(),
                    start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                );
                if let Err(e) = maintained {
                    failed.get_or_insert(e);
                }
            }
        }
        failed.map_or(Ok(delta), Err)
    }

    /// The registry of live subscriptions. A panic while it was held cannot
    /// have left the list half-written (it is only pushed to and pruned), so
    /// a poisoned guard is recovered, as `write_lock`'s is.
    fn live_views(&self) -> std::sync::MutexGuard<'_, Vec<Weak<LiveView>>> {
        self.core
            .subs
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Evaluate a query directly with the nested reference semantics N⟦−⟧
    /// (no shredding, no SQL). The ground truth every backend is validated
    /// against (Theorem 4).
    pub fn oracle(&self, term: &Term) -> Result<Value, ShredError> {
        self.oracle_bound(term, &Params::new())
    }

    /// The reference semantics with explicit parameter bindings — the ground
    /// truth for bound execution (used by the differential test suites).
    pub fn oracle_bound(&self, term: &Term, params: &Params) -> Result<Value, ShredError> {
        let cx = self.exec_context();
        let bindings: nrc::ParamBindings = params
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect();
        nrc::eval_with_params(term, &cx.db()?, &bindings).map_err(ShredError::Eval)
    }

    /// Counters describing the plan cache (all zero when caching is
    /// disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.core
            .cache
            .as_ref()
            .map(PlanCache::stats)
            .unwrap_or_default()
    }

    /// Drop every cached plan, keeping the hit/miss counters.
    pub fn clear_plan_cache(&self) {
        if let Some(cache) = &self.core.cache {
            cache.clear();
        }
    }

    /// The session's metrics registry: counters (`queries.prepared`,
    /// `queries.executed`, `queries.failed`), per-stage latency histograms
    /// (`stage.execute`, `stage.stitch`, …), per-operator-kind histograms
    /// from profiled runs (`operator.HashJoin`, …) and the end-to-end
    /// `query.total` histogram. Shared by every clone of the session.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.core.metrics
    }

    /// A point-in-time, JSON-serialisable view of the registry, with the
    /// plan-cache counters and the engine's plan-compilation counter folded
    /// in as gauges (`cache.hits`, `cache.misses`, `cache.evictions`,
    /// `cache.entries`, `engine.plans_built`).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let metrics = &self.core.metrics;
        let stats = self.cache_stats();
        let clamp = |v: u64| v.min(i64::MAX as u64) as i64;
        metrics.gauge("cache.hits").set(clamp(stats.hits));
        metrics.gauge("cache.misses").set(clamp(stats.misses));
        metrics.gauge("cache.evictions").set(clamp(stats.evictions));
        metrics
            .gauge("cache.entries")
            .set(clamp(stats.entries as u64));
        let plans = self.core.engine.as_ref().map_or(0, |e| e.plans_built());
        metrics.gauge("engine.plans_built").set(clamp(plans));
        metrics.snapshot()
    }

    /// The most recent query profiles (oldest first) from the session's
    /// in-memory ring buffer — one [`QueryProfile`] per completed execute
    /// call, holding the per-stage spans (and per-operator actuals when the
    /// call was profiled).
    pub fn recent_profiles(&self) -> Vec<QueryProfile> {
        self.core.profiles.recent()
    }

    fn exec_context(&self) -> ExecContext<'_> {
        self.exec_context_obs(None)
    }

    fn exec_context_obs<'a>(&'a self, obs: Option<&'a QueryObs>) -> ExecContext<'a> {
        ExecContext {
            schema: &self.core.schema,
            engine: self.core.engine.as_ref(),
            obs,
            exec_opts: self.core.exec_opts,
        }
    }
}

/// Reject a batch that writes `NULL` into a declared key column of a table
/// the schema knows (rows are in the schema's column order).
fn reject_null_keys(schema: &Schema, batch: &WriteBatch) -> Result<(), ShredError> {
    for op in &batch.ops {
        let (table, row) = match op {
            WriteOp::Insert { table, row } | WriteOp::Update { table, row, .. } => (table, row),
            WriteOp::Delete { .. } | WriteOp::DeleteByKey { .. } => continue,
        };
        let Some(def) = schema.table(table) else {
            continue;
        };
        for key in &def.key {
            let col = def.columns.iter().position(|(c, _)| c == key);
            if col.and_then(|i| row.get(i)).is_some_and(SqlValue::is_null) {
                return Err(ShredError::NullKey {
                    table: table.clone(),
                    column: key.clone(),
                });
            }
        }
    }
    Ok(())
}

/// The plan-cache key of a normal form. Normal forms are small, so their
/// canonical debug rendering doubles as a cheap structural key. Parameters
/// appear by name, never by value, so the key identifies a *param shape*:
/// all bindings of one prepared shape share a single cache entry.
fn plan_key(normalised: &NormQuery) -> String {
    format!("{:?}", normalised)
}

fn param_names(params: &[ParamSpec]) -> Vec<String> {
    params.iter().map(|p| p.name.clone()).collect()
}

/// Collect and validate the declared parameters of a term: a name declared
/// at two different base types is a conflict. Collection happens on the
/// source term (not the normal form) so that a parameter normalisation
/// eliminates — e.g. one bound inside a beta-reduced dead branch — is still
/// declared and bindable; backends simply ignore bindings their plan never
/// references.
fn param_specs(term: &Term) -> Result<Vec<ParamSpec>, ShredError> {
    let raw = term.params();
    let mut specs: Vec<ParamSpec> = Vec::with_capacity(raw.len());
    for (name, ty) in raw {
        if let Some(existing) = specs.iter().find(|s| s.name == name) {
            if existing.ty != ty {
                return Err(ShredError::ParamTypeMismatch {
                    name,
                    expected: existing.ty.to_string(),
                    found: format!("a second declaration at type {}", ty),
                });
            }
            continue;
        }
        specs.push(ParamSpec { name, ty });
    }
    Ok(specs)
}

/// Overlay explicit bindings on the prepared query's defaults and validate
/// the result against the declared parameters: unknown names and type
/// mismatches are rejected, and every declared parameter must be bound.
fn resolve_bindings(
    specs: &[ParamSpec],
    defaults: &Params,
    explicit: &Params,
) -> Result<Bindings, ShredError> {
    for (name, value) in explicit.iter() {
        let spec =
            specs
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| ShredError::UnknownParam {
                    name: name.to_string(),
                    declared: specs.iter().map(|s| s.name.clone()).collect(),
                })?;
        match value.base_type() {
            Some(ty) if ty == spec.ty => {}
            Some(ty) => {
                return Err(ShredError::ParamTypeMismatch {
                    name: name.to_string(),
                    expected: spec.ty.to_string(),
                    found: ty.to_string(),
                })
            }
            None => {
                return Err(ShredError::ParamTypeMismatch {
                    name: name.to_string(),
                    expected: spec.ty.to_string(),
                    found: "a non-base value (parameters are base-typed)".to_string(),
                })
            }
        }
    }
    let mut values = Vec::with_capacity(specs.len());
    for spec in specs {
        let value = explicit
            .get(&spec.name)
            .or_else(|| defaults.get(&spec.name))
            .ok_or_else(|| ShredError::MissingParam {
                name: spec.name.clone(),
                expected: spec.ty,
            })?;
        values.push((spec.name.clone(), value.clone()));
    }
    Ok(Bindings { values })
}

/// Lift integer and string literals out of a term, replacing each with a
/// fresh typed parameter and recording the literal as that parameter's
/// default binding. Two ad-hoc terms differing only in such constants
/// therefore normalise to the same param-shape normal form and share one
/// cached plan. Boolean and unit constants stay inline: normalisation uses
/// boolean constants to prune conditionals, so lifting them would change
/// plan shapes (and `true`/`false` carry no cardinality anyway).
pub fn auto_parameterize(term: &Term) -> (Term, Params) {
    let existing: Vec<String> = term.params().into_iter().map(|(n, _)| n).collect();
    let mut next = 0usize;
    let mut defaults = Params::new();
    let lifted = lift_literals(term, &existing, &mut next, &mut defaults);
    (lifted, defaults)
}

fn lift_literals(
    term: &Term,
    existing: &[String],
    next: &mut usize,
    defaults: &mut Params,
) -> Term {
    use nrc::term::Constant as C;
    match term {
        Term::Const(c @ (C::Int(_) | C::String(_))) => {
            let name = loop {
                *next += 1;
                let candidate = format!("__p{}", next);
                if !existing.contains(&candidate) {
                    break candidate;
                }
            };
            defaults.set(&name, Value::from_constant(c));
            Term::Param(name, c.type_of())
        }
        Term::Var(_) | Term::Const(_) | Term::Param(_, _) | Term::Table(_) | Term::EmptyBag(_) => {
            term.clone()
        }
        Term::PrimApp(op, args) => Term::PrimApp(
            *op,
            args.iter()
                .map(|a| lift_literals(a, existing, next, defaults))
                .collect(),
        ),
        Term::If(c, t, e) => Term::If(
            Box::new(lift_literals(c, existing, next, defaults)),
            Box::new(lift_literals(t, existing, next, defaults)),
            Box::new(lift_literals(e, existing, next, defaults)),
        ),
        Term::Lam(x, b) => Term::Lam(
            x.clone(),
            Box::new(lift_literals(b, existing, next, defaults)),
        ),
        Term::App(f, a) => Term::App(
            Box::new(lift_literals(f, existing, next, defaults)),
            Box::new(lift_literals(a, existing, next, defaults)),
        ),
        Term::Record(fields) => Term::Record(
            fields
                .iter()
                .map(|(l, t)| (l.clone(), lift_literals(t, existing, next, defaults)))
                .collect(),
        ),
        Term::Project(t, l) => Term::Project(
            Box::new(lift_literals(t, existing, next, defaults)),
            l.clone(),
        ),
        Term::Empty(t) => Term::Empty(Box::new(lift_literals(t, existing, next, defaults))),
        Term::Singleton(t) => Term::Singleton(Box::new(lift_literals(t, existing, next, defaults))),
        Term::Union(l, r) => Term::Union(
            Box::new(lift_literals(l, existing, next, defaults)),
            Box::new(lift_literals(r, existing, next, defaults)),
        ),
        Term::For(x, s, b) => Term::For(
            x.clone(),
            Box::new(lift_literals(s, existing, next, defaults)),
            Box::new(lift_literals(b, existing, next, defaults)),
        ),
    }
}

// ---------------------------------------------------------------------------
// The built-in backends
// ---------------------------------------------------------------------------

/// The default backend: shred the query into nesting-degree-many flat SQL
/// queries, execute them on the in-memory [`sqlengine`], and stitch the flat
/// results back into a nested value (Figure 1(c) of the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct SqlEngineBackend;

impl SqlBackend for SqlEngineBackend {
    fn name(&self) -> &'static str {
        "sqlengine"
    }

    fn prepare(&self, req: &PlanRequest<'_>) -> Result<BackendPlan, ShredError> {
        let compiled = pipeline::compile_normalised_opts(
            req.normalised.clone(),
            req.result_type.clone(),
            req.schema,
            req.obs,
            true,
        )?;
        Ok(BackendPlan::lazy(
            compiled.query_count(),
            compiled,
            explain_compiled,
        ))
    }

    fn execute(
        &self,
        plan: &BackendPlan,
        cx: &ExecContext<'_>,
        bindings: &Bindings,
    ) -> Result<Value, ShredError> {
        let compiled: &CompiledQuery = plan.downcast()?;
        let params = bindings.to_sql_params()?;
        pipeline::execute_bound_obs_opts(compiled, cx.engine()?, &params, cx.obs(), cx.exec_opts())
    }
}

/// The explain entries of a compiled SQL pipeline: each stage's SQL text and
/// physical plan, pretty-printed.
fn explain_compiled(compiled: &CompiledQuery) -> Vec<StageExplain> {
    compiled
        .stages
        .annotations()
        .into_iter()
        .map(|s| StageExplain {
            path: s.path.to_string(),
            sql: Some(sqlengine::print_query(&s.sql)),
            physical: Some(s.plan.to_string()),
            columns: s.layout.columns().to_vec(),
            rewrites: s.opt.rewrites.clone(),
        })
        .collect()
}

/// Payload of [`ShreddedMemoryBackend`] plans.
#[derive(Debug, Clone)]
struct ShreddedMemoryPlan {
    normalised: NormQuery,
    package: Package<ShreddedQuery>,
}

/// The in-memory shredded semantics of Figure 5 under one [`IndexScheme`]
/// of Section 6 — the reference implementation of shredding itself, used to
/// validate the SQL path and to compare indexing schemes. The scheme is read
/// only when a plan executes, so one plan runs under any scheme; the default
/// is [`IndexScheme::Flat`].
#[derive(Debug, Clone, Copy)]
pub struct ShreddedMemoryBackend {
    scheme: IndexScheme,
}

impl ShreddedMemoryBackend {
    /// The shredded semantics under `scheme`.
    pub fn new(scheme: IndexScheme) -> ShreddedMemoryBackend {
        ShreddedMemoryBackend { scheme }
    }
}

impl Default for ShreddedMemoryBackend {
    fn default() -> ShreddedMemoryBackend {
        ShreddedMemoryBackend::new(IndexScheme::Flat)
    }
}

impl SqlBackend for ShreddedMemoryBackend {
    fn name(&self) -> &'static str {
        "shredded-memory"
    }

    fn prepare(&self, req: &PlanRequest<'_>) -> Result<BackendPlan, ShredError> {
        if !matches!(req.result_type, Type::Bag(_)) {
            return Err(ShredError::NotAQuery(req.result_type.to_string()));
        }
        let mut stages = Vec::new();
        let package = package_by(req.result_type, &mut |path| {
            let shredded = shred_query(req.normalised, path)?;
            let shredded_type = shred_type(req.result_type, path)?;
            stages.push(StageExplain {
                path: path.to_string(),
                sql: None,
                physical: None,
                columns: ResultLayout::new(&shredded_type.inner).columns().to_vec(),
                rewrites: Vec::new(),
            });
            Ok::<ShreddedQuery, ShredError>(shredded)
        })?;
        Ok(BackendPlan::new(
            stages,
            ShreddedMemoryPlan {
                normalised: req.normalised.clone(),
                package,
            },
        ))
    }

    fn execute(
        &self,
        plan: &BackendPlan,
        cx: &ExecContext<'_>,
        bindings: &Bindings,
    ) -> Result<Value, ShredError> {
        let payload: &ShreddedMemoryPlan = plan.downcast()?;
        let db = &cx.db()?;
        let scheme = self.scheme;
        // The in-memory evaluators take values by substitution: bind the
        // parameters into the (cheap, already-shredded) structures. No
        // normalisation or shredding is redone.
        let (normalised, package);
        let (normalised_ref, package_ref) = if bindings.is_empty() {
            (&payload.normalised, &payload.package)
        } else {
            let consts = bindings.to_constants();
            normalised = payload.normalised.bind_params(&consts);
            package = payload.package.map(&mut |q| q.bind_params(&consts));
            (&normalised, &package)
        };
        let results = obs::time_maybe(cx.obs(), Stage::Execute, || {
            let tables = IndexTables::compute(normalised_ref, db)?;
            if !tables.is_valid(scheme) {
                return Err(ShredError::InvalidIndexing(format!(
                    "the {} indexing scheme is not valid for this query and database",
                    scheme
                )));
            }
            eval_shredded_package(package_ref, db, scheme, &tables)
        })?;
        obs::time_maybe(cx.obs(), Stage::Stitch, || stitch_rows(results, scheme))
    }
}

/// The correctness oracle: evaluate the query directly with the nested
/// reference semantics N⟦−⟧ of Figure 2. No shredding, no SQL — every other
/// backend must agree with this one (Theorem 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct NestedOracleBackend;

impl SqlBackend for NestedOracleBackend {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn prepare(&self, req: &PlanRequest<'_>) -> Result<BackendPlan, ShredError> {
        Ok(BackendPlan::new(Vec::new(), req.term.clone()))
    }

    fn execute(
        &self,
        plan: &BackendPlan,
        cx: &ExecContext<'_>,
        bindings: &Bindings,
    ) -> Result<Value, ShredError> {
        let term: &Term = plan.downcast()?;
        obs::time_maybe(cx.obs(), Stage::Execute, || {
            nrc::eval_with_params(term, &cx.db()?, &bindings.to_value_map())
                .map_err(ShredError::Eval)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    }

    fn db() -> Database {
        let mut db = Database::new(schema());
        for (id, name) in [(1, "Product"), (2, "Research")] {
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
        db
    }

    fn nested_query() -> Term {
        for_in(
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
        )
    }

    #[test]
    fn the_default_session_runs_nested_queries() {
        let session = Shredder::over(db()).unwrap();
        let q = nested_query();
        let result = session.run(&q).unwrap();
        let reference = session.oracle(&q).unwrap();
        assert!(result.multiset_eq(&reference));
    }

    #[test]
    fn prepare_hits_the_plan_cache_on_the_second_call() {
        let session = Shredder::over(db()).unwrap();
        let q = nested_query();
        let first = session.prepare(&q).unwrap();
        assert!(!first.from_cache());
        let second = session.prepare(&q).unwrap();
        assert!(second.from_cache());
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // The cached plan still executes correctly.
        let a = session.execute(&first).unwrap();
        let b = session.execute(&second).unwrap();
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn lru_eviction_keeps_the_cache_within_capacity() {
        let session = Shredder::builder()
            .database(db())
            .plan_cache_capacity(1)
            .build()
            .unwrap();
        let q1 = nested_query();
        let q2 = for_in(
            "d",
            table("departments"),
            singleton(project(var("d"), "name")),
        );
        session.prepare(&q1).unwrap();
        session.prepare(&q2).unwrap(); // evicts q1
        assert!(!session.prepare(&q1).unwrap().from_cache());
        let stats = session.cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn explain_shows_sql_and_layout() {
        let session = Shredder::over(db()).unwrap();
        let prepared = session.prepare(&nested_query()).unwrap();
        assert_eq!(prepared.query_count(), 2);
        let explain = prepared.explain().to_string();
        assert!(explain.contains("backend=sqlengine"));
        assert!(explain.contains("SELECT"), "explain output:\n{}", explain);
        assert!(explain.contains("stage 2"));
    }

    #[test]
    fn builder_rejects_an_empty_configuration() {
        assert!(matches!(
            Shredder::builder().build(),
            Err(ShredError::Config(_))
        ));
    }

    #[test]
    fn builder_rejects_a_mismatched_schema() {
        let other = Schema::new().with_table(TableSchema::new("t", vec![("x", BaseType::Int)]));
        assert!(matches!(
            Shredder::builder().schema(other).database(db()).build(),
            Err(ShredError::Config(_))
        ));
    }

    /// A session has one copy of its data: a database and an engine given
    /// together could disagree, the oracle answering from one while
    /// executions read the other.
    #[test]
    fn builder_rejects_a_database_together_with_an_engine() {
        let engine = Shredder::over(db()).unwrap().shared_engine().unwrap();
        let err = Shredder::builder()
            .database(db())
            .engine(engine)
            .build()
            .unwrap_err();
        assert!(matches!(&err, ShredError::Config(m) if m.contains("mutually exclusive")));
    }

    #[test]
    fn builder_rejects_a_zero_capacity_cache() {
        assert!(matches!(
            Shredder::builder()
                .database(db())
                .plan_cache_capacity(0)
                .build(),
            Err(ShredError::Config(_))
        ));
    }

    #[test]
    fn schema_only_sessions_prepare_but_do_not_execute() {
        let session = Shredder::builder().schema(schema()).build().unwrap();
        let prepared = session.prepare(&nested_query()).unwrap();
        assert_eq!(prepared.query_count(), 2);
        assert!(matches!(
            session.execute(&prepared),
            Err(ShredError::Config(_))
        ));
    }

    #[test]
    fn foreign_prepared_queries_are_rejected() {
        let sql = Shredder::over(db()).unwrap();
        let oracle = Shredder::builder()
            .database(db())
            .backend(Box::new(NestedOracleBackend))
            .build()
            .unwrap();
        let prepared = sql.prepare(&nested_query()).unwrap();
        assert!(matches!(
            oracle.execute(&prepared),
            Err(ShredError::Config(_))
        ));
    }

    #[test]
    fn all_builtin_backends_agree() {
        let q = nested_query();
        let reference = Shredder::over(db()).unwrap().oracle(&q).unwrap();
        for backend in [
            Box::new(SqlEngineBackend) as Box<dyn SqlBackend>,
            Box::new(ShreddedMemoryBackend::default()),
            Box::new(NestedOracleBackend),
        ] {
            let session = Shredder::builder()
                .database(db())
                .backend(backend)
                .build()
                .unwrap();
            let v = session.run(&q).unwrap();
            assert!(
                v.multiset_eq(&reference),
                "backend {} disagrees",
                session.backend_name()
            );
        }
    }

    #[test]
    fn the_shredded_memory_backend_honours_the_index_scheme() {
        let q = nested_query();
        let reference = Shredder::over(db()).unwrap().oracle(&q).unwrap();
        for scheme in IndexScheme::ALL {
            let session = Shredder::builder()
                .database(db())
                .backend(Box::new(ShreddedMemoryBackend::new(scheme)))
                .build()
                .unwrap();
            let v = session.run(&q).unwrap();
            assert!(v.multiset_eq(&reference), "scheme {}", scheme);
        }
    }

    #[test]
    fn subscriptions_track_writes_and_match_recompute() {
        use sqlengine::SqlValue;
        let session = Shredder::over(db()).unwrap();
        let prepared = session.prepare(&nested_query()).unwrap();
        let live = session.subscribe(&prepared).unwrap();
        assert_eq!(live.generation(), 0);
        assert!(live
            .value()
            .unwrap()
            .multiset_eq(&session.execute(&prepared).unwrap()));

        let batch = WriteBatch::new()
            .insert(
                "employees",
                vec![
                    SqlValue::Int(4),
                    SqlValue::str("Research"),
                    SqlValue::str("Dana"),
                    SqlValue::Int(700),
                ],
            )
            .delete_by_key("employees", vec![SqlValue::Int(2)]);
        let delta = session.apply_batch(&batch).unwrap();
        assert_eq!(delta.row_count(), 2);

        let recomputed = session.execute(&prepared).unwrap();
        assert!(live.value().unwrap().multiset_eq(&recomputed));
        assert_eq!(live.generation(), 1);
        assert_eq!(live.reseeds(), 0);

        let snapshot = session.metrics_snapshot();
        assert_eq!(snapshot.counter("writes.applied"), Some(1));
        assert_eq!(snapshot.counter("delta.rows"), Some(2));
        assert!(snapshot.histogram("stage.maintain").is_some());
    }

    #[test]
    fn dropped_subscriptions_are_pruned_on_the_next_commit() {
        use sqlengine::SqlValue;
        let session = Shredder::over(db()).unwrap();
        let prepared = session.prepare(&nested_query()).unwrap();
        let live = session.subscribe(&prepared).unwrap();
        drop(live);
        // The dead subscription must not be maintained (or crash).
        session
            .apply_batch(&WriteBatch::new().insert(
                "departments",
                vec![SqlValue::Int(3), SqlValue::str("Design")],
            ))
            .unwrap();
        assert_eq!(
            session.core.subs.lock().unwrap().len(),
            0,
            "dead weak handles should be pruned"
        );
    }

    #[test]
    fn subscriptions_require_the_sqlengine_backend() {
        let session = Shredder::builder()
            .database(db())
            .backend(Box::new(ShreddedMemoryBackend::default()))
            .build()
            .unwrap();
        let prepared = session.prepare(&nested_query()).unwrap();
        assert!(matches!(
            session.subscribe(&prepared),
            Err(ShredError::Config(_))
        ));
    }
}
