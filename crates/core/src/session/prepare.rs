//! Prepare and verification: a term in, a [`PreparedQuery`] handle out —
//! auto-parameterization, the plan-cache lookups, normalisation, the
//! backend's `prepare`, the static checks, and the handle's explain
//! output. Owns the verdict that fails a prepare; must not execute a plan.

use super::backend::ShreddedMemoryPlan;
use super::cache::{plan_key, Prepared};
use super::params::{param_names, param_specs};
use super::{auto_parameterize, BackendPlan, CacheStats, ParamSpec, Params, PlanRequest};
use super::{Shredder, StageExplain};
use crate::error::ShredError;
use crate::nf::NormQuery;
use crate::normalise::normalise_with_type_obs;
use crate::pipeline::{self, CompiledQuery};
use crate::verify;
use analysis::{lint, Diagnostic, Diagnostics};
use nrc::schema::Schema;
use nrc::term::Term;
use nrc::types::Type;
use obs::{QueryObs, Span, Stage};
use std::fmt;
use std::sync::{Arc, Mutex};

/// What planning a normal form produces, shared by every handle prepared from
/// it and by the plan cache: nothing here depends on which source term (or
/// which constants) asked.
#[derive(Debug)]
pub(super) struct PlannedQuery {
    normalised: NormQuery,
    result_type: Type,
    pub(super) plan: BackendPlan,
    /// What the structural checks found in the plan: the cross-stage
    /// [`verify::check_compiled`] pass for SQL-pipeline plans, the index
    /// tree check for shredded-memory plans, nothing for opaque payloads
    /// (oracle, baselines).
    diagnostics: Vec<Diagnostic>,
    /// The name of this query's executions in profiles: its result type,
    /// cut to 120 bytes.
    pub(super) label: String,
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
    pub(super) backend: &'static str,
    pub(super) schema: Arc<Schema>,
    pub(super) planned: Arc<PlannedQuery>,
    pub(super) params: Arc<Vec<ParamSpec>>,
    pub(super) defaults: Arc<Params>,
    /// The lint findings for the source term, then the plan's.
    diagnostics: Arc<Diagnostics>,
    pub(super) from_cache: bool,
    /// Spans recorded while preparing this handle (typecheck/normalise and,
    /// on cache misses, shred/sqlgen/plan/verify).
    pub(super) prepare_spans: Arc<Vec<Span>>,
    /// Per-stage, per-node actuals of the most recent *profiled* execution
    /// of this handle, shared across clones (plans are immutable, so the
    /// actuals ride in a side slot rather than on the plan itself).
    pub(super) last_exec: Arc<Mutex<Option<Vec<Vec<sqlengine::OpActuals>>>>>,
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
    /// [`ShredderBuilder::verify`](super::ShredderBuilder::verify)`(true)`), error-severity diagnostics have
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

impl Shredder {
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
}
