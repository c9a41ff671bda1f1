//! The [`SqlBackend`] trait and the built-in backends: [`SqlEngineBackend`]
//! (shred to SQL, execute, stitch — the paper's Figure 1(c)),
//! [`ShreddedMemoryBackend`] (Figure 5's shredded semantics, no SQL) and
//! [`NestedOracleBackend`] (N⟦−⟧, the oracle the others are checked
//! against). Owns the contract a backend keeps, which the `baselines` crate
//! keeps too; must not cache, verify or keep per-call state.

use super::{Bindings, ParamSpec, Shredder};
use crate::error::ShredError;
use crate::flatten::ResultLayout;
use crate::nf::NormQuery;
use crate::pipeline::{self, CompiledQuery};
use crate::semantics::{eval_shredded_package, IndexScheme, IndexTables};
use crate::shred::{package_by, shred_query, shred_type, Package, ShreddedQuery};
use crate::stitch::stitch_rows;
use nrc::schema::{Database, Schema};
use nrc::term::Term;
use nrc::types::Type;
use nrc::value::Value;
use obs::{QueryObs, Stage};
use sqlengine::Engine;
use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

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
    /// The worker count a package's stages and stitch fan out on
    /// ([`ShredderBuilder::workers`](super::ShredderBuilder::workers)).
    exec_opts: sqlengine::ExecOptions,
}

impl<'a> ExecContext<'a> {
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
/// plan cache, every [`PreparedQuery`](super::PreparedQuery) handle and every thread executing
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

impl Shredder {
    pub(super) fn exec_context<'a>(&'a self, obs: Option<&'a QueryObs>) -> ExecContext<'a> {
        ExecContext {
            schema: &self.core.schema,
            engine: self.core.engine.as_ref(),
            obs,
            exec_opts: self.core.exec_opts,
        }
    }
}

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
        pipeline::execute_bound_obs_opts(compiled, cx.engine()?, &params, cx.obs(), cx.exec_opts)
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
pub(super) struct ShreddedMemoryPlan {
    normalised: NormQuery,
    pub(super) package: Package<ShreddedQuery>,
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
