//! The builder: the eight settings a session is configured with and the
//! checks [`ShredderBuilder::build`] makes before it loads the data. Owns
//! every default; must not grow a setting that no caller sets.

use super::cache::PlanCache;
use super::{Shredder, ShredderCore, SqlBackend, SqlEngineBackend};
use crate::error::ShredError;
use crate::pipeline;
use nrc::schema::{Database, Schema};
use obs::{MetricsRegistry, RingSink};
use sqlengine::Engine;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Default number of plans the session keeps cached.
const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

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
    /// error-severity diagnostic (see [`PreparedQuery::check`](super::PreparedQuery::check) and the
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
                write_lock: Default::default(),
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
