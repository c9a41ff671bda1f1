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
//! One module per decision (DESIGN.md, "Ownership Map"): `builder`, `cache`,
//! `params`, `prepare`, `execute`, `backend` and `commit`. This file holds
//! the session itself and re-exports every public name.

mod backend;
mod builder;
mod cache;
mod commit;
mod execute;
mod params;
mod prepare;

pub use backend::{BackendPlan, ExecContext, PlanRequest, SqlBackend, StageExplain};
pub use backend::{NestedOracleBackend, ShreddedMemoryBackend, SqlEngineBackend};
pub use builder::ShredderBuilder;
pub use cache::CacheStats;
pub(crate) use commit::CommitLock;
pub use params::{auto_parameterize, Bindings, ParamSpec, Params};
pub use prepare::{Explain, PreparedQuery};

use crate::error::ShredError;
use nrc::schema::{Database, Schema};
use obs::{MetricsRegistry, RingSink};
use sqlengine::Engine;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// A configured query-shredding session. See the [module docs](self) for the
/// lifecycle and [`SqlBackend`] for the available backends.
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
    cache: Option<cache::PlanCache>,
    /// Fail `prepare` on error-severity diagnostics (see
    /// [`ShredderBuilder::verify`]).
    verify: bool,
    /// Counters and latency histograms, shared by every clone.
    metrics: MetricsRegistry,
    /// The ring buffer of recent profiles behind
    /// [`Shredder::recent_profiles`].
    profiles: RingSink,
    /// The commit lock, shared with each live view; only `commit.rs`
    /// reads it, and only through [`CommitLock::acquire`].
    write_lock: CommitLock,
    /// The live subscriptions, registered and pruned by `commit.rs` alone;
    /// weak, so dropping every clone of a `Subscription` unsubscribes it.
    subs: Mutex<Vec<Weak<crate::delta::LiveView>>>,
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
            let _ = self.core.snapshot.set(self.exec_context(None).db().ok()?);
        }
        self.core.snapshot.get()
    }

    /// The name of the session's backend.
    pub fn backend_name(&self) -> &'static str {
        self.core.backend.name()
    }

    /// The session's SQL engine, whose storage holds the session's data.
    pub fn engine(&self) -> Result<&Engine, ShredError> {
        self.exec_context(None).engine().map(Arc::as_ref)
    }

    /// A shareable handle to the session's engine, for building further
    /// sessions over the same loaded storage without copying it (pass it to
    /// [`ShredderBuilder::engine`]).
    pub fn shared_engine(&self) -> Result<Arc<Engine>, ShredError> {
        self.exec_context(None).engine().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::WriteBatch;
    use crate::semantics::IndexScheme;
    use nrc::builder::*;
    use nrc::schema::TableSchema;
    use nrc::term::Term;
    use nrc::types::BaseType;
    use nrc::value::Value;

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
