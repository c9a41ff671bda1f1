//! The commit path: how a write batch reaches storage and the live views.
//! Owns the commit lock ([`CommitLock`]), the subscription registry and the
//! recover-and-flag-stale policy: a poisoned lock is recovered, and a view
//! whose maintenance fails is flagged stale and re-seeds before it serves
//! again. Must not take the commit lock outside [`CommitLock::acquire`].

use super::params::resolve_bindings;
use super::{Params, PreparedQuery, Shredder};
use crate::delta::{LiveView, StorageDelta, Subscription, WriteBatch, WriteOp};
use crate::error::ShredError;
use crate::pipeline::CompiledQuery;
use nrc::schema::Schema;
use obs::Stage;
use sqlengine::SqlValue;
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::Instant;

/// Serialises committed batches, a new view's seeding and a stale view's
/// re-seed, so every subscription observes one totally ordered sequence of
/// deltas. Clones share the lock: each live view keeps one.
#[derive(Debug, Clone, Default)]
pub(crate) struct CommitLock(Arc<Mutex<()>>);

impl CommitLock {
    /// The one place the commit lock is taken. A panic under it leaves no
    /// half-applied batch (storage applies a batch whole) and flags the view
    /// it was maintaining stale, so a poisoned guard is recovered.
    pub(crate) fn acquire(&self) -> MutexGuard<'_, ()> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl Shredder {
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
    /// Subscriptions require the default [`SqlEngineBackend`](super::SqlEngineBackend): they maintain
    /// the compiled SQL pipeline itself. Every declared parameter must be
    /// covered by the prepared query's defaults. Dropping every clone of the handle unsubscribes it.
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
        let bindings = resolve_bindings(&prepared.params, &prepared.defaults, &Params::new())?;
        let sql_params = bindings.to_sql_params()?;
        let engine = self.shared_engine()?;
        // Hold the commit lock while seeding and registering, so no write
        // batch can slip between the snapshot the view is seeded from and
        // the first delta it observes.
        let _commit = self.core.write_lock.acquire();
        let view = Arc::new(LiveView::new(
            Arc::new(compiled),
            sql_params,
            engine,
            self.core.write_lock.clone(),
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
        let _commit = self.core.write_lock.acquire();
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
    /// a poisoned guard is recovered, as the commit lock's is.
    fn live_views(&self) -> MutexGuard<'_, Vec<Weak<LiveView>>> {
        self.core
            .subs
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
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
