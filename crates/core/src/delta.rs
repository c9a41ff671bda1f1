//! Live nested views: delta-driven incremental maintenance of shredded
//! results.
//!
//! A prepared shredded query is a package of flat SQL stages whose rows are
//! grouped by their `(oidx_tag, oidx_ord)` outer-index columns and stitched
//! back into one nested value. This module keeps that whole chain *live*
//! across storage writes:
//!
//! * each stage's physical plan gets a [`DeltaExec`] — the sqlengine
//!   incremental executor, which pushes a committed [`StorageDelta`] through
//!   the stage's operators as a signed columnar batch and keeps the stage's
//!   current output in a columnar cache;
//! * the stage's rows are held pre-grouped by outer index as *slots* of that
//!   cache (no row is copied out of it), and the executor's [`RootDelta`]
//!   touches only the groups whose rows actually changed;
//! * a caching stitcher materialises the nested value from those groups,
//!   memoising one [`Value`] per nested `(stage, index)` group and recording
//!   the reverse dependency edge child group → parent group whenever a
//!   parent row reads a nested index. After a write, dirtiness starts at the
//!   changed groups and flows *up* those edges, so the stitcher
//!   re-materialises only the nested subtrees whose groups changed — every
//!   clean subtree is a cache hit. The top-level bag is what a read returns
//!   and is rebuilt from the memoised children each time: memoising it too
//!   would cost a second copy of the whole value on every read after a
//!   write.
//!
//! When a write falls outside the incremental fragment (the executor bails,
//! e.g. a correlated `EXISTS` over a mutated table), the stage is re-seeded
//! from scratch and all of its groups are marked dirty — recompute-from-
//! scratch is always the fallback, never an error. Maintenance is
//! all-or-stale per view: if folding a write fails part-way (or a thread
//! panicked while holding the view's lock), the view is flagged stale and is
//! re-seeded from storage by its next `maintain` or `value()`, so a reader
//! never sees a mix of folded and unfolded stages.
//!
//! The public surface is [`Subscription`] (handed out by
//! `Shredder::subscribe`) plus re-exports of the sqlengine write-batch
//! types, so `shredding::delta::{WriteBatch, WriteOp, StorageDelta}` is the
//! one-stop path for mutating a session's storage and observing the
//! maintained results.

use crate::error::ShredError;
use crate::flatten::{flat_index, sql_to_value, ResultLayout};
use crate::pipeline::CompiledQuery;
use crate::semantics::{IndexScheme, IndexValue};
use crate::shred::Package;
use analysis::codes;
use nrc::value::Value;
use sqlengine::{DeltaExec, Engine, ParamValues, RootDelta, SqlValue, Storage};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

pub use sqlengine::delta::{StorageDelta, TableDelta, WriteBatch, WriteOp};

// ---------------------------------------------------------------------------
// Maintained per-stage state
// ---------------------------------------------------------------------------

/// One shredded stage of a live view: the incremental executor that owns the
/// stage's columnar output cache, the stage's column layout, and the slots of
/// its current rows pre-grouped by their flat outer index.
struct LiveStage {
    exec: DeltaExec,
    layout: Arc<ResultLayout>,
    groups: HashMap<IndexValue, Vec<usize>>,
}

/// A `(stage, outer index)` group.
type GroupId = (usize, IndexValue);

/// The mutable half of a live view, behind the subscription's mutex.
struct LiveState {
    /// Stages in package pre-order (the same order as
    /// [`Package::annotations`]).
    stages: Vec<LiveStage>,
    /// Memoised stitched values per stage, one per nested outer-index group.
    cache: Vec<HashMap<IndexValue, Value>>,
    /// Reverse dependency edges per stage: child group → the parent groups
    /// whose rows referenced it. Recorded while stitching, taken out when
    /// the child group is dirtied: a rank shift re-keys whole stages, and
    /// edges kept under keys no row reads any more would grow without bound
    /// and dirty more parents with every write. An edge that outlives its
    /// parent can only over-invalidate, never under-invalidate.
    parents: Vec<HashMap<IndexValue, HashSet<GroupId>>>,
    /// The stages do not all reflect the same storage state (a maintenance
    /// pass failed part-way, or a thread panicked holding the lock): re-seed
    /// before anything is served.
    stale: bool,
    /// Bumped once per committed write batch the view was handed.
    generation: u64,
    /// How many stage re-seeds fell back to recompute-from-scratch.
    reseeds: u64,
    /// Cumulative wall time spent inside [`LiveView::maintain`].
    maintain_nanos: u64,
}

/// The shared core of a [`Subscription`]: the compiled query it watches, its
/// bound parameters, and the maintained state. `Shredder::apply_batch` holds
/// a `Weak` to each live view and maintains it after every committed write.
pub(crate) struct LiveView {
    compiled: Arc<CompiledQuery>,
    /// The package shape with each bag constructor annotated by its stage
    /// index (pre-order), so the stitcher can address `LiveState::stages`.
    shape: Package<usize>,
    params: ParamValues,
    /// Where a stale view re-seeds from when it is read before the next
    /// write: the session's engine, under the session's commit lock so the
    /// re-seed cannot land between a commit and the `maintain` that follows.
    engine: Arc<Engine>,
    commit: Arc<Mutex<()>>,
    state: Mutex<LiveState>,
}

impl LiveView {
    /// Seed a live view for `compiled` against the engine's current storage:
    /// seed every stage's delta executor and group its rows by outer index.
    /// The value cache starts empty and fills on first read. The caller holds
    /// `commit`.
    pub(crate) fn new(
        compiled: Arc<CompiledQuery>,
        params: ParamValues,
        engine: Arc<Engine>,
        commit: Arc<Mutex<()>>,
    ) -> Result<LiveView, ShredError> {
        let mut next = 0usize;
        let shape = compiled.stages.map(&mut |_| {
            let i = next;
            next += 1;
            i
        });
        let stages = compiled
            .stages
            .annotations()
            .iter()
            .map(|qs| LiveStage {
                exec: DeltaExec::new(&qs.plan),
                layout: Arc::clone(&qs.layout),
                groups: HashMap::new(),
            })
            .collect();
        let view = LiveView {
            compiled,
            shape,
            params,
            engine,
            commit,
            state: Mutex::new(LiveState {
                stages,
                cache: vec![HashMap::new(); next],
                parents: vec![HashMap::new(); next],
                stale: true,
                generation: 0,
                reseeds: 0,
                maintain_nanos: 0,
            }),
        };
        {
            let storage = view.engine.storage();
            let mut st = view.lock();
            view.seed(&mut st, &storage)?;
        }
        Ok(view)
    }

    /// The view's state. A lock poisoned by a panicking holder is recovered,
    /// not propagated: whatever the holder left half-done is discarded by
    /// flagging the view stale.
    fn lock(&self) -> MutexGuard<'_, LiveState> {
        self.state.lock().unwrap_or_else(|poisoned| {
            self.state.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.stale = true;
            guard
        })
    }

    /// (Re)build every stage from `storage` and forget every stitched value.
    /// The view stops being stale when this returns `Ok`, not before.
    fn seed(&self, st: &mut LiveState, storage: &Storage) -> Result<(), ShredError> {
        for (stage, qs) in st.stages.iter_mut().zip(self.compiled.stages.annotations()) {
            stage.exec.seed(&qs.plan, storage, &self.params)?;
            stage.groups = group_slots(&stage.exec)?;
        }
        st.cache.iter_mut().for_each(HashMap::clear);
        st.parents.iter_mut().for_each(HashMap::clear);
        st.stale = false;
        Ok(())
    }

    /// Fold a committed write into every stage and invalidate exactly the
    /// stitched subtrees it touched. `storage` must be the post-state (the
    /// delta already applied). A stage whose plan reads none of the written
    /// tables is skipped outright by its executor; a stage outside the
    /// incremental fragment is re-seeded and fully dirtied. On `Err` the view
    /// is left flagged stale — as it is when it arrives here stale — and the
    /// whole of it is re-seeded instead.
    pub(crate) fn maintain(
        &self,
        storage: &Storage,
        delta: &StorageDelta,
    ) -> Result<(), ShredError> {
        let tm = std::time::Instant::now();
        let mut guard = self.lock();
        let st = &mut *guard;
        let folded = if st.stale {
            st.reseeds += st.stages.len() as u64;
            self.seed(st, storage)
        } else {
            self.fold(st, storage, delta)
        };
        st.stale = folded.is_err();
        st.generation += 1;
        st.maintain_nanos += tm.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        folded
    }

    fn fold(
        &self,
        st: &mut LiveState,
        storage: &Storage,
        delta: &StorageDelta,
    ) -> Result<(), ShredError> {
        let plans = self.compiled.stages.annotations();
        let n = st.stages.len();
        let mut dirty: Vec<HashSet<IndexValue>> = vec![HashSet::new(); n];
        for ((stage, qs), dirty) in st.stages.iter_mut().zip(&plans).zip(&mut dirty) {
            match stage.exec.apply(&qs.plan, storage, &self.params, delta)? {
                Some(change) => apply_root_delta(stage, &change, dirty)?,
                None => {
                    st.reseeds += 1;
                    stage.exec.seed(&qs.plan, storage, &self.params)?;
                    dirty.extend(stage.groups.keys().cloned());
                    stage.groups = group_slots(&stage.exec)?;
                    dirty.extend(stage.groups.keys().cloned());
                }
            }
        }
        // Dirtiness flows child → parent. Stages are numbered in pre-order,
        // so every parent has a smaller index than its descendants; walking
        // indices downwards processes each stage after everything that can
        // dirty it. A dirty group's edges are used up: every parent they
        // name loses its cached value below, and records the edge again when
        // it is next stitched from a row that still reads the group.
        for i in (0..n).rev() {
            let (above, below) = dirty.split_at_mut(i);
            for (pi, pg) in below[0]
                .iter()
                .filter_map(|g| st.parents[i].remove(g))
                .flatten()
            {
                above[pi].insert(pg);
            }
        }
        for (cache, dirty) in st.cache.iter_mut().zip(&dirty) {
            for g in dirty {
                cache.remove(g);
            }
        }
        Ok(())
    }

    /// Materialise the view's current nested value, reusing every cached
    /// clean subtree and rebuilding (and re-memoising) only dirty groups.
    pub(crate) fn value(&self) -> Result<Value, ShredError> {
        let mut guard = self.lock();
        if guard.stale {
            // Commit lock, then storage, then the view: the order
            // `Shredder::apply_batch` takes them in.
            drop(guard);
            let _commit = self
                .commit
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let storage = self.engine.storage();
            guard = self.lock();
            if guard.stale {
                guard.reseeds += guard.stages.len() as u64;
                self.seed(&mut guard, &storage)?;
            }
        }
        let LiveState {
            stages,
            cache,
            parents,
            ..
        } = &mut *guard;
        let mut stitcher = Stitcher {
            stages,
            cache,
            parents,
        };
        stitcher.bag(&self.shape, &IndexValue::top(IndexScheme::Flat), false)
    }

    pub(crate) fn generation(&self) -> u64 {
        self.lock().generation
    }

    pub(crate) fn reseeds(&self) -> u64 {
        self.lock().reseeds
    }

    pub(crate) fn maintain_nanos(&self) -> u64 {
        self.lock().maintain_nanos
    }
}

// ---------------------------------------------------------------------------
// The subscription handle
// ---------------------------------------------------------------------------

/// A live handle to a prepared query's maintained result. Obtained from
/// `Shredder::subscribe`; after every write batch committed through
/// `Shredder::apply_batch`, the subscription's [`value`](Subscription::value)
/// reflects the post-write database without re-running the query from
/// scratch. Dropping every clone of the handle unsubscribes it.
#[derive(Clone)]
pub struct Subscription {
    pub(crate) inner: Arc<LiveView>,
}

impl Subscription {
    /// The view's current nested value. Cheap after a small write: only the
    /// nested subtrees whose `(oidx_tag, oidx_ord)` groups changed are
    /// re-stitched; everything else is returned from the value cache.
    pub fn value(&self) -> Result<Value, ShredError> {
        self.inner.value()
    }

    /// How many write batches this subscription has been handed for
    /// maintenance (0 right after subscribing).
    pub fn generation(&self) -> u64 {
        self.inner.generation()
    }

    /// How many times maintenance fell back to re-seeding a stage from
    /// scratch: because a write fell outside the incremental fragment, or
    /// because a failed maintenance pass left the view stale.
    pub fn reseeds(&self) -> u64 {
        self.inner.reseeds()
    }

    /// Cumulative wall time, in nanoseconds, this subscription has spent
    /// being maintained: folding committed write deltas through the stage
    /// executors and invalidating stitched groups. The storage write itself
    /// and [`value`](Subscription::value) materialisation are excluded, so
    /// the difference of this counter across one write batch is exactly the
    /// cost a live view adds over not having one — the number the delta
    /// benchmark compares against a full recompute.
    pub fn maintain_nanos(&self) -> u64 {
        self.inner.maintain_nanos()
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("stages", &self.inner.compiled.stages.nesting_degree())
            .field("generation", &self.inner.generation())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Group bookkeeping
// ---------------------------------------------------------------------------

/// Read the flat outer index of the row in `slot` from its first two columns.
fn group_key(exec: &DeltaExec, slot: usize) -> Result<IndexValue, ShredError> {
    flat_index(cell(exec, slot, 0)?, cell(exec, slot, 1)?)
}

fn decode_err(code: &'static str, message: String) -> ShredError {
    ShredError::Decode { code, message }
}

/// Group a seeded (or compacted) stage's current output slots by outer index.
fn group_slots(exec: &DeltaExec) -> Result<HashMap<IndexValue, Vec<usize>>, ShredError> {
    let mut out: HashMap<IndexValue, Vec<usize>> = HashMap::new();
    for slot in exec.live_slots() {
        out.entry(group_key(exec, slot)?).or_default().push(slot);
    }
    Ok(out)
}

/// Fold a stage's output change into its group map, recording every touched
/// group in `dirty`. A group that lost rows drops its dead slots in one
/// sweep, however many it lost (a rank shift retracts and re-inserts a whole
/// group); inserted slots are appended; a group left empty is dropped.
fn apply_root_delta(
    stage: &mut LiveStage,
    change: &RootDelta,
    dirty: &mut HashSet<IndexValue>,
) -> Result<(), ShredError> {
    let LiveStage { exec, groups, .. } = stage;
    for &slot in &change.retracted {
        dirty.insert(group_key(exec, slot)?);
    }
    for key in dirty.iter() {
        if let Some(slots) = groups.get_mut(key) {
            slots.retain(|&slot| exec.is_live(slot));
            if slots.is_empty() {
                groups.remove(key);
            }
        }
    }
    for &slot in &change.inserted {
        let key = group_key(exec, slot)?;
        groups.entry(key.clone()).or_default().push(slot);
        dirty.insert(key);
    }
    if exec.compact() {
        *groups = group_slots(exec)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The caching stitcher
// ---------------------------------------------------------------------------

/// One read's walk over the maintained groups.
struct Stitcher<'a> {
    stages: &'a [LiveStage],
    cache: &'a mut [HashMap<IndexValue, Value>],
    parents: &'a mut [HashMap<IndexValue, HashSet<GroupId>>],
}

impl Stitcher<'_> {
    /// Stitch one bag group. A `memoised` (nested) group consults the value
    /// cache first and, on a rebuild, leaves the finished bag there; for
    /// every nested index the group's rows read, a reverse edge child group
    /// → this group is recorded so later writes deep in the tree know to
    /// invalidate it.
    fn bag(
        &mut self,
        shape: &Package<usize>,
        index: &IndexValue,
        memoised: bool,
    ) -> Result<Value, ShredError> {
        let Package::Bag(stage_idx, inner) = shape else {
            return Err(ShredError::Internal(
                "live stitching requires a bag-typed package node".to_string(),
            ));
        };
        if let Some(v) = self.cache[*stage_idx].get(index).filter(|_| memoised) {
            return Ok(v.clone());
        }
        let stages = self.stages;
        let slots = stages[*stage_idx].groups.get(index);
        let slots = slots.map(Vec::as_slice).unwrap_or(&[]);
        let mut items = Vec::with_capacity(slots.len());
        for &slot in slots {
            let mut leaf = 0usize;
            items.push(self.row(inner, (*stage_idx, index), slot, &mut leaf)?);
        }
        let v = Value::Bag(items);
        if memoised {
            self.cache[*stage_idx].insert(index.clone(), v.clone());
        }
        Ok(v)
    }

    /// Materialise the row in `slot` of a stage's `group`, walking the
    /// package shape in lockstep with the layout's pre-resolved leaves — the
    /// live-view analogue of the columnar stitcher's row walk, reading the
    /// stage executor's columnar output cache instead of decoded columns.
    fn row(
        &mut self,
        shape: &Package<usize>,
        group: (usize, &IndexValue),
        slot: usize,
        leaf: &mut usize,
    ) -> Result<Value, ShredError> {
        let stages = self.stages;
        let stage = &stages[group.0];
        match shape {
            Package::Record(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (label, field_shape) in fields {
                    out.push((label.clone(), self.row(field_shape, group, slot, leaf)?));
                }
                Ok(Value::Record(out))
            }
            Package::Base(b) => {
                let l = stage.layout.next_leaf(leaf, false)?;
                sql_to_value(cell(&stage.exec, slot, l.col)?, *b)
            }
            Package::Bag(child_idx, _) => {
                let l = stage.layout.next_leaf(leaf, true)?;
                let child_index = flat_index(
                    cell(&stage.exec, slot, l.col)?,
                    cell(&stage.exec, slot, l.col + 1)?,
                )?;
                self.parents[*child_idx]
                    .entry(child_index.clone())
                    .or_default()
                    .insert((group.0, group.1.clone()));
                self.bag(shape, &child_index, true)
            }
        }
    }
}

fn cell(exec: &DeltaExec, slot: usize, col: usize) -> Result<&SqlValue, ShredError> {
    if col >= exec.width() {
        return Err(decode_err(
            codes::DECODE_SHAPE_MISMATCH,
            format!("stage row is missing column {}", col),
        ));
    }
    Ok(&exec.column(col)[slot])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, engine_from_database, execute_bound};
    use nrc::builder::*;
    use nrc::schema::{Database, Schema, TableSchema};
    use nrc::term::Term;
    use nrc::types::BaseType;
    use sqlengine::{ColumnType, EngineError, Row, TableDef};

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

    fn live_view(compiled: &Arc<CompiledQuery>, engine: &Arc<Engine>) -> LiveView {
        LiveView::new(
            Arc::clone(compiled),
            ParamValues::new(),
            Arc::clone(engine),
            Arc::new(Mutex::new(())),
        )
        .unwrap()
    }

    fn employee(id: i64, dept: &str, name: &str, salary: i64) -> Row {
        vec![
            SqlValue::Int(id),
            SqlValue::str(dept),
            SqlValue::str(name),
            SqlValue::Int(salary),
        ]
    }

    #[test]
    fn a_leaf_insert_is_maintained_without_reseeding() {
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = Arc::new(engine_from_database(&database).unwrap());
        let view = live_view(&compiled, &engine);
        assert!(view
            .value()
            .unwrap()
            .multiset_eq(&execute_bound(&compiled, &engine, &ParamValues::new()).unwrap()));

        let batch = WriteBatch::new().insert("employees", employee(4, "Research", "Dana", 700));
        let delta = engine.apply_batch(&batch).unwrap();
        view.maintain(&engine.storage(), &delta).unwrap();

        let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
        assert!(view.value().unwrap().multiset_eq(&expected));
        assert_eq!(view.generation(), 1);
        assert_eq!(view.reseeds(), 0);
    }

    #[test]
    fn deletes_and_updates_invalidate_only_the_touched_groups() {
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = Arc::new(engine_from_database(&database).unwrap());
        let view = live_view(&compiled, &engine);
        view.value().unwrap(); // populate the cache and its dependency edges

        let batch = WriteBatch::new()
            .delete("employees", employee(2, "Product", "Bert", 900))
            .update(
                "employees",
                vec![SqlValue::Int(3)],
                employee(3, "Research", "Cora", 51000),
            );
        let delta = engine.apply_batch(&batch).unwrap();
        view.maintain(&engine.storage(), &delta).unwrap();

        let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
        assert!(view.value().unwrap().multiset_eq(&expected));
        assert_eq!(view.reseeds(), 0);
    }

    #[test]
    fn a_net_zero_batch_leaves_the_view_unchanged() {
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = Arc::new(engine_from_database(&database).unwrap());
        let view = live_view(&compiled, &engine);
        let before = view.value().unwrap();

        let row = employee(9, "Product", "Zed", 1);
        let batch = WriteBatch::new()
            .insert("employees", row.clone())
            .delete("employees", row);
        let delta = engine.apply_batch(&batch).unwrap();
        view.maintain(&engine.storage(), &delta).unwrap();

        assert!(view.value().unwrap().multiset_eq(&before));
        assert_eq!(view.generation(), 1);
    }

    #[test]
    fn an_outer_table_write_reorders_every_group_consistently() {
        // Inserting a department shifts ROW_NUMBER ordinals in the shared
        // outer CTE of both stages; the maintained view must keep the
        // cross-stage index join consistent.
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = Arc::new(engine_from_database(&database).unwrap());
        let view = live_view(&compiled, &engine);
        view.value().unwrap();

        let batch = WriteBatch::new()
            .insert(
                "departments",
                vec![SqlValue::Int(3), SqlValue::str("Design")],
            )
            .insert("employees", employee(5, "Design", "Eve", 1200));
        let delta = engine.apply_batch(&batch).unwrap();
        view.maintain(&engine.storage(), &delta).unwrap();

        let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
        assert!(view.value().unwrap().multiset_eq(&expected));
    }

    /// A department insert or delete shifts every later ordinal, so each
    /// round re-keys the nested stage's groups. The reverse edges must follow
    /// the cached values they guard, not pile up under keys long gone.
    #[test]
    fn reverse_edges_are_kept_for_cached_groups_only() {
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = Arc::new(engine_from_database(&database).unwrap());
        let view = live_view(&compiled, &engine);
        view.value().unwrap();

        let early = vec![SqlValue::Int(0), SqlValue::str("Accounts")];
        for round in 0..6 {
            let batch = if round % 2 == 0 {
                WriteBatch::new().insert("departments", early.clone())
            } else {
                WriteBatch::new().delete("departments", early.clone())
            };
            let delta = engine.apply_batch(&batch).unwrap();
            view.maintain(&engine.storage(), &delta).unwrap();
            let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
            assert!(view.value().unwrap().multiset_eq(&expected));

            let st = view.lock();
            for (edges, cached) in st.parents.iter().zip(&st.cache) {
                let guarded: HashSet<&IndexValue> = edges.keys().collect();
                assert_eq!(guarded, cached.keys().collect(), "round {round}");
            }
        }
        assert_eq!(view.reseeds(), 0);
    }

    /// Maintenance is all-or-stale: a pass that fails part-way must not
    /// leave some stages folded and others not.
    #[test]
    fn a_failed_maintenance_pass_leaves_the_view_stale_not_mixed() {
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = Arc::new(engine_from_database(&database).unwrap());
        let view = live_view(&compiled, &engine);
        view.value().unwrap();

        // A storage whose `employees` table is laid out differently from the
        // one the plans were compiled against, and a delta retracting a row
        // the view never saw: the employees stage cannot fold it, falls back
        // to a re-seed, and the re-seed refuses the layout.
        let mut other = Storage::new();
        other
            .create_table(TableDef::new(
                "departments",
                vec![("id", ColumnType::Int), ("name", ColumnType::Text)],
            ))
            .unwrap();
        other
            .create_table(TableDef::new(
                "employees",
                vec![
                    ("dept", ColumnType::Text),
                    ("id", ColumnType::Int),
                    ("name", ColumnType::Text),
                    ("salary", ColumnType::Int),
                ],
            ))
            .unwrap();
        let ghost: Row = vec![
            SqlValue::str("Product"),
            SqlValue::Int(99),
            SqlValue::str("Ghost"),
            SqlValue::Int(1),
        ];
        other.insert("employees", ghost.clone()).unwrap();
        let bad = other
            .apply_batch(&WriteBatch::new().delete("employees", ghost))
            .unwrap();
        let err = view.maintain(&other, &bad).unwrap_err();
        assert!(
            matches!(err, ShredError::Engine(EngineError::TypeError(_))),
            "{err}"
        );
        assert_eq!(view.generation(), 1);
        let reseeds = view.reseeds();

        // Read before the next write: the view re-seeds itself from the
        // engine instead of serving the half-folded state.
        let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
        assert!(view.value().unwrap().multiset_eq(&expected));
        assert!(view.reseeds() > reseeds, "the stale view was re-seeded");

        // Fail again, then maintain against the real storage: the stale view
        // is re-seeded from it rather than folding a delta into a mix.
        view.maintain(&other, &bad).unwrap_err();
        let batch = WriteBatch::new().insert("employees", employee(4, "Research", "Dana", 700));
        let delta = engine.apply_batch(&batch).unwrap();
        view.maintain(&engine.storage(), &delta).unwrap();
        let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
        assert!(view.value().unwrap().multiset_eq(&expected));

        // And it is back on the incremental path.
        let reseeds = view.reseeds();
        let batch = WriteBatch::new().insert("employees", employee(5, "Product", "Emil", 800));
        let delta = engine.apply_batch(&batch).unwrap();
        view.maintain(&engine.storage(), &delta).unwrap();
        let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
        assert!(view.value().unwrap().multiset_eq(&expected));
        assert_eq!(view.reseeds(), reseeds);
    }

    /// A thread that panics while holding the view's lock poisons it; every
    /// later caller recovers the guard and treats the view as stale.
    #[test]
    fn a_poisoned_view_lock_is_recovered_and_the_view_reseeded() {
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = Arc::new(engine_from_database(&database).unwrap());
        let view = live_view(&compiled, &engine);
        view.value().unwrap();

        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = view.state.lock().unwrap();
                panic!("a reader dies holding the view lock");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(view.state.is_poisoned());

        assert_eq!(view.generation(), 0, "the counters still read");
        let batch = WriteBatch::new().insert("employees", employee(4, "Research", "Dana", 700));
        let delta = engine.apply_batch(&batch).unwrap();
        view.maintain(&engine.storage(), &delta).unwrap();
        let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
        assert!(view.value().unwrap().multiset_eq(&expected));
        assert!(view.reseeds() > 0, "the poisoned view was re-seeded");
        assert!(!view.state.is_poisoned());
    }
}
