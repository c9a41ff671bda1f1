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
//! * the stage's rows are held pre-grouped by their outer `(tag, ord)` pair
//!   as *slots* of that cache (no row is copied out of it), and the
//!   executor's [`RootDelta`] touches only the groups whose rows changed;
//! * a caching stitcher materialises the nested value from those groups
//!   through the row walk one-shot reads use (`crate::stitch`), memoising
//!   one [`Value`] per `(stage, pair)` group — the top-level ⊤ group of
//!   stage 0 included — and recording the reverse dependency edge
//!   child group → parent group whenever it rebuilds a parent row that reads
//!   a nested index. Bags are `Arc`-shared, so a memoised group is handed to
//!   its parent, and the top-level group to the reader, as a refcount bump.
//!   After a write, dirtiness starts at the changed groups and flows *up*
//!   those edges to the root, so the next read rebuilds exactly the dirty
//!   groups and their ancestors — the dirty spine — and shares every clean
//!   subtree with the previous read's value. Inside a rebuilt group, an
//!   element whose row is still live and reads no dirty group is taken over
//!   from the group's old bag rather than stitched again. A read with no
//!   write since the last one rebuilds nothing.
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
use crate::flatten::{flat_pair, LeafKind, PairHash, PairMap, ResultLayout};
use crate::pipeline::CompiledQuery;
use crate::session::CommitLock;
use crate::shred::Package;
use crate::stitch::{collect_items, stitch_row, TOP_PAIR};
use analysis::codes;
use nrc::value::Value;
use sqlengine::{DeltaExec, Engine, ParamValues, RootDelta, Storage};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};

pub use sqlengine::delta::{StorageDelta, TableDelta, WriteBatch, WriteOp};

// ---------------------------------------------------------------------------
// Maintained per-stage state
// ---------------------------------------------------------------------------

/// One shredded stage of a live view: the incremental executor that owns the
/// stage's columnar output cache, the stage's column layout, the slots of
/// its current rows pre-grouped by their outer `(tag, ord)` pair, and the
/// nested groups each row reads.
struct LiveStage {
    exec: DeltaExec,
    layout: Arc<ResultLayout>,
    groups: PairMap<Vec<usize>>,
    /// `(index column, child stage)` per nested bag of the stage's rows, in
    /// layout order: the first column of an `Index` leaf's pair, and the
    /// stage whose groups that pair names.
    nested: Vec<(usize, usize)>,
}

/// A `(stage, outer (tag, ord) pair)` group.
type GroupId = (usize, (u32, i64));

/// A stitched group: its bag, and the stage slot each element was read from.
struct Memo {
    bag: Arc<[Value]>,
    slots: Vec<usize>,
}

/// The mutable half of a live view, behind the subscription's mutex.
struct LiveState {
    /// Stages in package pre-order (the same order as
    /// [`Package::annotations`]).
    stages: Vec<LiveStage>,
    /// Memoised stitched bags per stage, one per outer-index group the last
    /// read reached (stage 0 holds only the top-level ⊤ group).
    cache: Vec<PairMap<Memo>>,
    /// The memoised groups dirtied since the last read, each with its old
    /// memo until a rebuild takes it (or a renumbering voids its slots). A
    /// rebuild reuses every old element whose slot is still live and whose
    /// nested groups are not in here; the read then forgets all of them.
    retired: Vec<PairMap<Option<Memo>>>,
    /// Reverse dependency edges per stage: child group → the parent groups
    /// whose rows referenced it. Recorded while stitching, taken out when
    /// the child group is dirtied: a rank shift re-keys whole stages, and
    /// edges kept under keys no row reads any more would grow without bound
    /// and dirty more parents with every write. An edge that outlives its
    /// parent can only over-invalidate, never under-invalidate.
    parents: Vec<PairMap<HashSet<GroupId, PairHash>>>,
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
    commit: CommitLock,
    state: Mutex<LiveState>,
}

impl LiveView {
    /// Seed a live view for `compiled` against the engine's current storage:
    /// seed every stage's delta executor and group its rows by outer index.
    /// The value cache starts empty and fills on first read. The caller holds
    /// `commit`. A stage whose plan output is not as wide as its layout, or
    /// whose layout has not one `Index` leaf per nested bag of the package,
    /// is a decode error here rather than a short read later.
    pub(crate) fn new(
        compiled: Arc<CompiledQuery>,
        params: ParamValues,
        engine: Arc<Engine>,
        commit: CommitLock,
    ) -> Result<LiveView, ShredError> {
        let mut next = 0usize;
        let shape = compiled.stages.map(&mut |_| {
            let i = next;
            next += 1;
            i
        });
        let mut children = vec![Vec::new(); next];
        child_stages(&shape, None, &mut children);
        let stages = compiled
            .stages
            .annotations()
            .iter()
            .zip(children)
            .map(|(qs, children)| {
                let exec = DeltaExec::new(&qs.plan);
                let leaves = qs.layout.leaves.iter();
                let cols = leaves.filter(|leaf| leaf.kind == LeafKind::Index);
                if cols.clone().count() != children.len()
                    || exec.width() != qs.layout.columns().len()
                {
                    return Err(ShredError::Decode {
                        code: codes::DECODE_SHAPE_MISMATCH,
                        message: format!("stage {} does not match its layout", qs.path),
                    });
                }
                Ok(LiveStage {
                    exec,
                    layout: Arc::clone(&qs.layout),
                    groups: PairMap::default(),
                    nested: cols.map(|leaf| leaf.col).zip(children).collect(),
                })
            })
            .collect::<Result<_, _>>()?;
        let view = LiveView {
            compiled,
            shape,
            params,
            engine,
            commit,
            state: Mutex::new(LiveState {
                stages,
                cache: (0..next).map(|_| PairMap::default()).collect(),
                retired: (0..next).map(|_| PairMap::default()).collect(),
                parents: vec![PairMap::default(); next],
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
        st.cache.iter_mut().for_each(PairMap::clear);
        st.retired.iter_mut().for_each(PairMap::clear);
        st.parents.iter_mut().for_each(PairMap::clear);
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
        let mut dirty: Vec<HashSet<(u32, i64), PairHash>> = vec![HashSet::default(); n];
        // Stages whose slots were renumbered: no memo of theirs can say any
        // more which slot an element came from.
        let mut renumbered = vec![false; n];
        for (((stage, qs), dirty), renumbered) in st
            .stages
            .iter_mut()
            .zip(&plans)
            .zip(&mut dirty)
            .zip(&mut renumbered)
        {
            *renumbered = match stage.exec.apply(&qs.plan, storage, &self.params, delta)? {
                Some(change) => apply_root_delta(stage, &change, dirty)?,
                None => {
                    st.reseeds += 1;
                    stage.exec.seed(&qs.plan, storage, &self.params)?;
                    dirty.extend(stage.groups.keys());
                    stage.groups = group_slots(&stage.exec)?;
                    dirty.extend(stage.groups.keys());
                    true
                }
            };
        }
        // Dirtiness flows child → parent. Stages are numbered in pre-order,
        // so every parent has a smaller index than its descendants; walking
        // indices downwards processes each stage after everything that can
        // dirty it. A dirty group's edges are used up: every parent they
        // name has its memo retired below, and records the edge again when
        // it next stitches a row that still reads the group.
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
        for (i, dirty) in dirty.iter().enumerate() {
            let (cache, retired) = (&mut st.cache[i], &mut st.retired[i]);
            for g in dirty {
                if let Some(memo) = cache.remove(g) {
                    retired.entry(*g).or_insert(Some(memo));
                }
            }
            if renumbered[i] {
                retired.values_mut().for_each(|memo| *memo = None);
                cache.values_mut().for_each(|memo| memo.slots.clear());
            }
        }
        Ok(())
    }

    /// Materialise the view's current nested value, sharing every cached
    /// clean group and rebuilding (and re-memoising) only dirty ones.
    pub(crate) fn value(&self) -> Result<Value, ShredError> {
        let mut guard = self.lock();
        if guard.stale {
            // Commit lock, then storage, then the view: the order
            // `Shredder::apply_batch` takes them in.
            drop(guard);
            let _commit = self.commit.acquire();
            let storage = self.engine.storage();
            guard = self.lock();
            if guard.stale {
                guard.reseeds += guard.stages.len() as u64;
                self.seed(&mut guard, &storage)?;
            }
        }
        let Package::Bag(top, inner) = &self.shape else {
            return Err(ShredError::Internal(
                "live stitching requires a bag-typed package".to_string(),
            ));
        };
        let LiveState {
            stages,
            cache,
            retired,
            parents,
            ..
        } = &mut *guard;
        let mut stitcher = Stitcher {
            stages,
            cache,
            retired,
            parents,
        };
        let value = stitcher.bag(*top, inner, TOP_PAIR);
        // Dropped rather than cleared: after a rank shift they held every
        // group of a stage, and a cleared map would keep that capacity.
        retired.iter_mut().for_each(|r| *r = PairMap::default());
        value
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
    /// The view's current nested value. Its cost is what changed since the
    /// last read: with no write in between it is a lock, one cache lookup and
    /// a refcount bump, and the same top-level bag is returned again. After a
    /// write, only the `(oidx_tag, oidx_ord)` groups the write touched and
    /// their ancestors are re-stitched; every other nested bag is shared with
    /// the previous read's value, not copied.
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

/// The `(tag, ord)` pair in columns `col` and `col + 1` of the row in `slot`;
/// column 0 holds the row's outer index.
fn pair_at(exec: &DeltaExec, slot: usize, col: usize) -> Result<(u32, i64), ShredError> {
    flat_pair(&exec.column(col)[slot], &exec.column(col + 1)[slot])
}

/// Group a seeded (or compacted) stage's current output slots by outer index.
fn group_slots(exec: &DeltaExec) -> Result<PairMap<Vec<usize>>, ShredError> {
    let mut out: PairMap<Vec<usize>> = PairMap::default();
    for slot in exec.live_slots() {
        out.entry(pair_at(exec, slot, 0)?).or_default().push(slot);
    }
    Ok(out)
}

/// Record, per stage of `shape`, the stages its rows' nested bags read, in
/// the order of the stage's `Index` leaves; `owner` is the stage whose rows
/// hold `shape` (none for the top-level bag).
fn child_stages(shape: &Package<usize>, owner: Option<usize>, out: &mut [Vec<usize>]) {
    match shape {
        Package::Base(_) => {}
        Package::Record(fields) => {
            for (_, field) in fields {
                child_stages(field, owner, out);
            }
        }
        Package::Bag(stage, inner) => {
            if let Some(owner) = owner {
                out[owner].push(*stage);
            }
            child_stages(inner, Some(*stage), out);
        }
    }
}

/// Fold a stage's output change into its group map, recording every touched
/// group in `dirty`. A group that lost rows drops its dead slots in one
/// sweep, however many it lost (a rank shift retracts and re-inserts a whole
/// group); inserted slots are appended, so every group's slots stay
/// ascending; a group left empty is dropped. `true` if the executor
/// compacted its output and so renumbered the stage's slots.
fn apply_root_delta(
    stage: &mut LiveStage,
    change: &RootDelta,
    dirty: &mut HashSet<(u32, i64), PairHash>,
) -> Result<bool, ShredError> {
    let LiveStage { exec, groups, .. } = stage;
    for &slot in &change.retracted {
        dirty.insert(pair_at(exec, slot, 0)?);
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
        let key = pair_at(exec, slot, 0)?;
        groups.entry(key).or_default().push(slot);
        dirty.insert(key);
    }
    let compacted = exec.compact();
    if compacted {
        *groups = group_slots(exec)?;
    }
    Ok(compacted)
}

// ---------------------------------------------------------------------------
// The caching stitcher
// ---------------------------------------------------------------------------

/// One read's walk over the maintained groups, from the top-level group down
/// to the first memoised group on each path.
struct Stitcher<'a> {
    stages: &'a [LiveStage],
    cache: &'a mut [PairMap<Memo>],
    retired: &'a mut [PairMap<Option<Memo>>],
    parents: &'a mut [PairMap<HashSet<GroupId, PairHash>>],
}

impl Stitcher<'_> {
    /// Stitch the group `key` of stage `stage_idx`, whose rows have the
    /// element package `inner`: a memoised group is shared as it is; any
    /// other is rebuilt and left in the cache. A rebuild keeps each element
    /// of the group's retired memo that is still current — moved out when
    /// the retired bag is no longer shared, cloned when it is — and
    /// stitches the rest from their rows. The group stays in `retired`,
    /// without its memo, so that the elements of other groups that read it
    /// are not kept. Stitching a row records a reverse edge child group →
    /// this group for every nested index the row reads, so later writes
    /// deep in the tree know to invalidate it.
    fn bag(
        &mut self,
        stage_idx: usize,
        inner: &Package<usize>,
        key: (u32, i64),
    ) -> Result<Value, ShredError> {
        if let Some(memo) = self.cache[stage_idx].get(&key) {
            return Ok(Value::Bag(Arc::clone(&memo.bag)));
        }
        let stages = self.stages;
        let stage = &stages[stage_idx];
        let slots = stage.groups.get(&key).map(Vec::as_slice).unwrap_or(&[]);
        let mut old = self.retired[stage_idx].get_mut(&key).and_then(Option::take);
        let mut next_old = 0usize;
        let bag: Arc<[Value]> = collect_items(slots.len(), |i| {
            let slot = slots[i];
            // Old and new slots both ascend, so one forward scan pairs them.
            let prev = old.as_mut().and_then(|memo| {
                next_old += memo.slots[next_old..].partition_point(|&s| s < slot);
                (memo.slots.get(next_old) == Some(&slot)).then_some((memo, next_old))
            });
            match prev {
                Some((memo, at)) if self.current(stage, slot)? => {
                    Ok(match Arc::get_mut(&mut memo.bag) {
                        Some(items) => std::mem::replace(&mut items[at], Value::Unit),
                        None => memo.bag[at].clone(),
                    })
                }
                Some((memo, at)) => {
                    // Drop the outdated element before rebuilding the row, so
                    // the nested groups it held are no longer shared and
                    // their own rebuilds can move elements instead of cloning.
                    if let Some(items) = Arc::get_mut(&mut memo.bag) {
                        items[at] = Value::Unit;
                    }
                    self.row(inner, (stage_idx, key), slot)
                }
                None => self.row(inner, (stage_idx, key), slot),
            }
        })?;
        let memo = Memo {
            bag: Arc::clone(&bag),
            slots: slots.to_vec(),
        };
        self.cache[stage_idx].insert(key, memo);
        Ok(Value::Bag(bag))
    }

    /// Is the element an earlier read stitched from `slot` still that row's
    /// value? A live slot's cells never change, and every group dirtied
    /// since that read is in `retired`, so it is unless the row reads a
    /// nested group that is.
    fn current(&self, stage: &LiveStage, slot: usize) -> Result<bool, ShredError> {
        for &(col, child) in &stage.nested {
            let retired = &self.retired[child];
            if !retired.is_empty() && retired.contains_key(&pair_at(&stage.exec, slot, col)?) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Materialise the row in `slot` of `group`'s stage through the shared
    /// row walk ([`stitch_row`]), reading the stage executor's columnar
    /// output cache; each nested group the row reads gets its reverse edge
    /// to `group` before it is stitched.
    fn row(
        &mut self,
        inner: &Package<usize>,
        group: GroupId,
        slot: usize,
    ) -> Result<Value, ShredError> {
        let stages = self.stages;
        let exec = &stages[group.0].exec;
        stitch_row(
            inner,
            &stages[group.0].layout,
            &mut 0,
            &|col| &exec.column(col)[slot],
            &mut |&child, inner, key| {
                self.parents[child].entry(key).or_default().insert(group);
                self.bag(child, inner, key)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, engine_from_database, execute_bound, QueryStage};
    use crate::shred::FlatType;
    use nrc::builder::*;
    use nrc::schema::{Database, Schema, TableSchema};
    use nrc::term::Term;
    use nrc::types::BaseType;
    use sqlengine::{ColumnType, EngineError, Row, SqlValue, TableDef};

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
            CommitLock::default(),
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
        // Inserting a department changes the shared outer CTE of both
        // stages; the maintained view must keep the cross-stage index join
        // consistent. (Departments are keyed, so no ordinal moves: the
        // unkeyed twin below shifts them.)
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

    /// A department insert or delete adds or removes a group of the nested
    /// stage each round. The reverse edges must follow the cached values
    /// they guard, not pile up under keys long gone.
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

            // Stage 0 holds only the top-level group, which has no parent.
            let st = view.lock();
            assert_eq!(st.cache[0].keys().collect::<Vec<_>>(), vec![&TOP_PAIR]);
            assert!(st.parents[0].is_empty(), "round {round}");
            for (edges, cached) in st.parents.iter().zip(&st.cache).skip(1) {
                let guarded: HashSet<&(u32, i64)> = edges.keys().collect();
                assert_eq!(guarded, cached.keys().collect(), "round {round}");
            }
        }
        assert_eq!(view.reseeds(), 0);
    }

    /// The same writes over the schema without keys: SQL generation numbers
    /// departments with `ROW_NUMBER`, so inserting or deleting the earliest
    /// department shifts every later ordinal and re-keys the nested stage's
    /// groups. The view must follow, and keep reverse edges for cached
    /// groups only.
    #[test]
    fn rank_shifts_of_an_unkeyed_outer_table_re_key_groups_consistently() {
        let mut unkeyed = Schema::new();
        for table in schema().tables() {
            let mut table = table.clone();
            table.key.clear();
            unkeyed.add_table(table);
        }
        let keyed = db();
        let mut database = Database::new(unkeyed.clone());
        for table in unkeyed.tables() {
            let rows = keyed.table_rows_unordered(&table.name).unwrap().to_vec();
            database.insert_bulk(&table.name, rows).unwrap();
        }
        let compiled = Arc::new(compile(&nested_query(), &unkeyed).unwrap());
        assert!(compiled.sql_texts()[1].contains("ROW_NUMBER"));
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
            for (edges, cached) in st.parents.iter().zip(&st.cache).skip(1) {
                let guarded: HashSet<&(u32, i64)> = edges.keys().collect();
                assert_eq!(guarded, cached.keys().collect(), "round {round}");
            }
        }
        assert_eq!(view.reseeds(), 0);
    }

    /// Renaming employees leaves a dead slot per write, so enough renames
    /// compact the stage's output and renumber its slots. A group
    /// memoised before that (Research, untouched by the renames) must not
    /// pair its old elements with the new slots when it is next rebuilt.
    #[test]
    fn a_compaction_voids_the_slots_of_memoised_groups() {
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = Arc::new(engine_from_database(&database).unwrap());
        let view = live_view(&compiled, &engine);
        let write = |batch: WriteBatch| {
            let delta = engine.apply_batch(&batch).unwrap();
            view.maintain(&engine.storage(), &delta).unwrap();
            let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
            assert!(view.value().unwrap().multiset_eq(&expected));
        };
        write(
            WriteBatch::new()
                .insert("employees", employee(4, "Research", "Dana", 700))
                .insert("employees", employee(5, "Research", "Eve", 800)),
        );
        // The output compacts once its dead slots outnumber both its live
        // ones and 32.
        for round in 0..40 {
            let id = 1 + round % 2;
            let renamed = employee(id, "Product", &format!("P{round}"), 1);
            write(WriteBatch::new().update("employees", vec![SqlValue::Int(id)], renamed));
        }
        write(WriteBatch::new().delete("employees", employee(3, "Research", "Cora", 50000)));
        assert_eq!(view.reseeds(), 0);
    }

    /// A stage whose layout has no `Index` leaf for a nested bag of the
    /// package is refused when the view is built, not read short later.
    #[test]
    fn a_layout_missing_an_index_leaf_is_refused() {
        let mut compiled = compile(&nested_query(), &schema()).unwrap();
        let mut first = true;
        compiled.stages = compiled.stages.into_map(&mut |mut qs: QueryStage| {
            if std::mem::take(&mut first) {
                // The same five columns, with `emps` as two base columns.
                qs.layout = Arc::new(ResultLayout::new(&FlatType::Record(vec![
                    ("dept".to_string(), FlatType::Base(BaseType::String)),
                    ("emps_tag".to_string(), FlatType::Base(BaseType::Int)),
                    ("emps_ord".to_string(), FlatType::Base(BaseType::Int)),
                ])));
            }
            qs
        });
        let engine = Arc::new(engine_from_database(&db()).unwrap());
        let commit = CommitLock::default();
        let Err(err) = LiveView::new(Arc::new(compiled), ParamValues::new(), engine, commit) else {
            panic!("a stage without an index leaf for its nested bag was accepted");
        };
        assert!(
            matches!(
                err,
                ShredError::Decode {
                    code: codes::DECODE_SHAPE_MISMATCH,
                    ..
                }
            ),
            "{err}"
        );
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
