//! The mutation layer: write batches and the typed deltas they emit.
//!
//! A [`WriteBatch`] is an ordered list of [`WriteOp`]s. Committing one is a
//! two-phase affair: `Storage::validate_batch` replays the operations
//! against a small overlay per affected table — the base rows the batch
//! deleted, the rows it appended and the keys it added and freed, over the
//! borrowed table, which is never copied — so a batch that would violate
//! arity, column types or a declared key is rejected *before* any real
//! table changes. It normalises the surviving operations into a
//! [`StorageDelta`]: one signed row multiset per table, with insertions and
//! retractions of the same row cancelled out (an update is exactly a delete
//! plus an insert). `Storage::apply_delta` then commits the delta with a
//! fixed discipline — retracted rows are removed at their first occurrence,
//! inserted rows are appended — so the post-state scan order of a table is a
//! deterministic function of its pre-state order and the delta. The
//! incremental maintenance layer relies on that: it keeps its operators'
//! columnar stores under the same retract-then-append discipline, so a store
//! and a from-scratch scan of the same table always agree on row order.

use crate::error::EngineError;
use crate::storage::{Storage, Table};
use crate::value::Row;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One mutation inside a [`WriteBatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Insert a full row (validated like `crate::storage::Table::insert`).
    Insert { table: String, row: Row },
    /// Delete the first row equal to `row`.
    Delete { table: String, row: Row },
    /// Delete the row whose declared-key columns equal `key`.
    DeleteByKey { table: String, key: Row },
    /// Replace the row whose declared-key columns equal `key` with `row`.
    Update { table: String, key: Row, row: Row },
}

impl WriteOp {
    /// The table this operation addresses.
    pub fn table(&self) -> &str {
        match self {
            WriteOp::Insert { table, .. }
            | WriteOp::Delete { table, .. }
            | WriteOp::DeleteByKey { table, .. }
            | WriteOp::Update { table, .. } => table,
        }
    }
}

/// An ordered list of mutations committed atomically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteBatch {
    pub ops: Vec<WriteOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Append an insert.
    pub fn insert(mut self, table: &str, row: Row) -> WriteBatch {
        self.ops.push(WriteOp::Insert {
            table: table.to_string(),
            row,
        });
        self
    }

    /// Append a delete-by-value.
    pub fn delete(mut self, table: &str, row: Row) -> WriteBatch {
        self.ops.push(WriteOp::Delete {
            table: table.to_string(),
            row,
        });
        self
    }

    /// Append a keyed delete.
    pub fn delete_by_key(mut self, table: &str, key: Row) -> WriteBatch {
        self.ops.push(WriteOp::DeleteByKey {
            table: table.to_string(),
            key,
        });
        self
    }

    /// Append a keyed update.
    pub fn update(mut self, table: &str, key: Row, row: Row) -> WriteBatch {
        self.ops.push(WriteOp::Update {
            table: table.to_string(),
            key,
            row,
        });
        self
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The normalised signed row multiset a committed batch induced on one
/// table. Multiplicity is by repetition; a row inserted and deleted the same
/// number of times inside one batch appears in neither list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableDelta {
    /// Rows removed from the pre-state, in first-mention order. Always a
    /// sub-multiset of the pre-state table.
    pub retract: Vec<Row>,
    /// Rows appended, in first-mention order.
    pub insert: Vec<Row>,
}

impl TableDelta {
    /// Total number of signed rows.
    pub(crate) fn len(&self) -> usize {
        self.retract.len() + self.insert.len()
    }

    /// Did the batch leave this table unchanged?
    pub fn is_empty(&self) -> bool {
        self.retract.is_empty() && self.insert.is_empty()
    }

    /// The delta as `(row, sign)` pairs: retractions (−1) first, then
    /// insertions (+1) — the order [`Storage::apply_delta`] commits them in.
    pub(crate) fn signed_rows(&self) -> impl Iterator<Item = (&Row, i64)> {
        self.retract
            .iter()
            .map(|r| (r, -1i64))
            .chain(self.insert.iter().map(|r| (r, 1i64)))
    }
}

/// The typed delta a committed [`WriteBatch`] emitted: per-table insertion
/// and retraction multisets, normalised so opposite-signed mentions of the
/// same row cancel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageDelta {
    tables: BTreeMap<String, TableDelta>,
}

impl StorageDelta {
    /// The delta for one table, if the batch touched it.
    pub fn get(&self, table: &str) -> Option<&TableDelta> {
        self.tables.get(table)
    }

    /// Did the batch change this table?
    pub(crate) fn touches(&self, table: &str) -> bool {
        self.tables.get(table).is_some_and(|d| !d.is_empty())
    }

    /// Total number of signed rows across all tables (the `delta.rows`
    /// metric).
    pub fn row_count(&self) -> usize {
        self.tables.values().map(TableDelta::len).sum()
    }

    /// Did the batch change anything at all?
    pub fn is_empty(&self) -> bool {
        self.tables.values().all(TableDelta::is_empty)
    }
}

/// Collects signed row counts in first-mention order, then splits them into
/// retraction and insertion lists.
#[derive(Default)]
struct SignedRows {
    order: Vec<(Row, i64)>,
    index: HashMap<Row, usize>,
}

impl SignedRows {
    fn add(&mut self, row: Row, sign: i64) {
        match self.index.get(&row) {
            Some(&i) => self.order[i].1 += sign,
            None => {
                self.index.insert(row.clone(), self.order.len());
                self.order.push((row, sign));
            }
        }
    }

    fn into_delta(self) -> TableDelta {
        let mut delta = TableDelta::default();
        for (row, net) in self.order {
            let (target, copies) = if net < 0 {
                (&mut delta.retract, -net)
            } else {
                (&mut delta.insert, net)
            };
            for _ in 0..copies {
                target.push(row.clone());
            }
        }
        delta
    }
}

/// Where a row of an [`Overlay`] lives: in the borrowed table, or among the
/// rows the batch appended.
#[derive(Clone, Copy)]
enum Slot {
    Base(usize),
    Appended(usize),
}

/// One table as a batch under validation has left it so far, kept as
/// changes over the borrowed pre-state table instead of a copy of it. Its
/// rows, in scan order, are the base rows not in `deleted` followed by
/// `appended` — the order a replay on a copy of the table would see, so a
/// delete-by-value finds the same first occurrence.
struct Overlay<'t> {
    base: &'t Table,
    /// Positions of the base rows the batch deleted.
    deleted: HashSet<usize>,
    /// Rows the batch appended and has not deleted since, in order.
    appended: Vec<Row>,
    /// Keys of the rows in `appended`.
    added_keys: HashSet<Row>,
    /// Keys of the rows the batch deleted. A base key in this set is no
    /// longer held by its base row.
    freed_keys: HashSet<Row>,
    signed: SignedRows,
}

impl<'t> Overlay<'t> {
    fn new(base: &'t Table) -> Overlay<'t> {
        Overlay {
            base,
            deleted: HashSet::new(),
            appended: Vec::new(),
            added_keys: HashSet::new(),
            freed_keys: HashSet::new(),
            signed: SignedRows::default(),
        }
    }

    /// Does a live row hold this key? An appended row does while its key is
    /// in `added_keys`, a base row while the batch has not freed its key.
    fn key_taken(&self, key: &Row) -> bool {
        self.added_keys.contains(key) || (self.base.has_key(key) && !self.freed_keys.contains(key))
    }

    /// The first live row satisfying `matches`, in scan order. The row is
    /// compared before the deleted set is consulted: most rows do not match.
    fn find(&self, matches: impl Fn(&Row) -> bool) -> Option<Slot> {
        let mut base = self.base.rows.iter().enumerate();
        base.find(|(i, r)| matches(r) && !self.deleted.contains(i))
            .map(|(i, _)| Slot::Base(i))
            .or_else(|| self.appended.iter().position(matches).map(Slot::Appended))
    }

    /// The live row holding `key`. A key that no live row holds fails
    /// without a scan.
    fn find_key(&self, key: &Row) -> Result<Slot, EngineError> {
        let matches = self.base.key_matcher(key)?;
        let slot = if self.key_taken(key) {
            self.find(matches)
        } else {
            None
        };
        slot.ok_or_else(|| self.base.no_such_row(key))
    }

    /// Delete a live row, freeing its key, and return it.
    fn remove(&mut self, slot: Slot) -> Row {
        let row = match slot {
            Slot::Base(i) => {
                self.deleted.insert(i);
                self.base.rows[i].clone()
            }
            Slot::Appended(i) => self.appended.remove(i),
        };
        if let Some(key) = self.base.key_of(&row) {
            self.added_keys.remove(&key);
            self.freed_keys.insert(key);
        }
        row
    }

    fn insert(&mut self, row: Row) -> Result<(), EngineError> {
        if let Some(key) = self.base.check_row(&row, |key| self.key_taken(key))? {
            self.added_keys.insert(key);
        }
        self.appended.push(row);
        Ok(())
    }

    /// Replay one operation, recording the rows it retracts and inserts.
    fn apply(&mut self, op: &WriteOp) -> Result<(), EngineError> {
        match op {
            WriteOp::Insert { row, .. } => {
                self.insert(row.clone())?;
                self.signed.add(row.clone(), 1);
            }
            WriteOp::Delete { row, .. } => {
                let slot = self
                    .find(|r| r == row)
                    .ok_or_else(|| self.base.no_such_row(row))?;
                let old = self.remove(slot);
                self.signed.add(old, -1);
            }
            WriteOp::DeleteByKey { key, .. } => {
                let slot = self.find_key(key)?;
                let old = self.remove(slot);
                self.signed.add(old, -1);
            }
            WriteOp::Update { key, row, .. } => {
                let slot = self.find_key(key)?;
                let old = self.remove(slot);
                self.insert(row.clone())?;
                self.signed.add(old, -1);
                self.signed.add(row.clone(), 1);
            }
        }
        Ok(())
    }
}

impl Storage {
    /// Replay a batch against an overlay per affected table and normalise
    /// it into a [`StorageDelta`]. Nothing in `self` changes and no table is
    /// copied; an `Err` means some operation was invalid (unknown table or
    /// row, arity or type violation, duplicate key) and the batch must be
    /// rejected wholesale.
    ///
    /// The returned delta's retractions are a sub-multiset of the current
    /// (pre-state) tables, so [`Storage::apply_delta`] cannot fail.
    pub(crate) fn validate_batch(&self, batch: &WriteBatch) -> Result<StorageDelta, EngineError> {
        let mut overlays: BTreeMap<&str, Overlay<'_>> = BTreeMap::new();
        for op in &batch.ops {
            let overlay = match overlays.entry(op.table()) {
                Entry::Occupied(entry) => entry.into_mut(),
                Entry::Vacant(entry) => entry.insert(Overlay::new(self.table(op.table())?)),
            };
            overlay.apply(op)?;
        }
        Ok(StorageDelta {
            tables: overlays
                .into_iter()
                .map(|(n, o)| (n.to_string(), o.signed.into_delta()))
                .collect(),
        })
    }

    /// Commit a delta produced by [`Storage::validate_batch`]: per table,
    /// remove each retracted row at its first occurrence, then append the
    /// inserted rows. Panics if a retracted row is absent (the validate
    /// phase guarantees it is not).
    pub(crate) fn apply_delta(&mut self, delta: &StorageDelta) {
        for (name, table_delta) in &delta.tables {
            if table_delta.is_empty() {
                continue;
            }
            let table = self
                .table_mut(name)
                .expect("validate_batch checked the table exists");
            for row in &table_delta.retract {
                table
                    .delete(row)
                    .expect("validate_batch checked the retraction applies");
            }
            for row in &table_delta.insert {
                table
                    .insert(row.clone())
                    .expect("validate_batch checked the insertion applies");
            }
        }
    }

    /// Validate and commit a write batch, returning the typed delta it
    /// induced. The batch applies atomically: any invalid operation rejects
    /// the whole batch with storage untouched.
    ///
    /// ```
    /// use sqlengine::delta::WriteBatch;
    /// use sqlengine::storage::{ColumnType, Storage, TableDef};
    /// use sqlengine::value::SqlValue;
    ///
    /// let mut storage = Storage::new();
    /// storage
    ///     .create_table(
    ///         TableDef::new("t", vec![("id", ColumnType::Int), ("name", ColumnType::Text)])
    ///             .with_key(vec!["id"]),
    ///     )
    ///     .unwrap();
    /// storage.insert("t", vec![SqlValue::Int(1), SqlValue::str("a")]).unwrap();
    ///
    /// // Insert one row and rename another; the delta records an insertion
    /// // for the new row and a retraction + insertion for the update.
    /// let batch = WriteBatch::new()
    ///     .insert("t", vec![SqlValue::Int(2), SqlValue::str("b")])
    ///     .update("t", vec![SqlValue::Int(1)], vec![SqlValue::Int(1), SqlValue::str("z")]);
    /// let delta = storage.apply_batch(&batch).unwrap();
    ///
    /// let t = delta.get("t").unwrap();
    /// assert_eq!(t.retract, vec![vec![SqlValue::Int(1), SqlValue::str("a")]]);
    /// assert_eq!(t.insert.len(), 2);
    /// assert_eq!(storage.table("t").unwrap().len(), 2);
    /// ```
    pub fn apply_batch(&mut self, batch: &WriteBatch) -> Result<StorageDelta, EngineError> {
        let delta = self.validate_batch(batch)?;
        self.apply_delta(&delta);
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ColumnType, TableDef};
    use crate::value::SqlValue;

    fn storage() -> Storage {
        let mut s = Storage::new();
        s.create_table(
            TableDef::new(
                "t",
                vec![("id", ColumnType::Int), ("name", ColumnType::Text)],
            )
            .with_key(vec!["id"]),
        )
        .unwrap();
        for (id, name) in [(1, "a"), (2, "b")] {
            s.insert("t", vec![SqlValue::Int(id), SqlValue::str(name)])
                .unwrap();
        }
        s
    }

    fn row(id: i64, name: &str) -> Row {
        vec![SqlValue::Int(id), SqlValue::str(name)]
    }

    #[test]
    fn a_net_zero_batch_emits_an_empty_delta_and_changes_nothing() {
        let mut s = storage();
        let before = s.clone();
        let batch = WriteBatch::new()
            .insert("t", row(3, "c"))
            .delete("t", row(3, "c"));
        let delta = s.apply_batch(&batch).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.row_count(), 0);
        assert!(!delta.touches("t"));
        assert_eq!(s, before);
    }

    #[test]
    fn an_update_normalises_to_a_delete_plus_an_insert() {
        let mut s1 = storage();
        let mut s2 = storage();
        let update = WriteBatch::new().update("t", vec![SqlValue::Int(2)], row(2, "bb"));
        let delete_insert = WriteBatch::new()
            .delete("t", row(2, "b"))
            .insert("t", row(2, "bb"));
        let d1 = s1.apply_batch(&update).unwrap();
        let d2 = s2.apply_batch(&delete_insert).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
        assert_eq!(d1.get("t").unwrap().retract, vec![row(2, "b")]);
        assert_eq!(d1.get("t").unwrap().insert, vec![row(2, "bb")]);
    }

    #[test]
    fn an_invalid_batch_rejects_wholesale() {
        let mut s = storage();
        let before = s.clone();
        // The insert is fine, the duplicate key is not: nothing applies.
        let batch = WriteBatch::new()
            .insert("t", row(3, "c"))
            .insert("t", row(1, "dup"));
        assert!(matches!(
            s.apply_batch(&batch),
            Err(EngineError::DuplicateKey { .. })
        ));
        assert_eq!(s, before);
        // Deleting a missing row also rejects.
        assert!(matches!(
            s.apply_batch(&WriteBatch::new().delete("t", row(9, "x"))),
            Err(EngineError::NoSuchRow { .. })
        ));
        // So does touching a missing table.
        assert!(matches!(
            s.apply_batch(&WriteBatch::new().insert("nope", row(1, "a"))),
            Err(EngineError::NoSuchTable(_))
        ));
    }

    #[test]
    fn validation_sees_earlier_operations_in_the_same_batch() {
        let mut s = storage();
        // Key 1 is freed by the delete, so re-inserting it is valid.
        let batch = WriteBatch::new()
            .delete_by_key("t", vec![SqlValue::Int(1)])
            .insert("t", row(1, "fresh"));
        let delta = s.apply_batch(&batch).unwrap();
        assert_eq!(delta.get("t").unwrap().retract, vec![row(1, "a")]);
        assert_eq!(delta.get("t").unwrap().insert, vec![row(1, "fresh")]);
        assert_eq!(
            s.table("t").unwrap().rows,
            vec![row(2, "b"), row(1, "fresh")]
        );
    }

    #[test]
    fn apply_delta_removes_first_occurrences_and_appends() {
        let mut s = Storage::new();
        s.create_table(TableDef::new("bag", vec![("x", ColumnType::Int)]))
            .unwrap();
        for x in [7, 8, 7] {
            s.insert("bag", vec![SqlValue::Int(x)]).unwrap();
        }
        let batch = WriteBatch::new()
            .delete("bag", vec![SqlValue::Int(7)])
            .insert("bag", vec![SqlValue::Int(9)]);
        s.apply_batch(&batch).unwrap();
        assert_eq!(
            s.table("bag").unwrap().rows,
            vec![
                vec![SqlValue::Int(8)],
                vec![SqlValue::Int(7)],
                vec![SqlValue::Int(9)],
            ]
        );
    }
}

/// `validate_batch` replays a batch on overlays; the reference replays it
/// one operation at a time on a copy of the storage. The two must agree on
/// every batch.
#[cfg(test)]
mod overlay_differential {
    use super::*;
    use crate::storage::{ColumnType, TableDef};
    use crate::value::SqlValue;

    /// splitmix64, inline: `sqlengine` does not depend on `datagen`.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
            (!items.is_empty()).then(|| &items[self.below(items.len() as u64) as usize])
        }
    }

    const KEYS: i64 = 24;

    fn keyed_row(id: Option<i64>, name: &str) -> Row {
        vec![
            id.map_or(SqlValue::Null, SqlValue::Int),
            SqlValue::str(name),
        ]
    }

    fn bag_row(rng: &mut Rng) -> Row {
        vec![
            SqlValue::Int(rng.below(4) as i64),
            SqlValue::str(["a", "b"][rng.below(2) as usize]),
        ]
    }

    fn name(rng: &mut Rng) -> &'static str {
        ["p", "q", "r"][rng.below(3) as usize]
    }

    /// A key of the keyed table: usually one no live row holds (or a reused
    /// freed one), sometimes any key in range, which may collide.
    fn new_key(rng: &mut Rng, s: &Storage) -> Option<i64> {
        let t = s.table("k").unwrap();
        if rng.chance(3) {
            return None;
        }
        let free: Vec<i64> = (0..KEYS)
            .filter(|&id| !t.has_key(&vec![SqlValue::Int(id)]))
            .collect();
        match rng.pick(&free) {
            Some(&id) if rng.chance(80) => Some(id),
            _ => Some(rng.below(KEYS as u64) as i64),
        }
    }

    /// A key for a keyed write: a live row's key, or a missing, `NULL` or
    /// ill-shaped one.
    fn target_key(rng: &mut Rng, s: &Storage) -> Row {
        let t = s.table("k").unwrap();
        match rng.below(40) {
            0 => vec![SqlValue::Null],
            1 => vec![SqlValue::Int(1), SqlValue::Int(2)],
            2 | 3 => vec![SqlValue::Int(rng.below(KEYS as u64 + 4) as i64)],
            _ => rng
                .pick(&t.rows)
                .map_or(vec![SqlValue::Int(0)], |r| vec![r[0].clone()]),
        }
    }

    /// One operation, drawn against the state the batch has reached so far
    /// (`s`), so it can address rows the batch added; `gone` holds rows the
    /// batch deleted, for deleting them a second time.
    fn gen_op(rng: &mut Rng, s: &Storage, gone: &[(String, Row)]) -> WriteOp {
        let k = s.table("k").unwrap();
        let bag = s.table("bag").unwrap();
        match rng.below(100) {
            0 => WriteOp::Insert {
                table: "nope".into(),
                row: keyed_row(Some(1), "x"),
            },
            1 => WriteOp::Insert {
                table: "k".into(),
                row: if rng.chance(50) {
                    vec![SqlValue::Int(1)]
                } else {
                    vec![SqlValue::str("1"), SqlValue::str("x")]
                },
            },
            2..=21 => WriteOp::Insert {
                table: "k".into(),
                row: keyed_row(new_key(rng, s), name(rng)),
            },
            22..=36 => WriteOp::Insert {
                table: "bag".into(),
                row: bag_row(rng),
            },
            37..=62 => {
                // A delete picks its table in proportion to size, which
                // keeps both tables small.
                let (table, rows) = if rng.below((k.len() + bag.len()) as u64 + 1) < k.len() as u64
                {
                    ("k", &k.rows)
                } else {
                    ("bag", &bag.rows)
                };
                let row = match rng.below(20) {
                    0 => keyed_row(Some(KEYS + 1), "gone"),
                    1 | 2 => match rng.pick(gone) {
                        Some((t, r)) if *t == table => r.clone(),
                        _ => rng.pick(rows).cloned().unwrap_or_else(|| bag_row(rng)),
                    },
                    _ => rng.pick(rows).cloned().unwrap_or_else(|| bag_row(rng)),
                };
                WriteOp::Delete {
                    table: table.into(),
                    row,
                }
            }
            63..=74 => WriteOp::DeleteByKey {
                table: "k".into(),
                key: target_key(rng, s),
            },
            75..=97 => {
                let key = target_key(rng, s);
                let row = if rng.chance(50) {
                    vec![key[0].clone(), SqlValue::str(name(rng))]
                } else {
                    keyed_row(new_key(rng, s), name(rng))
                };
                WriteOp::Update {
                    table: "k".into(),
                    key,
                    row,
                }
            }
            _ => {
                let key = vec![SqlValue::Int(0)];
                if rng.chance(50) {
                    WriteOp::DeleteByKey {
                        table: "bag".into(),
                        key,
                    }
                } else {
                    WriteOp::Update {
                        table: "bag".into(),
                        key,
                        row: bag_row(rng),
                    }
                }
            }
        }
    }

    /// Replay one operation on a copy of the storage, the reference the
    /// overlay must agree with: a keyed write finds its row by a scan, and
    /// an update is checked against every other row's key before the old
    /// row leaves and the new one is appended. Records the signed rows as
    /// the clone-based validation did.
    fn replay(
        s: &mut Storage,
        signed: &mut BTreeMap<String, SignedRows>,
        op: &WriteOp,
    ) -> Result<Option<Row>, EngineError> {
        let name = op.table();
        let t = s.table_mut(name)?;
        let signed = signed.entry(name.to_string()).or_default();
        let keyed = |t: &Table, key: &Row| -> Result<Row, EngineError> {
            let matches = t.key_matcher(key)?;
            let row = t.rows.iter().find(|r| matches(r));
            row.cloned().ok_or_else(|| t.no_such_row(key))
        };
        match op {
            WriteOp::Insert { row, .. } => {
                t.insert(row.clone())?;
                signed.add(row.clone(), 1);
                Ok(None)
            }
            WriteOp::Delete { row, .. } => {
                t.delete(row)?;
                signed.add(row.clone(), -1);
                Ok(Some(row.clone()))
            }
            WriteOp::DeleteByKey { key, .. } => {
                let old = keyed(t, key)?;
                t.delete(&old)?;
                signed.add(old.clone(), -1);
                Ok(Some(old))
            }
            WriteOp::Update { key, row, .. } => {
                let old = keyed(t, key)?;
                t.check_row(row, |k| k != key && t.has_key(k))?;
                t.delete(&old)?;
                t.insert(row.clone())?;
                signed.add(old.clone(), -1);
                signed.add(row.clone(), 1);
                Ok(Some(old))
            }
        }
    }

    fn sorted_rows(s: &Storage, table: &str) -> Vec<String> {
        let mut rows: Vec<String> = s
            .table(table)
            .unwrap()
            .rows
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn the_overlay_agrees_with_a_per_operation_replay() {
        let mut s = Storage::new();
        s.create_table(
            TableDef::new(
                "k",
                vec![("id", ColumnType::Int), ("name", ColumnType::Text)],
            )
            .with_key(vec!["id"]),
        )
        .unwrap();
        s.create_table(TableDef::new(
            "bag",
            vec![("x", ColumnType::Int), ("s", ColumnType::Text)],
        ))
        .unwrap();
        let mut rng = Rng(0x5eed);
        let (mut accepted, mut errors) = (0, BTreeMap::<String, usize>::new());
        for _ in 0..2500 {
            // Draw the batch against the reference as it replays, so later
            // operations can address rows earlier ones added or deleted.
            let mut reference = s.clone();
            let mut signed = BTreeMap::new();
            let mut gone = Vec::new();
            let mut batch = WriteBatch::new();
            let mut expected = Ok(());
            for _ in 0..1 + rng.below(16) {
                let op = gen_op(&mut rng, &reference, &gone);
                batch.ops.push(op.clone());
                if expected.is_err() {
                    continue; // validation must stop at the first error
                }
                match replay(&mut reference, &mut signed, &op) {
                    Ok(Some(row)) => gone.push((op.table().to_string(), row)),
                    Ok(None) => {}
                    Err(e) => expected = Err(e),
                }
            }
            let got = s.validate_batch(&batch);
            match (&expected, &got) {
                (Err(want), Err(got)) => {
                    assert_eq!(want.to_string(), got.to_string(), "{batch:?}");
                    let kind = format!("{want:?}");
                    let kind = kind.split([' ', '(']).next().unwrap().to_string();
                    *errors.entry(kind).or_default() += 1;
                }
                (Ok(()), Ok(delta)) => {
                    let want = StorageDelta {
                        tables: signed
                            .into_iter()
                            .map(|(n, s)| (n, s.into_delta()))
                            .collect(),
                    };
                    assert_eq!(delta, &want, "{batch:?}");
                    s.apply_delta(delta);
                    for table in ["k", "bag"] {
                        assert_eq!(sorted_rows(&s, table), sorted_rows(&reference, table));
                    }
                    accepted += 1;
                }
                _ => panic!("{batch:?}: replay gave {expected:?}, the overlay {got:?}"),
            }
        }
        assert!(accepted >= 500, "only {accepted} batches were accepted");
        for kind in [
            "NoSuchTable",
            "ArityMismatch",
            "ColumnTypeMismatch",
            "DuplicateKey",
            "NoSuchRow",
            "NoDeclaredKey",
        ] {
            assert!(
                errors.get(kind).is_some_and(|&n| n >= 20),
                "too few {kind} rejections: {errors:?}"
            );
        }
    }
}
