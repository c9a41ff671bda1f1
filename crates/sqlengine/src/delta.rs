//! The mutation layer: write batches and the typed deltas they emit.
//!
//! A [`WriteBatch`] is an ordered list of [`WriteOp`]s. Committing one is a
//! two-phase affair: [`Storage::validate_batch`] replays the operations
//! against cloned copies of the affected tables — so a batch that would
//! violate arity, column types or a declared key is rejected *before* any
//! real table changes — and normalises the surviving operations into a
//! [`StorageDelta`]: one signed row multiset per table, with insertions and
//! retractions of the same row cancelled out (an update is exactly a delete
//! plus an insert). [`Storage::apply_delta`] then commits the delta with a
//! fixed discipline — retracted rows are removed at their first occurrence,
//! inserted rows are appended — so the post-state scan order of a table is a
//! deterministic function of its pre-state order and the delta. The
//! incremental maintenance layer relies on that: it keeps its operators'
//! columnar stores under the same retract-then-append discipline, so a store
//! and a from-scratch scan of the same table always agree on row order.

use crate::error::EngineError;
use crate::storage::Storage;
use crate::value::Row;
use std::collections::{BTreeMap, HashMap};

/// One mutation inside a [`WriteBatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Insert a full row (validated like [`crate::storage::Table::insert`]).
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

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
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
    pub fn len(&self) -> usize {
        self.retract.len() + self.insert.len()
    }

    /// Did the batch leave this table unchanged?
    pub fn is_empty(&self) -> bool {
        self.retract.is_empty() && self.insert.is_empty()
    }

    /// The delta as `(row, sign)` pairs: retractions (−1) first, then
    /// insertions (+1) — the order [`Storage::apply_delta`] commits them in.
    pub fn signed_rows(&self) -> impl Iterator<Item = (&Row, i64)> {
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
    /// The per-table deltas, in table-name order.
    pub fn tables(&self) -> impl Iterator<Item = (&str, &TableDelta)> {
        self.tables.iter().map(|(n, d)| (n.as_str(), d))
    }

    /// The delta for one table, if the batch touched it.
    pub fn get(&self, table: &str) -> Option<&TableDelta> {
        self.tables.get(table)
    }

    /// Did the batch change this table?
    pub fn touches(&self, table: &str) -> bool {
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

impl Storage {
    /// Replay a batch against clones of the affected tables and normalise it
    /// into a [`StorageDelta`]. Nothing in `self` changes; an `Err` means
    /// some operation was invalid (unknown table or row, arity or type
    /// violation, duplicate key) and the batch must be rejected wholesale.
    ///
    /// The returned delta's retractions are a sub-multiset of the current
    /// (pre-state) tables, so [`Storage::apply_delta`] cannot fail.
    pub fn validate_batch(&self, batch: &WriteBatch) -> Result<StorageDelta, EngineError> {
        let mut shadows: BTreeMap<String, crate::storage::Table> = BTreeMap::new();
        let mut signed: BTreeMap<String, SignedRows> = BTreeMap::new();
        for op in &batch.ops {
            let name = op.table();
            if !shadows.contains_key(name) {
                shadows.insert(name.to_string(), self.table(name)?.clone());
            }
            let shadow = shadows.get_mut(name).expect("shadow table just inserted");
            let signed = signed.entry(name.to_string()).or_default();
            match op {
                WriteOp::Insert { row, .. } => {
                    shadow.insert(row.clone())?;
                    signed.add(row.clone(), 1);
                }
                WriteOp::Delete { row, .. } => {
                    shadow.delete(row)?;
                    signed.add(row.clone(), -1);
                }
                WriteOp::DeleteByKey { key, .. } => {
                    let row = shadow.delete_by_key(key)?;
                    signed.add(row, -1);
                }
                WriteOp::Update { key, row, .. } => {
                    let old = shadow.update(key, row.clone())?;
                    signed.add(old, -1);
                    signed.add(row.clone(), 1);
                }
            }
        }
        Ok(StorageDelta {
            tables: signed
                .into_iter()
                .map(|(n, s)| (n, s.into_delta()))
                .collect(),
        })
    }

    /// Commit a delta produced by [`Storage::validate_batch`]: per table,
    /// remove each retracted row at its first occurrence, then append the
    /// inserted rows. Panics if a retracted row is absent (the validate
    /// phase guarantees it is not).
    pub fn apply_delta(&mut self, delta: &StorageDelta) {
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
