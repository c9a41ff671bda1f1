//! In-memory storage: tables, schemas and the catalog.
//!
//! This replaces the PostgreSQL instance used by the paper's evaluation. Rows
//! are stored column-positionally per table; the executor works directly over
//! these vectors.

use crate::error::EngineError;
use crate::value::{Row, SqlValue};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Int,
    Bool,
    Text,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => write!(f, "integer"),
            ColumnType::Bool => write!(f, "boolean"),
            ColumnType::Text => write!(f, "text"),
        }
    }
}

impl ColumnType {
    /// Does a value inhabit this column type? `NULL` inhabits every type.
    pub fn admits(&self, v: &SqlValue) -> bool {
        matches!(
            (self, v),
            (_, SqlValue::Null)
                | (ColumnType::Int, SqlValue::Int(_))
                | (ColumnType::Bool, SqlValue::Bool(_))
                | (ColumnType::Text, SqlValue::Str(_))
        )
    }
}

/// The schema of a stored table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    pub name: String,
    pub columns: Vec<(String, ColumnType)>,
    /// Key columns (unique per row) if declared; used by natural indexing.
    pub key: Vec<String>,
}

impl TableDef {
    /// A new table definition without a key.
    pub fn new<S: Into<String>>(name: S, columns: Vec<(&str, ColumnType)>) -> TableDef {
        TableDef {
            name: name.into(),
            columns: columns
                .into_iter()
                .map(|(c, t)| (c.to_string(), t))
                .collect(),
            key: Vec::new(),
        }
    }

    /// Declare key columns.
    pub fn with_key(mut self, key: Vec<&str>) -> TableDef {
        self.key = key.into_iter().map(|s| s.to_string()).collect();
        self
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(c, _)| c == name)
    }

    /// Names of all columns, in declaration order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|(c, _)| c.clone()).collect()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// The shared column-major view a cell caches: one `Arc` per column.
type SharedColumns = Arc<Vec<Arc<Vec<SqlValue>>>>;

/// A table's columnar view, stamped with the table version it matches.
///
/// [`Table::columnar`] builds the view on a cold read and serves it while
/// the stamps agree. Every mutator patches a warm view in step with the rows
/// and re-stamps it, so a write costs one value per column, not a later
/// re-transposition. A poisoned lock is recovered, not re-panicked: a patch
/// works on a view taken out of the lock, so a panic leaves no view at all,
/// never a torn one stamped as current.
#[derive(Debug, Default)]
struct ColumnarCell {
    cache: RwLock<Option<(u64, SharedColumns)>>,
}

impl ColumnarCell {
    fn get(&self, version: u64) -> Option<SharedColumns> {
        let cache = self.cache.read().unwrap_or_else(PoisonError::into_inner);
        match cache.as_ref() {
            Some((v, cols)) if *v == version => Some(cols.clone()),
            _ => None,
        }
    }

    fn put(&self, version: u64, cols: SharedColumns) {
        *self.cache.write().unwrap_or_else(PoisonError::into_inner) = Some((version, cols));
    }

    /// Carry a view built at `version` over to `version + 1` by applying
    /// `edit` to its columns. Columns a reader still holds are copied on
    /// write (`Arc::make_mut`), so the reader keeps its snapshot. A view at
    /// any other version is dropped: the next read rebuilds it.
    fn patch(&mut self, version: u64, edit: impl FnOnce(&mut [Arc<Vec<SqlValue>>])) {
        let cache = self.cache.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some((v, mut cols)) = cache.take() {
            if v == version {
                edit(Arc::make_mut(&mut cols).as_mut_slice());
                *cache = Some((version + 1, cols));
            }
        }
    }
}

/// A stored table: a definition plus its rows.
///
/// Rows must be added through [`Table::insert`] and removed or replaced
/// through [`Table::delete`] / [`Table::update`] (or the [`Storage`] entry
/// points), which enforce the schema — arity, column types and the key
/// declared with [`TableDef::with_key`] — and keep the cached columnar view
/// in step with the rows.
#[derive(Debug)]
pub struct Table {
    pub def: TableDef,
    /// The rows, in scan order. Read freely; write only through the
    /// mutators. A direct mutation bypasses the version stamp, so
    /// [`Table::columnar`] would go on serving the columns of the old rows,
    /// and it bypasses the key bookkeeping too.
    pub rows: Vec<Row>,
    /// Key values seen so far, for O(1) duplicate-key detection.
    key_seen: HashSet<Row>,
    /// Bumped by every mutation; pairs with `columnar` so cached column
    /// vectors are served only while they match the current contents.
    version: u64,
    /// Column-major view served to the vectorized executor: transposed on
    /// the first read, then patched by every mutation. Behind an `RwLock`
    /// so concurrent readers of a shared table can build it without `&mut`
    /// access.
    columnar: ColumnarCell,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            def: self.def.clone(),
            rows: self.rows.clone(),
            key_seen: self.key_seen.clone(),
            version: self.version,
            columnar: ColumnarCell::default(),
        }
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.def == other.def && self.rows == other.rows
    }
}

impl Table {
    /// An empty table.
    pub fn new(def: TableDef) -> Table {
        Table {
            def,
            rows: Vec::new(),
            key_seen: HashSet::new(),
            version: 0,
            columnar: ColumnarCell::default(),
        }
    }

    /// The non-`NULL` key projection of a row, when the table declares a key
    /// (rows whose key contains `NULL` never participate in uniqueness).
    /// The key is allocated at its exact length: `key_seen` keeps it.
    pub(crate) fn key_of(&self, row: &Row) -> Option<Row> {
        if self.def.key.is_empty() {
            return None;
        }
        let mut key = Vec::with_capacity(self.def.key.len());
        for k in &self.def.key {
            let v = &row[self.def.column_index(k)?];
            if v.is_null() {
                return None;
            }
            key.push(v.clone());
        }
        Some(key)
    }

    /// Does a live row hold this (non-`NULL`) key?
    pub(crate) fn has_key(&self, key: &Row) -> bool {
        self.key_seen.contains(key)
    }

    /// Insert a row after checking its arity, column types and — when the
    /// table declares a key — key uniqueness. A row whose key contains
    /// `NULL` is never considered a duplicate (SQL `UNIQUE` semantics; the
    /// natural indexing scheme pads key columns with `NULL`).
    pub fn insert(&mut self, row: Row) -> Result<(), EngineError> {
        if let Some(key) = self.check_row(&row, |key| self.key_seen.contains(key))? {
            self.key_seen.insert(key);
        }
        self.mutated(|cols| {
            for (col, v) in cols.iter_mut().zip(&row) {
                Arc::make_mut(col).push(v.clone());
            }
        });
        self.rows.push(row);
        Ok(())
    }

    /// Check a row for insertion: its arity, then its column types, then —
    /// when the table declares a key — that `key_taken` does not hold for
    /// its key. Returns the key the row would occupy. The one copy of the
    /// check, shared by [`Table::insert`] and batch validation, which passes
    /// the keys as the batch has left them.
    pub(crate) fn check_row(
        &self,
        row: &Row,
        key_taken: impl Fn(&Row) -> bool,
    ) -> Result<Option<Row>, EngineError> {
        if row.len() != self.def.arity() {
            return Err(EngineError::ArityMismatch {
                table: self.def.name.clone(),
                expected: self.def.arity(),
                got: row.len(),
            });
        }
        for ((name, ty), v) in self.def.columns.iter().zip(row) {
            if !ty.admits(v) {
                return Err(EngineError::ColumnTypeMismatch {
                    table: self.def.name.clone(),
                    column: name.clone(),
                    expected: *ty,
                    got: v.type_name().to_string(),
                });
            }
        }
        match self.key_of(row) {
            Some(key) if key_taken(&key) => Err(EngineError::DuplicateKey {
                table: self.def.name.clone(),
                key,
            }),
            key => Ok(key),
        }
    }

    /// Delete the first row equal to `row`. Errors when no such row exists;
    /// the row's key (if any) becomes available for re-insertion.
    pub fn delete(&mut self, row: &Row) -> Result<(), EngineError> {
        let idx = self
            .rows
            .iter()
            .position(|r| r == row)
            .ok_or_else(|| self.no_such_row(row))?;
        self.delete_at(idx);
        Ok(())
    }

    /// Delete the row whose key columns equal `key`, returning the deleted
    /// row. The table must declare a key.
    pub fn delete_by_key(&mut self, key: &Row) -> Result<Row, EngineError> {
        let idx = self.position_by_key(key)?;
        let row = self.rows[idx].clone();
        self.delete_at(idx);
        Ok(row)
    }

    /// Replace the row whose key columns equal `key` with `row`, returning
    /// the previous row. The replacement is validated like an insert (arity,
    /// column types, key uniqueness against every *other* row), and the
    /// updated row moves to the end of the table — an update is a delete
    /// plus an insert, exactly the normal form the delta layer emits.
    pub fn update(&mut self, key: &Row, row: Row) -> Result<Row, EngineError> {
        let idx = self.position_by_key(key)?;
        let old = self.rows[idx].clone();
        self.delete_at(idx);
        match self.insert(row) {
            Ok(()) => Ok(old),
            Err(e) => {
                // Roll the delete back so a rejected update leaves the table
                // untouched (the old row returns at the end; multiset
                // contents are what the engine guarantees).
                self.insert(old).expect("reinserting the old row succeeds");
                Err(e)
            }
        }
    }

    fn position_by_key(&self, key: &Row) -> Result<usize, EngineError> {
        let matches = self.key_matcher(key)?;
        self.rows
            .iter()
            .position(matches)
            .ok_or_else(|| self.no_such_row(key))
    }

    /// A predicate on rows that holds where the declared-key columns equal
    /// `key`, compared in place. A key holding `NULL` matches no row, as
    /// `key_of` never yields one. Errors when the table declares no key.
    pub(crate) fn key_matcher<'k>(
        &self,
        key: &'k Row,
    ) -> Result<impl Fn(&Row) -> bool + 'k, EngineError> {
        if self.def.key.is_empty() {
            return Err(EngineError::NoDeclaredKey(self.def.name.clone()));
        }
        let cols: Option<Vec<usize>> = self
            .def
            .key
            .iter()
            .map(|k| self.def.column_index(k))
            .collect();
        let cols =
            cols.filter(|cols| cols.len() == key.len() && !key.iter().any(SqlValue::is_null));
        Ok(move |r: &Row| {
            cols.as_ref()
                .is_some_and(|cols| cols.iter().zip(key).all(|(&c, k)| r[c] == *k))
        })
    }

    /// The error for a delete or update that addresses no row.
    pub(crate) fn no_such_row(&self, row: &Row) -> EngineError {
        EngineError::NoSuchRow {
            table: self.def.name.clone(),
            row: row.clone(),
        }
    }

    fn delete_at(&mut self, idx: usize) {
        let row = self.rows.remove(idx);
        if let Some(key) = self.key_of(&row) {
            self.key_seen.remove(&key);
        }
        self.mutated(|cols| {
            for col in cols {
                Arc::make_mut(col).remove(idx);
            }
        });
    }

    /// Bump the version after a mutation, carrying a warm columnar view
    /// across with `edit` — the mutation's effect on the columns.
    fn mutated(&mut self, edit: impl FnOnce(&mut [Arc<Vec<SqlValue>>])) {
        self.columnar.patch(self.version, edit);
        self.version += 1;
    }

    /// The column-major view of the table: one shared vector per column, in
    /// declaration order. A cold read transposes the rows (thread-safely:
    /// any number of concurrent readers may trigger the build); from then
    /// on every mutation patches the cached view in place, so a read after a
    /// write costs no re-transposition. The vectorized executor scans these
    /// vectors zero-copy, and the `Arc`s let batches outlive the borrow and
    /// cross threads: a view a reader holds is a snapshot, which later
    /// writes copy on write instead of changing.
    pub fn columnar(&self) -> Arc<Vec<Arc<Vec<SqlValue>>>> {
        if let Some(cols) = self.columnar.get(self.version) {
            return cols;
        }
        let mut columns: Vec<Vec<SqlValue>> = (0..self.def.arity())
            .map(|_| Vec::with_capacity(self.rows.len()))
            .collect();
        for row in &self.rows {
            for (c, v) in row.iter().enumerate() {
                columns[c].push(v.clone());
            }
        }
        let built: Arc<Vec<Arc<Vec<SqlValue>>>> =
            Arc::new(columns.into_iter().map(Arc::new).collect());
        self.columnar.put(self.version, built.clone());
        built
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The catalog of stored tables — an in-memory stand-in for a database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Storage {
    tables: BTreeMap<String, Table>,
}

impl Storage {
    /// An empty storage.
    pub fn new() -> Storage {
        Storage::default()
    }

    /// Create a table.
    pub fn create_table(&mut self, def: TableDef) -> Result<(), EngineError> {
        if self.tables.contains_key(&def.name) {
            return Err(EngineError::TableExists(def.name));
        }
        self.tables.insert(def.name.clone(), Table::new(def));
        Ok(())
    }

    /// Insert a row into a table.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), EngineError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| EngineError::NoSuchTable(table.to_string()))?
            .insert(row)
    }

    /// Delete the first row of `table` equal to `row`.
    pub fn delete(&mut self, table: &str, row: &Row) -> Result<(), EngineError> {
        self.table_mut(table)?.delete(row)
    }

    /// Delete the row of `table` whose key equals `key`, returning it.
    pub fn delete_by_key(&mut self, table: &str, key: &Row) -> Result<Row, EngineError> {
        self.table_mut(table)?.delete_by_key(key)
    }

    /// Replace the row of `table` whose key equals `key`, returning the
    /// previous row.
    pub fn update(&mut self, table: &str, key: &Row, row: Row) -> Result<Row, EngineError> {
        self.table_mut(table)?.update(key, row)
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table, EngineError> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::NoSuchTable(name.to_string()))
    }

    /// Look up a table mutably.
    pub(crate) fn table_mut(&mut self, name: &str) -> Result<&mut Table, EngineError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| EngineError::NoSuchTable(name.to_string()))
    }

    /// Iterate over tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }
}

/// A columnar query result: the native output of the vectorized executor.
///
/// One shared (`Arc`) value vector per named column, plus an explicit row
/// count (a result may have zero columns but a positive row count, e.g.
/// `SELECT` over an empty projection). Columns are shared, not owned:
/// cloning a `ColumnarResult` is a handful of refcount bumps, and consumers
/// that decode columns (the shredding stitcher) take them by value without
/// copying cell data. The row-major [`ResultSet`] is derived from this via
/// [`ColumnarResult::into_result_set`] — the transpose only happens for
/// consumers that genuinely want rows (the interpreter oracle, text tables,
/// the baselines' row decoders).
#[derive(Debug, Clone)]
pub struct ColumnarResult {
    /// Column names, in `SELECT` order.
    pub columns: Vec<String>,
    cols: Vec<Arc<Vec<SqlValue>>>,
    rows: usize,
}

impl ColumnarResult {
    /// Assemble a columnar result. Every column vector must hold exactly
    /// `rows` values.
    pub fn new(columns: Vec<String>, cols: Vec<Arc<Vec<SqlValue>>>, rows: usize) -> ColumnarResult {
        debug_assert_eq!(columns.len(), cols.len());
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        ColumnarResult {
            columns,
            cols,
            rows,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Is the result empty?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The shared data of the `idx`-th column.
    pub fn column(&self, idx: usize) -> &Arc<Vec<SqlValue>> {
        &self.cols[idx]
    }

    /// The shared data of a column by name.
    pub fn column_by_name(&self, name: &str) -> Option<&Arc<Vec<SqlValue>>> {
        self.column_index(name).map(|i| &self.cols[i])
    }

    /// The value at (row, column name), if both exist.
    pub fn value(&self, row: usize, column: &str) -> Option<&SqlValue> {
        self.column_by_name(column).and_then(|c| c.get(row))
    }

    /// Take ownership of the shared column vectors, dropping the names.
    /// This is the zero-copy hand-off into the columnar decode + stitch
    /// path: the `Arc`s move, no cell is cloned.
    pub fn into_columns(self) -> Vec<Arc<Vec<SqlValue>>> {
        self.cols
    }

    /// The column→row converter: transpose into a row-major [`ResultSet`].
    /// This is the compatibility shim for row-oriented consumers (baseline
    /// decoders, differential tests against the interpreter); the columnar
    /// stitch path never calls it.
    pub fn into_result_set(self) -> ResultSet {
        let rows = (0..self.rows)
            .map(|r| self.cols.iter().map(|c| c[r].clone()).collect())
            .collect();
        ResultSet {
            columns: self.columns,
            rows,
        }
    }
}

impl PartialEq for ColumnarResult {
    fn eq(&self, other: &ColumnarResult) -> bool {
        self.columns == other.columns && self.rows == other.rows && self.cols == other.cols
    }
}

/// A result set: named columns plus rows, as returned by the executor.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// An empty result set with the given columns.
    pub fn empty(columns: Vec<String>) -> ResultSet {
        ResultSet {
            columns,
            rows: Vec::new(),
        }
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the result empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The value at (row, column name), if both exist.
    pub fn value(&self, row: usize, column: &str) -> Option<&SqlValue> {
        let idx = self.column_index(column)?;
        self.rows.get(row).and_then(|r| r.get(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def() -> TableDef {
        TableDef::new(
            "t",
            vec![("id", ColumnType::Int), ("name", ColumnType::Text)],
        )
        .with_key(vec!["id"])
    }

    #[test]
    fn insert_checks_arity_and_types() {
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        assert!(s
            .insert("t", vec![SqlValue::Int(1), SqlValue::str("a")])
            .is_ok());
        assert!(matches!(
            s.insert("t", vec![SqlValue::Int(1)]),
            Err(EngineError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.insert("t", vec![SqlValue::str("x"), SqlValue::str("a")]),
            Err(EngineError::ColumnTypeMismatch { .. })
        ));
    }

    #[test]
    fn null_is_admitted_by_every_column_type() {
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        assert!(s.insert("t", vec![SqlValue::Null, SqlValue::Null]).is_ok());
    }

    #[test]
    fn declared_keys_reject_duplicate_rows() {
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        s.insert("t", vec![SqlValue::Int(1), SqlValue::str("a")])
            .unwrap();
        s.insert("t", vec![SqlValue::Int(2), SqlValue::str("a")])
            .unwrap();
        let err = s
            .insert("t", vec![SqlValue::Int(1), SqlValue::str("b")])
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::DuplicateKey { table, key }
                if table == "t" && key == &vec![SqlValue::Int(1)]),
            "got: {}",
            err
        );
        assert_eq!(s.table("t").unwrap().len(), 2, "the duplicate is rejected");
    }

    #[test]
    fn null_keys_and_keyless_tables_admit_repeats() {
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        // NULL never collides with NULL (SQL UNIQUE semantics).
        s.insert("t", vec![SqlValue::Null, SqlValue::str("a")])
            .unwrap();
        s.insert("t", vec![SqlValue::Null, SqlValue::str("b")])
            .unwrap();
        // A table without a key accepts fully duplicate rows.
        s.create_table(TableDef::new("bag", vec![("x", ColumnType::Int)]))
            .unwrap();
        s.insert("bag", vec![SqlValue::Int(7)]).unwrap();
        s.insert("bag", vec![SqlValue::Int(7)]).unwrap();
        assert_eq!(s.table("bag").unwrap().len(), 2);
    }

    #[test]
    fn the_columnar_view_transposes_rows_and_tracks_inserts() {
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        s.insert("t", vec![SqlValue::Int(1), SqlValue::str("a")])
            .unwrap();
        {
            let cols = s.table("t").unwrap().columnar();
            assert_eq!(cols.len(), 2);
            assert_eq!(*cols[0], vec![SqlValue::Int(1)]);
            assert_eq!(*cols[1], vec![SqlValue::str("a")]);
        }
        // Inserting invalidates the cached view.
        s.insert("t", vec![SqlValue::Int(2), SqlValue::str("b")])
            .unwrap();
        let cols = s.table("t").unwrap().columnar();
        assert_eq!(*cols[0], vec![SqlValue::Int(1), SqlValue::Int(2)]);
    }

    #[test]
    fn the_columnar_view_is_invalidated_by_every_mutation() {
        // Regression test for the stale-columnar-view hazard: the historical
        // `OnceLock` cache only invalidated on insert, so a read after a
        // delete or update served the old transposition.
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        for (id, name) in [(1, "a"), (2, "b"), (3, "c")] {
            s.insert("t", vec![SqlValue::Int(id), SqlValue::str(name)])
                .unwrap();
        }
        // Read once to populate the cache.
        assert_eq!(s.table("t").unwrap().columnar()[0].len(), 3);
        // Delete-by-value, then re-read: the view must shrink.
        s.delete("t", &vec![SqlValue::Int(2), SqlValue::str("b")])
            .unwrap();
        let cols = s.table("t").unwrap().columnar();
        assert_eq!(*cols[0], vec![SqlValue::Int(1), SqlValue::Int(3)]);
        // Update-by-key, then re-read: the view must show the new row (at
        // the end: an update is delete + insert).
        s.update(
            "t",
            &vec![SqlValue::Int(1)],
            vec![SqlValue::Int(1), SqlValue::str("z")],
        )
        .unwrap();
        let cols = s.table("t").unwrap().columnar();
        assert_eq!(*cols[1], vec![SqlValue::str("c"), SqlValue::str("z")]);
        // Keyed delete, then re-read.
        s.delete_by_key("t", &vec![SqlValue::Int(3)]).unwrap();
        let cols = s.table("t").unwrap().columnar();
        assert_eq!(*cols[0], vec![SqlValue::Int(1)]);
        assert_eq!(*cols[1], vec![SqlValue::str("z")]);
    }

    /// A fresh transposition of the rows, to hold the cached view against.
    fn transposed(t: &Table) -> Vec<Vec<SqlValue>> {
        (0..t.def.arity())
            .map(|c| t.rows.iter().map(|r| r[c].clone()).collect())
            .collect()
    }

    fn view(t: &Table) -> Vec<Vec<SqlValue>> {
        t.columnar().iter().map(|c| c.to_vec()).collect()
    }

    /// The addresses of a table's cached view and of each of its columns.
    /// No `Arc` is kept, so the view stays unshared.
    fn view_ptrs(t: &Table) -> Vec<*const Vec<SqlValue>> {
        let cols = t.columnar();
        let mut ptrs: Vec<_> = cols.iter().map(Arc::as_ptr).collect();
        ptrs.push(Arc::as_ptr(&cols).cast());
        ptrs
    }

    fn row(id: i64, name: &str) -> Row {
        vec![SqlValue::Int(id), SqlValue::str(name)]
    }

    #[test]
    fn every_write_keeps_a_warm_columnar_view_equal_to_the_rows() {
        use crate::delta::WriteBatch;
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        type Write = Box<dyn Fn(&mut Storage)>;
        let writes: Vec<(&str, Write)> = vec![
            ("insert", Box::new(|s| s.insert("t", row(1, "a")).unwrap())),
            ("insert", Box::new(|s| s.insert("t", row(2, "b")).unwrap())),
            ("insert", Box::new(|s| s.insert("t", row(3, "c")).unwrap())),
            ("delete", Box::new(|s| s.delete("t", &row(2, "b")).unwrap())),
            (
                "update",
                Box::new(|s| {
                    s.update("t", &vec![SqlValue::Int(1)], row(1, "z")).unwrap();
                }),
            ),
            (
                "failed update",
                Box::new(|s| {
                    let dup = s.update("t", &vec![SqlValue::Int(3)], row(1, "dup"));
                    assert!(matches!(dup, Err(EngineError::DuplicateKey { .. })));
                }),
            ),
            (
                "delete_by_key",
                Box::new(|s| {
                    s.delete_by_key("t", &vec![SqlValue::Int(3)]).unwrap();
                }),
            ),
            (
                "rejected batch",
                Box::new(|s| {
                    let batch = WriteBatch::new()
                        .insert("t", row(4, "d"))
                        .insert("t", row(1, "dup"));
                    assert!(s.apply_batch(&batch).is_err());
                }),
            ),
            (
                "accepted batch",
                Box::new(|s| {
                    let batch = WriteBatch::new()
                        .insert("t", row(4, "d"))
                        .delete("t", row(1, "z"))
                        .update("t", vec![SqlValue::Int(4)], row(4, "e"))
                        .insert("t", row(5, "f"));
                    s.apply_batch(&batch).unwrap();
                }),
            ),
        ];
        for (what, write) in writes {
            // Warm the view, so the write has one to patch.
            s.table("t").unwrap().columnar();
            write(&mut s);
            let t = s.table("t").unwrap();
            assert_eq!(view(t), transposed(t), "after {what}");
        }
        assert_eq!(s.table("t").unwrap().rows, vec![row(4, "e"), row(5, "f")]);
    }

    #[test]
    fn an_unshared_warm_view_is_patched_in_place() {
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        s.insert("t", row(1, "a")).unwrap();
        let before = view_ptrs(s.table("t").unwrap());
        s.insert("t", row(2, "b")).unwrap();
        s.delete("t", &row(1, "a")).unwrap();
        let t = s.table("t").unwrap();
        assert_eq!(view_ptrs(t), before, "the view was rebuilt, not patched");
        assert_eq!(view(t), transposed(t));
    }

    #[test]
    fn a_view_a_reader_holds_is_a_snapshot() {
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        s.insert("t", row(1, "a")).unwrap();
        s.insert("t", row(2, "b")).unwrap();
        let held = s.table("t").unwrap().columnar();
        let column = Arc::clone(&held[1]);
        s.insert("t", row(3, "c")).unwrap();
        s.delete("t", &row(1, "a")).unwrap();
        assert_eq!(*held[0], vec![SqlValue::Int(1), SqlValue::Int(2)]);
        assert_eq!(*column, vec![SqlValue::str("a"), SqlValue::str("b")]);
        let t = s.table("t").unwrap();
        assert_eq!(view(t), transposed(t));
    }

    #[test]
    fn a_rejected_batch_leaves_the_warm_view_as_it_was() {
        use crate::delta::WriteBatch;
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        s.insert("t", row(1, "a")).unwrap();
        let before = view_ptrs(s.table("t").unwrap());
        let batch = WriteBatch::new()
            .delete("t", row(1, "a"))
            .insert("t", row(2, "b"))
            .delete("t", row(9, "x"));
        assert!(s.apply_batch(&batch).is_err());
        assert_eq!(view_ptrs(s.table("t").unwrap()), before);
    }

    #[test]
    fn deletes_and_updates_maintain_key_bookkeeping() {
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        s.insert("t", vec![SqlValue::Int(1), SqlValue::str("a")])
            .unwrap();
        // Deleting frees the key for re-insertion.
        s.delete("t", &vec![SqlValue::Int(1), SqlValue::str("a")])
            .unwrap();
        s.insert("t", vec![SqlValue::Int(1), SqlValue::str("b")])
            .unwrap();
        // A second row, then a conflicting update is rejected atomically.
        s.insert("t", vec![SqlValue::Int(2), SqlValue::str("c")])
            .unwrap();
        let err = s
            .update(
                "t",
                &vec![SqlValue::Int(2)],
                vec![SqlValue::Int(1), SqlValue::str("dup")],
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateKey { .. }));
        assert_eq!(s.table("t").unwrap().len(), 2);
        // Missing rows and keyless keyed-writes are reported.
        assert!(matches!(
            s.delete("t", &vec![SqlValue::Int(9), SqlValue::Null]),
            Err(EngineError::NoSuchRow { .. })
        ));
        s.create_table(TableDef::new("bag", vec![("x", ColumnType::Int)]))
            .unwrap();
        assert!(matches!(
            s.delete_by_key("bag", &vec![SqlValue::Int(1)]),
            Err(EngineError::NoDeclaredKey(_))
        ));
    }

    #[test]
    fn a_null_key_never_matches_a_keyed_write() {
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        s.insert("t", vec![SqlValue::Null, SqlValue::str("a")])
            .unwrap();
        s.insert("t", vec![SqlValue::Int(1), SqlValue::str("b")])
            .unwrap();
        for key in [vec![SqlValue::Null], vec![SqlValue::Int(1), SqlValue::Null]] {
            assert!(matches!(
                s.delete_by_key("t", &key),
                Err(EngineError::NoSuchRow { .. })
            ));
            assert!(matches!(
                s.update("t", &key, vec![SqlValue::Int(2), SqlValue::str("c")]),
                Err(EngineError::NoSuchRow { .. })
            ));
        }
        assert_eq!(s.table("t").unwrap().len(), 2, "nothing was written");
        assert_eq!(
            s.delete_by_key("t", &vec![SqlValue::Int(1)]).unwrap(),
            vec![SqlValue::Int(1), SqlValue::str("b")]
        );
    }

    #[test]
    fn duplicate_table_creation_fails() {
        let mut s = Storage::new();
        s.create_table(def()).unwrap();
        assert!(matches!(
            s.create_table(def()),
            Err(EngineError::TableExists(_))
        ));
    }

    #[test]
    fn missing_table_lookup_fails() {
        let s = Storage::new();
        assert!(matches!(s.table("nope"), Err(EngineError::NoSuchTable(_))));
    }

    #[test]
    fn columnar_result_round_trips_through_rows() {
        let rs = ResultSet {
            columns: vec!["a".to_string(), "b".to_string()],
            rows: vec![
                vec![SqlValue::Int(1), SqlValue::str("x")],
                vec![SqlValue::Int(2), SqlValue::str("y")],
            ],
        };
        let cols = vec![
            vec![SqlValue::Int(1), SqlValue::Int(2)],
            vec![SqlValue::str("x"), SqlValue::str("y")],
        ];
        let cr = ColumnarResult::new(
            rs.columns.clone(),
            cols.into_iter().map(Arc::new).collect(),
            2,
        );
        assert_eq!(cr.len(), 2);
        assert_eq!(cr.width(), 2);
        assert_eq!(cr.value(1, "b"), Some(&SqlValue::str("y")));
        assert_eq!(
            **cr.column_by_name("a").unwrap(),
            vec![SqlValue::Int(1), SqlValue::Int(2)]
        );
        // Cloning shares columns (refcount bump), and the transpose gives
        // the rows back.
        assert_eq!(cr.clone().into_result_set(), rs);
    }

    #[test]
    fn result_set_accessors() {
        let rs = ResultSet {
            columns: vec!["a".to_string(), "b".to_string()],
            rows: vec![vec![SqlValue::Int(1), SqlValue::str("x")]],
        };
        assert_eq!(rs.value(0, "b"), Some(&SqlValue::str("x")));
        assert_eq!(rs.value(0, "c"), None);
        assert_eq!(rs.len(), 1);
    }
}
