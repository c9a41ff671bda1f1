//! Database schemas (the fixed signature Σ of the paper) and in-memory
//! database instances used by the reference nested semantics.
//!
//! Tables are constrained to have *flat relation type*
//! `Bag ⟨ℓ1 : O1, …, ℓn : On⟩`. In SQL, tables do not have a list semantics by
//! default; following Section 2.1 we impose one by ordering rows by all
//! columns in lexicographic order of field names.

use crate::types::{BaseType, Type};
use crate::value::{compare_canonical, Value};
use std::collections::BTreeMap;
use std::fmt;

/// The schema of one table: ordered column names with base types, plus an
/// optional key (a set of columns guaranteed unique per row), which the
/// *natural* indexing scheme of Section 6.1 requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<(String, BaseType)>,
    /// Columns forming a key for the table (e.g. `["id"]`), if any.
    pub key: Vec<String>,
}

impl TableSchema {
    /// Create a table schema without a declared key.
    pub fn new<S: Into<String>>(name: S, columns: Vec<(&str, BaseType)>) -> TableSchema {
        TableSchema {
            name: name.into(),
            columns: columns
                .into_iter()
                .map(|(c, t)| (c.to_string(), t))
                .collect(),
            key: Vec::new(),
        }
    }

    /// Declare a key for the table.
    pub fn with_key(mut self, key: Vec<&str>) -> TableSchema {
        self.key = key.into_iter().map(|s| s.to_string()).collect();
        self
    }

    /// The λNRC type of this table: `Bag ⟨columns⟩`.
    pub fn row_type(&self) -> Type {
        Type::Record(
            self.columns
                .iter()
                .map(|(c, t)| (c.clone(), Type::Base(*t)))
                .collect(),
        )
    }

    /// The relation type `Bag ⟨…⟩` of the table.
    pub fn relation_type(&self) -> Type {
        Type::Bag(Box::new(self.row_type()))
    }

    /// The type of a column, if present.
    pub fn column_type(&self, column: &str) -> Option<BaseType> {
        self.columns
            .iter()
            .find(|(c, _)| c == column)
            .map(|(_, t)| *t)
    }

    /// Does the table have a declared key?
    pub fn has_key(&self) -> bool {
        !self.key.is_empty()
    }
}

/// The signature Σ: the set of tables a query may mention.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    tables: BTreeMap<String, TableSchema>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Add a table to the schema.
    pub fn add_table(&mut self, table: TableSchema) -> &mut Self {
        self.tables.insert(table.name.clone(), table);
        self
    }

    /// Builder-style variant of [`Schema::add_table`].
    pub fn with_table(mut self, table: TableSchema) -> Schema {
        self.add_table(table);
        self
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&TableSchema> {
        self.tables.get(name)
    }

    /// Iterate over tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.values()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in self.tables.values() {
            write!(f, "{}(", t.name)?;
            for (i, (c, ty)) in t.columns.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{} : {}", c, ty)?;
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

/// An in-memory database instance: an interpretation ⟦t⟧ of every table in a
/// schema as a list of flat record values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Database {
    pub schema: Schema,
    data: BTreeMap<String, Vec<Value>>,
}

impl Database {
    /// An empty database over a schema.
    pub fn new(schema: Schema) -> Database {
        let data = schema
            .tables()
            .map(|t| (t.name.clone(), Vec::new()))
            .collect();
        Database { schema, data }
    }

    /// Insert a row (a flat record value) into a table. The row is checked
    /// against the table schema.
    pub fn insert(&mut self, table: &str, row: Value) -> Result<(), DatabaseError> {
        let schema = self
            .schema
            .table(table)
            .ok_or_else(|| DatabaseError::NoSuchTable(table.to_string()))?;
        if !row.has_type(&schema.row_type()) {
            return Err(DatabaseError::RowTypeMismatch {
                table: table.to_string(),
                row: format!("{}", row),
            });
        }
        self.data
            .get_mut(table)
            .expect("data map tracks schema")
            .push(row);
        Ok(())
    }

    /// Insert a row given as label/value pairs.
    pub fn insert_row(
        &mut self,
        table: &str,
        fields: Vec<(&str, Value)>,
    ) -> Result<(), DatabaseError> {
        self.insert(table, Value::record(fields))
    }

    /// Insert many rows into one table, checking each against the table
    /// schema. Equivalent to calling [`insert`](Self::insert) per row but
    /// with constant per-batch setup: the expected row type is computed
    /// once for the whole batch instead of being rebuilt per row, which is
    /// what keeps bulk data generation (e.g. `datagen` at 256+ departments)
    /// linear with a small constant rather than paying a per-row type
    /// construction. On a type mismatch, rows before the offending one stay
    /// inserted (same granularity as repeated `insert` calls).
    pub fn insert_bulk(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Value>,
    ) -> Result<(), DatabaseError> {
        let schema = self
            .schema
            .table(table)
            .ok_or_else(|| DatabaseError::NoSuchTable(table.to_string()))?;
        let row_type = schema.row_type();
        let data = self.data.get_mut(table).expect("data map tracks schema");
        for row in rows {
            if !row.has_type(&row_type) {
                return Err(DatabaseError::RowTypeMismatch {
                    table: table.to_string(),
                    row: format!("{}", row),
                });
            }
            data.push(row);
        }
        Ok(())
    }

    /// The rows of a table in *canonical order* (ordered by all columns in
    /// lexicographic order of field names), which is the list interpretation
    /// ⟦t⟧ the paper assumes.
    pub fn table_rows(&self, table: &str) -> Result<Vec<Value>, DatabaseError> {
        let rows = self
            .data
            .get(table)
            .ok_or_else(|| DatabaseError::NoSuchTable(table.to_string()))?;
        let mut keyed: Vec<(Value, &Value)> = rows.iter().map(|r| (r.canonical(), r)).collect();
        keyed.sort_by(|a, b| compare_canonical(&a.0, &b.0));
        Ok(keyed.into_iter().map(|(_, r)| r.clone()).collect())
    }

    /// The rows of a table in insertion order (used by data generators and
    /// bulk export to the SQL engine; canonical order is only needed for the
    /// reference semantics).
    pub fn table_rows_unordered(&self, table: &str) -> Result<&[Value], DatabaseError> {
        self.data
            .get(table)
            .map(|v| v.as_slice())
            .ok_or_else(|| DatabaseError::NoSuchTable(table.to_string()))
    }

    /// Number of rows in a table (0 if absent).
    pub fn row_count(&self, table: &str) -> usize {
        self.data.get(table).map(|v| v.len()).unwrap_or(0)
    }

    /// Total number of rows in the database.
    pub fn total_rows(&self) -> usize {
        self.data.values().map(Vec::len).sum()
    }
}

/// Errors raised by database construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatabaseError {
    NoSuchTable(String),
    RowTypeMismatch { table: String, row: String },
}

impl fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatabaseError::NoSuchTable(t) => write!(f, "no such table: {}", t),
            DatabaseError::RowTypeMismatch { table, row } => {
                write!(f, "row {} does not match schema of table {}", row, table)
            }
        }
    }
}

impl std::error::Error for DatabaseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new().with_table(
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

    #[test]
    fn table_types_are_flat_relations() {
        let s = schema();
        assert!(s
            .table("employees")
            .unwrap()
            .relation_type()
            .is_flat_relation());
    }

    #[test]
    fn insert_checks_row_type() {
        let mut db = Database::new(schema());
        let ok = db.insert_row(
            "employees",
            vec![
                ("id", Value::Int(1)),
                ("dept", Value::string("Product")),
                ("name", Value::string("Alex")),
                ("salary", Value::Int(20000)),
            ],
        );
        assert!(ok.is_ok());
        let bad = db.insert_row("employees", vec![("id", Value::Int(1))]);
        assert!(matches!(bad, Err(DatabaseError::RowTypeMismatch { .. })));
        let missing = db.insert_row("nope", vec![]);
        assert!(matches!(missing, Err(DatabaseError::NoSuchTable(_))));
    }

    #[test]
    fn table_rows_are_canonically_ordered() {
        let mut db = Database::new(schema());
        for (id, name) in [(2, "Bert"), (1, "Alex")] {
            db.insert_row(
                "employees",
                vec![
                    ("id", Value::Int(id)),
                    ("dept", Value::string("Product")),
                    ("name", Value::string(name)),
                    ("salary", Value::Int(100)),
                ],
            )
            .unwrap();
        }
        let rows = db.table_rows("employees").unwrap();
        assert_eq!(rows[0].field("id"), Some(&Value::Int(1)));
        assert_eq!(rows[1].field("id"), Some(&Value::Int(2)));
    }

    #[test]
    fn row_counts() {
        let mut db = Database::new(schema());
        assert_eq!(db.row_count("employees"), 0);
        db.insert_row(
            "employees",
            vec![
                ("id", Value::Int(1)),
                ("dept", Value::string("Product")),
                ("name", Value::string("Alex")),
                ("salary", Value::Int(20000)),
            ],
        )
        .unwrap();
        assert_eq!(db.row_count("employees"), 1);
        assert_eq!(db.total_rows(), 1);
    }
}
