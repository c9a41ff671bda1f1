//! Errors raised by the SQL engine (storage, planning, execution, parsing).

use crate::storage::ColumnType;
use crate::value::Row;
use std::fmt;

/// All errors the engine can report.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    NoSuchTable(String),
    TableExists(String),
    ArityMismatch {
        table: String,
        expected: usize,
        got: usize,
    },
    ColumnTypeMismatch {
        table: String,
        column: String,
        expected: ColumnType,
        got: String,
    },
    /// A row whose key columns duplicate an existing row's was inserted into
    /// a table with a declared key ([`crate::storage::TableDef::with_key`]).
    DuplicateKey {
        table: String,
        key: Row,
    },
    /// A delete or update addressed a row (or key) not present in the table.
    NoSuchRow {
        table: String,
        row: Row,
    },
    /// A keyed write (`DeleteByKey`, `Update`) targeted a table that does not
    /// declare a key.
    NoDeclaredKey(String),
    UnknownColumn {
        qualifier: Option<String>,
        name: String,
    },
    UnknownAlias(String),
    /// One `FROM` list binds the alias twice.
    DuplicateAlias(String),
    AmbiguousColumn(String),
    UnknownCte(String),
    /// A named placeholder `:name` was evaluated without a bound value.
    UnboundParameter(String),
    TypeError(String),
    DivisionByZero,
    Parse(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoSuchTable(t) => write!(f, "no such table: {}", t),
            EngineError::TableExists(t) => write!(f, "table already exists: {}", t),
            EngineError::ArityMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "row arity mismatch for table {}: expected {}, got {}",
                table, expected, got
            ),
            EngineError::ColumnTypeMismatch {
                table,
                column,
                expected,
                got,
            } => write!(
                f,
                "column {}.{} expects {}, got {}",
                table, column, expected, got
            ),
            EngineError::DuplicateKey { table, key } => {
                let rendered: Vec<String> = key.iter().map(|v| v.to_string()).collect();
                write!(
                    f,
                    "duplicate key ({}) for table {}",
                    rendered.join(", "),
                    table
                )
            }
            EngineError::NoSuchRow { table, row } => {
                let rendered: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                write!(
                    f,
                    "no row ({}) to delete or update in table {}",
                    rendered.join(", "),
                    table
                )
            }
            EngineError::NoDeclaredKey(t) => {
                write!(f, "table {} declares no key for keyed writes", t)
            }
            EngineError::UnknownColumn { qualifier, name } => match qualifier {
                Some(q) => write!(f, "unknown column {}.{}", q, name),
                None => write!(f, "unknown column {}", name),
            },
            EngineError::UnknownAlias(a) => write!(f, "unknown table alias {}", a),
            EngineError::DuplicateAlias(a) => {
                write!(f, "alias {} is bound twice in one FROM list", a)
            }
            EngineError::AmbiguousColumn(c) => write!(f, "ambiguous column {}", c),
            EngineError::UnknownCte(q) => write!(f, "unknown WITH-bound query {}", q),
            EngineError::UnboundParameter(p) => write!(
                f,
                "unbound parameter :{} (supply a value when executing the plan)",
                p
            ),
            EngineError::TypeError(msg) => write!(f, "type error: {}", msg),
            EngineError::DivisionByZero => write!(f, "division by zero"),
            EngineError::Parse(msg) => write!(f, "SQL parse error: {}", msg),
        }
    }
}

impl std::error::Error for EngineError {}
