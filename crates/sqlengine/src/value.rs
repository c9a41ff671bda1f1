//! Flat SQL values.
//!
//! The engine only needs the base types that λNRC tables may contain
//! (integers, booleans, strings) plus `NULL`, which the natural-index scheme
//! uses to pad key columns of heterogeneous unions.
//!
//! Strings are stored as `Arc<str>`: cloning a value — which the columnar
//! transposes, hash-join build keys and result gathering all do per row — is
//! a reference-count bump instead of a heap copy, and values stay `Send +
//! Sync` so batches can be shared across threads.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single SQL scalar value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SqlValue {
    /// `NULL`. Ordered before every non-null value (as with `NULLS FIRST`).
    Null,
    Bool(bool),
    Int(i64),
    Str(Arc<str>),
}

impl SqlValue {
    /// Build a string value.
    pub fn str<S: Into<Arc<str>>>(s: S) -> SqlValue {
        SqlValue::Str(s.into())
    }

    /// Is this `NULL`?
    pub fn is_null(&self) -> bool {
        matches!(self, SqlValue::Null)
    }

    /// The boolean content, if this is a boolean.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            SqlValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer content, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            SqlValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            SqlValue::Str(s) => Some(&s[..]),
            _ => None,
        }
    }

    /// SQL equality: `NULL` is not equal to anything (three-valued logic is
    /// simplified to `false`, which is what `WHERE` needs).
    pub(crate) fn sql_eq(&self, other: &SqlValue) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self == other
    }

    /// Total ordering used by `ROW_NUMBER`: nulls first, then
    /// booleans, integers and strings; values of different runtime type are
    /// ordered by type rank (this never happens for well-typed queries but
    /// keeps sorting total).
    pub(crate) fn sql_cmp(&self, other: &SqlValue) -> Ordering {
        fn rank(v: &SqlValue) -> u8 {
            match v {
                SqlValue::Null => 0,
                SqlValue::Bool(_) => 1,
                SqlValue::Int(_) => 2,
                SqlValue::Str(_) => 3,
            }
        }
        match (self, other) {
            (SqlValue::Bool(a), SqlValue::Bool(b)) => a.cmp(b),
            (SqlValue::Int(a), SqlValue::Int(b)) => a.cmp(b),
            (SqlValue::Str(a), SqlValue::Str(b)) => a.cmp(b),
            (SqlValue::Null, SqlValue::Null) => Ordering::Equal,
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// The SQL type name of this value, for error messages.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            SqlValue::Null => "null",
            SqlValue::Bool(_) => "boolean",
            SqlValue::Int(_) => "integer",
            SqlValue::Str(_) => "text",
        }
    }
}

impl fmt::Display for SqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlValue::Null => write!(f, "NULL"),
            SqlValue::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            SqlValue::Int(i) => write!(f, "{}", i),
            SqlValue::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

impl From<i64> for SqlValue {
    fn from(i: i64) -> Self {
        SqlValue::Int(i)
    }
}

impl From<bool> for SqlValue {
    fn from(b: bool) -> Self {
        SqlValue::Bool(b)
    }
}

impl From<&str> for SqlValue {
    fn from(s: &str) -> Self {
        SqlValue::Str(Arc::from(s))
    }
}

impl From<String> for SqlValue {
    fn from(s: String) -> Self {
        SqlValue::Str(Arc::from(s))
    }
}

impl From<Arc<str>> for SqlValue {
    fn from(s: Arc<str>) -> Self {
        SqlValue::Str(s)
    }
}

/// A row is a vector of scalar values, positionally matched to a row schema.
pub type Row = Vec<SqlValue>;

/// Values for a query's named placeholders (`:name`), keyed by name. Passed
/// to `execute_plan` when executing a parameterized plan.
pub type ParamValues = std::collections::BTreeMap<String, SqlValue>;

/// Lexicographic row comparison under `SqlValue::sql_cmp`, used by
/// `ROW_NUMBER` in both the interpreter and the vectorized executor.
pub fn compare_rows(a: &[SqlValue], b: &[SqlValue]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let c = x.sql_cmp(y);
        if c != Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_not_equal_to_anything() {
        assert!(!SqlValue::Null.sql_eq(&SqlValue::Null));
        assert!(!SqlValue::Null.sql_eq(&SqlValue::Int(1)));
        assert!(SqlValue::Int(1).sql_eq(&SqlValue::Int(1)));
    }

    #[test]
    fn ordering_puts_nulls_first() {
        assert_eq!(SqlValue::Null.sql_cmp(&SqlValue::Int(-100)), Ordering::Less);
        assert_eq!(SqlValue::Int(1).sql_cmp(&SqlValue::Int(2)), Ordering::Less);
        assert_eq!(
            SqlValue::str("a").sql_cmp(&SqlValue::str("b")),
            Ordering::Less
        );
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(SqlValue::str("it's").to_string(), "'it''s'");
        assert_eq!(SqlValue::Bool(true).to_string(), "TRUE");
        assert_eq!(SqlValue::Null.to_string(), "NULL");
    }

    #[test]
    fn conversions() {
        assert_eq!(SqlValue::from(3i64), SqlValue::Int(3));
        assert_eq!(SqlValue::from(true), SqlValue::Bool(true));
        assert_eq!(SqlValue::from("x"), SqlValue::str("x"));
    }
}
