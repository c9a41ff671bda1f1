//! Errors raised by the shredding pipeline.

use std::fmt;

/// Errors from normalisation, shredding, let-insertion, SQL generation,
/// execution and stitching.
#[derive(Debug, Clone, PartialEq)]
pub enum ShredError {
    /// A λNRC type error in the source query.
    Type(nrc::TypeError),
    /// The term is not a query (its type is not a bag type).
    NotAQuery(String),
    /// The query's type contains function types, so it is not flat–nested.
    NotFlatNested(String),
    /// The rewriting stages exceeded their step bound.
    RewriteDiverged,
    /// A term that should have been eliminated by rewriting survived into the
    /// structural normalisation pass.
    NotInNormalForm(String),
    /// A path used for shredding does not point at a bag constructor of the
    /// query's result type.
    BadPath(String),
    /// A runtime evaluation error while computing the reference semantics.
    Eval(nrc::EvalError),
    /// An error reported by the SQL engine while executing shredded queries.
    Engine(sqlengine::EngineError),
    /// The natural indexing scheme was requested but a table lacks a key.
    MissingKey(String),
    /// A write batch put `NULL` into a column of a table's declared key.
    /// λNRC values have no `NULL`, and SQL generation indexes a bag by its
    /// generator's key, so a key cell must always hold a value.
    NullKey { table: String, column: String },
    /// An indexing scheme produced duplicate indexes (it is not valid for
    /// this query, in the sense of Section 6).
    InvalidIndexing(String),
    /// A shredded result row could not be decoded back into a nested value.
    /// `code` is a `D…` entry of the diagnostic registry
    /// ([`analysis::codes`]), naming which decode invariant broke.
    Decode { code: &'static str, message: String },
    /// The prepare-time static verifier found an error-severity diagnostic.
    /// `code` is the diagnostic registry entry; `message` is the rendered
    /// first error (see [`crate::session::PreparedQuery::check`] for the
    /// full list).
    Verification { code: &'static str, message: String },
    /// A parameter required by the prepared query was not bound at execution
    /// time.
    MissingParam {
        name: String,
        expected: nrc::BaseType,
    },
    /// A bound value's type does not match the parameter's declared type, or
    /// the same parameter name was declared at two different types.
    ParamTypeMismatch {
        name: String,
        expected: String,
        found: String,
    },
    /// A binding was supplied for a parameter name the prepared query does
    /// not declare.
    UnknownParam { name: String, declared: Vec<String> },
    /// A `Shredder` session was misconfigured (builder validation, missing
    /// database, or a prepared query used with the wrong session).
    Config(String),
    /// An internal invariant was violated; indicates a bug in the pipeline.
    Internal(String),
}

impl fmt::Display for ShredError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShredError::Type(e) => write!(f, "type error: {}", e),
            ShredError::NotAQuery(t) => write!(f, "not a query: has type {}", t),
            ShredError::NotFlatNested(t) => {
                write!(
                    f,
                    "query type {} is not flat-nested (contains functions)",
                    t
                )
            }
            ShredError::RewriteDiverged => write!(f, "normalisation exceeded its step bound"),
            ShredError::NotInNormalForm(msg) => write!(f, "not in normal form: {}", msg),
            ShredError::BadPath(p) => {
                write!(f, "path {} does not address a bag in the result type", p)
            }
            ShredError::Eval(e) => write!(f, "evaluation error: {}", e),
            ShredError::Engine(e) => write!(f, "SQL engine error: {}", e),
            ShredError::MissingKey(t) => {
                write!(f, "natural indexing requires a key on table {}", t)
            }
            ShredError::NullKey { table, column } => {
                write!(f, "NULL in key column {}.{}", table, column)
            }
            ShredError::InvalidIndexing(msg) => write!(f, "invalid indexing scheme: {}", msg),
            ShredError::Decode { code, message } => {
                write!(f, "cannot decode shredded result [{}]: {}", code, message)
            }
            ShredError::Verification { code, message } => {
                write!(f, "static verification failed [{}]: {}", code, message)
            }
            ShredError::MissingParam { name, expected } => write!(
                f,
                "missing binding for parameter ?{} : {}; bind a value with \
                 Params::new().bind(\"{}\", …) and execute with execute_bound",
                name, expected, name
            ),
            ShredError::ParamTypeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "parameter ?{} expects a value of type {} but was bound to {}",
                name, expected, found
            ),
            ShredError::UnknownParam { name, declared } => {
                if declared.is_empty() {
                    write!(
                        f,
                        "unknown parameter \"{}\": the prepared query declares no parameters",
                        name
                    )
                } else {
                    write!(
                        f,
                        "unknown parameter \"{}\": the prepared query declares only [{}]",
                        name,
                        declared.join(", ")
                    )
                }
            }
            ShredError::Config(msg) => write!(f, "session configuration error: {}", msg),
            ShredError::Internal(msg) => write!(f, "internal error: {}", msg),
        }
    }
}

impl std::error::Error for ShredError {}

impl From<nrc::TypeError> for ShredError {
    fn from(e: nrc::TypeError) -> Self {
        ShredError::Type(e)
    }
}

impl From<nrc::EvalError> for ShredError {
    fn from(e: nrc::EvalError) -> Self {
        ShredError::Eval(e)
    }
}

impl From<sqlengine::EngineError> for ShredError {
    fn from(e: sqlengine::EngineError) -> Self {
        ShredError::Engine(e)
    }
}
