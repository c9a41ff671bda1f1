//! # nrc — the higher-order nested relational calculus (λNRC)
//!
//! λNRC is the source language of the query shredding translation of
//! Cheney, Lindley and Wadler, *"Query shredding: efficient relational
//! evaluation of queries over nested multisets"*, SIGMOD 2014. It is a core
//! calculus for the query fragments of Links, Ferry and LINQ: records, bags
//! (multisets), first-class functions and comprehensions over flat database
//! tables.
//!
//! This crate provides:
//!
//! * the type language ([`types::Type`]) with paths and nesting degree,
//! * the term language ([`term::Term`]) with capture-avoiding substitution,
//! * ergonomic constructors ([`builder`]) mirroring the paper's
//!   `for … where … return …` syntax,
//! * a bidirectional type checker ([`typecheck`](mod@typecheck))
//!   implementing Figure 12,
//! * the reference denotational semantics N⟦−⟧ ([`eval`](mod@eval)) of
//!   Figure 2 over an in-memory [`schema::Database`],
//! * the higher-order query combinators of Section 3 ([`stdlib`]).
//!
//! The shredding pipeline itself lives in the `shredding` crate; the SQL
//! substrate lives in `sqlengine`.
//!
//! ## Quick example
//!
//! ```
//! use nrc::builder::*;
//! use nrc::schema::{Database, Schema, TableSchema};
//! use nrc::types::BaseType;
//! use nrc::value::Value;
//!
//! let schema = Schema::new().with_table(
//!     TableSchema::new("items", vec![("id", BaseType::Int), ("name", BaseType::String)])
//!         .with_key(vec!["id"]),
//! );
//! let mut db = Database::new(schema);
//! db.insert_row("items", vec![("id", Value::Int(1)), ("name", Value::string("widget"))]).unwrap();
//!
//! // for (x ← items) where (x.id = 1) return x.name
//! let query = for_where(
//!     "x",
//!     table("items"),
//!     eq(project(var("x"), "id"), int(1)),
//!     singleton(project(var("x"), "name")),
//! );
//! let result = nrc::eval::eval(&query, &db).unwrap();
//! assert_eq!(result, Value::bag(vec![Value::string("widget")]));
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod env;
pub mod eval;
pub mod pretty;
pub mod schema;
pub mod stdlib;
pub mod term;
pub mod typecheck;
pub mod types;
pub mod value;

pub use eval::{eval, eval_with_params, EvalError, ParamBindings};
pub use schema::{Database, Schema, TableSchema};
pub use term::Term;
pub use typecheck::{typecheck, TypeError};
pub use types::BaseType;
pub use value::Value;
