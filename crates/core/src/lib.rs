//! # shredding — query shredding for nested multiset queries
//!
//! A reference implementation of *"Query shredding: efficient relational
//! evaluation of queries over nested multisets"* (Cheney, Lindley, Wadler,
//! SIGMOD 2014). The crate translates nested λNRC queries (from the [`nrc`]
//! crate) into a fixed number of flat SQL queries — one per bag constructor
//! of the result type — runs them on a relational engine (the [`sqlengine`]
//! crate, standing in for PostgreSQL) and stitches the flat results back into
//! the nested value the original query denotes.
//!
//! The pipeline stages mirror the paper:
//!
//! | Stage | Paper | Module |
//! |---|---|---|
//! | Normalisation | §2.2, App. C | [`normalise`](mod@normalise) |
//! | Normal forms + static indexes | §2.2, §4 | [`nf`] |
//! | Shredding (types, terms, packages) | §4 | [`shred`] |
//! | Shredded semantics + indexing schemes | §5–6, Fig. 5 | [`semantics`] |
//! | Stitching | §5.2 | [`stitch`](mod@stitch) |
//! | Let-insertion | §6.2, Fig. 6–7 | [`letins`] |
//! | Record flattening | App. E | [`flatten`] |
//! | SQL generation | §7 | [`sqlgen`] |
//! | End-to-end pipeline | Fig. 1(c) | [`pipeline`] |
//! | Session API, backends, plan cache | — | [`session`] |
//!
//! The documented entry point is the [`session::Shredder`] session: a
//! builder-configured handle owning the schema, the data, a pluggable
//! [`session::SqlBackend`] and an LRU plan cache. Sessions are
//! `Send + Sync` and cheaply clonable (`Arc`-backed): clone one into N
//! worker threads and they share a single plan cache and a single loaded
//! engine — see the "Concurrent sessions & the shared plan cache" section
//! of `DESIGN.md`. The free functions in [`pipeline`] remain available as
//! low-level building blocks.
//!
//! ## Quick start
//!
//! ```
//! use nrc::builder::*;
//! use nrc::schema::{Database, Schema, TableSchema};
//! use nrc::types::BaseType;
//! use nrc::value::Value;
//! use shredding::session::Shredder;
//!
//! // A flat schema with departments and employees.
//! let schema = Schema::new()
//!     .with_table(TableSchema::new("departments",
//!         vec![("id", BaseType::Int), ("name", BaseType::String)]).with_key(vec!["id"]))
//!     .with_table(TableSchema::new("employees",
//!         vec![("id", BaseType::Int), ("dept", BaseType::String),
//!              ("name", BaseType::String)]).with_key(vec!["id"]));
//! let mut db = Database::new(schema.clone());
//! db.insert_row("departments", vec![("id", Value::Int(1)), ("name", Value::string("Sales"))]).unwrap();
//! db.insert_row("employees", vec![("id", Value::Int(1)), ("dept", Value::string("Sales")),
//!                                  ("name", Value::string("Erik"))]).unwrap();
//!
//! // A query with a *nested* result: each department with its employees.
//! let query = for_in("d", table("departments"), singleton(record(vec![
//!     ("dept", project(var("d"), "name")),
//!     ("emps", for_where("e", table("employees"),
//!         eq(project(var("e"), "dept"), project(var("d"), "name")),
//!         singleton(project(var("e"), "name")))),
//! ])));
//!
//! // Open a session: shred to SQL, run on the in-memory engine, stitch.
//! let session = Shredder::builder().database(db).build().unwrap();
//! let prepared = session.prepare(&query).unwrap();
//! println!("{}", prepared.explain());            // per-stage SQL and layout
//! let result = session.execute(&prepared).unwrap();
//!
//! // The session's oracle is the nested reference semantics (Theorem 4).
//! let direct = session.oracle(&query).unwrap();
//! assert!(result.multiset_eq(&direct));
//!
//! // Preparing the same query again skips recompilation via the plan cache.
//! assert!(session.prepare(&query).unwrap().from_cache());
//! ```

#![forbid(unsafe_code)]

pub mod delta;
pub mod error;
pub mod flatten;
pub mod letins;
pub mod nf;
pub mod normalise;
pub mod pipeline;
pub mod semantics;
pub mod session;
pub mod shred;
pub mod sqlgen;
pub mod stitch;
pub mod verify;

/// The static-analysis layer (diagnostics model, λNRC lints, physical-plan
/// validator), re-exported so downstream users need only this crate.
pub use analysis;

/// The observability layer (metrics registry, stage spans, the profile ring),
/// re-exported so downstream users need only this crate.
pub use obs;

pub use analysis::{Diagnostic, Severity};
pub use delta::{StorageDelta, Subscription, WriteBatch, WriteOp};
pub use error::ShredError;
pub use flatten::ResultLayout;

pub use normalise::{normalise, normalise_with_type};

pub use pipeline::CompiledQuery;

pub use session::{auto_parameterize, BackendPlan, Bindings, CacheStats};

pub use stitch::stitch;
