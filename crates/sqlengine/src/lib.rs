//! # sqlengine — an in-memory SQL:1999 subset engine
//!
//! The paper's evaluation runs the SQL produced by query shredding (and by the
//! loop-lifting baseline) on PostgreSQL 9.2. This crate is the substitute
//! substrate: an in-memory engine for exactly the SQL subset those
//! translations emit —
//!
//! * `SELECT … FROM … WHERE …` with multi-table `FROM` lists,
//! * hash joins for equi-join predicates, nested-loop joins otherwise,
//! * `UNION ALL` (bag semantics),
//! * `WITH q AS (…) …` (one let-bound subquery per block, as produced by
//!   let-insertion),
//! * `ROW_NUMBER() OVER (ORDER BY …)`,
//! * correlated `EXISTS` subqueries (the image of λNRC's `empty`).
//!
//! Nothing else: no `ORDER BY`, `DISTINCT` or `EXCEPT`, which no translation
//! emits. It also contains a printer and parser for the dialect, so SQL can
//! be round-tripped as text exactly as Links ships SQL strings to the
//! database; the parser refuses what the dialect lacks.
//!
//! Execution is split planner/executor: [`plan`] compiles a query into an
//! explicit [`PhysicalPlan`] (scans, hash joins, filters, exists-semijoins,
//! row-numbering, projection) and
//! [`execute_plan`] — the one walk of [`vexec`] — runs the plan over a
//! columnar representation with selection vectors, each operator taking its
//! whole batch on the calling thread. Parallelism is above a plan:
//! [`par::scoped_map`] runs a shredded package's independent stages
//! concurrently, and then chunks of its stitch.
//! [`Engine::execute`] returns a [`ColumnarResult`] — the batch's
//! `Arc`-shared columns handed over without a row-major transpose, so
//! columnar consumers (the shredding stitcher) never see rows at all. The
//! row-major [`ResultSet`] remains for the interpreter and the text-SQL
//! path; the original row-at-a-time interpreter survives as
//! [`Engine::execute_interpreted`], the oracle the vectorized executor is
//! differentially tested against.
//!
//! The whole engine is `Send + Sync`: values share string storage by
//! `Arc<str>`, batches share columns by `Arc`, the lazily transposed
//! columnar views sit in version-stamped cells and the plan counter is
//! atomic. Storage is mutable — [`delta`] adds deletes, updates and a
//! write-batch API that emits typed insertion/retraction deltas — so the
//! engine keeps its storage behind an `RwLock`: plans execute against a
//! read guard, write batches take the write lock, and one engine instance
//! (typically an `Arc<Engine>`) serves any number of threads concurrently.
//!
//! ```
//! use sqlengine::exec::Engine;
//! use sqlengine::storage::{ColumnType, Storage, TableDef};
//! use sqlengine::value::SqlValue;
//!
//! let mut storage = Storage::new();
//! storage.create_table(TableDef::new("t", vec![("x", ColumnType::Int)])).unwrap();
//! storage.insert("t", vec![SqlValue::Int(41)]).unwrap();
//! let engine = Engine::with_storage(storage);
//!
//! let rs = engine.execute_sql("SELECT t.x + 1 AS y FROM t AS t").unwrap();
//! assert_eq!(rs.rows, vec![vec![SqlValue::Int(42)]]);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod delta;
pub mod error;
pub mod exec;
mod kernels;
pub mod opt;
pub mod par;
pub mod parser;
pub mod plan;
pub mod printer;
pub mod storage;
pub mod value;
pub mod vexec;

pub use ast::{BinOp, Expr, FromItem, Query, Select, SelectItem, TableSource};
pub use delta::{StorageDelta, TableDelta, WriteBatch, WriteOp};
pub use error::EngineError;
pub use exec::Engine;
pub use opt::{optimize, OptReport, OptSkip};
pub use par::{scoped_map, ExecOptions, ExecStats};
pub use parser::{parse_expr, parse_query};
pub use plan::{Catalog, OpActuals, PhysicalPlan, SchemaCatalog};
pub use printer::{print_expr, print_query};
pub use storage::{ColumnType, ColumnarResult, ResultSet, Storage, Table, TableDef};
pub use value::{ParamValues, Row, SqlValue};
pub use vexec::{execute_plan, DeltaExec, ExecRequest, Execution, PlanProfile, RootDelta};
