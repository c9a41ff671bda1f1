//! Pipeline-wide observability for the query-shredding engine.
//!
//! This crate is deliberately dependency-free and splits into three layers:
//!
//! * [`metrics`] — a lock-free [`MetricsRegistry`] of atomic [`Counter`]s,
//!   [`Gauge`]s and log-linear latency [`Histogram`]s with p50/p95/p99/max
//!   readout, snapshotted into a JSON-serialisable [`MetricsSnapshot`].
//!   Instruments are registered once (short registry lock) and recorded
//!   entirely with atomics afterwards, so a single registry can be shared by
//!   every session clone and recorded into from many threads without
//!   contention.
//! * [`profile`] — the span model: each query execution produces a
//!   [`QueryProfile`] holding one [`Span`] per pipeline [`Stage`]
//!   (typecheck, normalise, shred, sqlgen, plan, verify, execute, decode,
//!   stitch) plus optional per-operator actuals ([`OperatorProfile`]).
//!   [`QueryObs`] is the per-call collector threaded through the pipeline.
//! * [`sink`] — the pluggable [`ObsSink`] trait finished profiles are pushed
//!   to, with a bounded in-memory [`RingSink`] as the default.
//!
//! The [`json`] module is a minimal hand-rolled JSON encoder/parser (the
//! workspace has no serde) used for the `MetricsSnapshot` round-trip.

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;

pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use profile::{time_maybe, OperatorProfile, QueryObs, QueryProfile, Span, Stage};
pub use sink::{NullSink, ObsSink, RingSink};
