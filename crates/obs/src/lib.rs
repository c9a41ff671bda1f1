//! Pipeline-wide observability for the query-shredding engine.
//!
//! This crate is deliberately dependency-free and splits into three layers:
//!
//! * [`metrics`] — a lock-free [`MetricsRegistry`] of atomic
//!   [`Counter`](metrics::Counter)s, [`Gauge`](metrics::Gauge)s and
//!   log-linear latency [`Histogram`]s with p50/p95/p99/max readout,
//!   snapshotted into a JSON-serialisable [`MetricsSnapshot`].
//!   Instruments are registered once (short registry lock) and recorded
//!   entirely with atomics afterwards, so a single registry can be shared by
//!   every session clone and recorded into from many threads without
//!   contention.
//! * [`profile`] — the span model: each query execution produces a
//!   [`QueryProfile`] holding one [`Span`] per pipeline [`Stage`]
//!   (typecheck, normalise, shred, sqlgen, plan, verify, execute, decode,
//!   stitch) plus optional per-operator actuals ([`OperatorProfile`]).
//!   [`QueryObs`] is the per-call collector threaded through the pipeline.
//! * [`sink`] — the bounded in-memory [`RingSink`] that keeps the most
//!   recent finished profiles.
//!
//! The [`json`] module is a minimal hand-rolled JSON renderer (the
//! workspace has no serde) behind `MetricsSnapshot::to_json`.

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;

pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use profile::{time_maybe, OperatorProfile, QueryObs, QueryProfile, Span, Stage};
pub use sink::RingSink;

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

// Every lock in this crate guards a name map, a span list or a ring buffer
// that only ever gains or loses whole entries, so a panic elsewhere while
// one was held cannot have left it torn. A poisoned lock is recovered, not
// re-panicked: recording must not turn one panic into a panic per query.

/// Lock `mutex`, recovering it if poisoned.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read `lock`, recovering it if poisoned.
pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}
