//! The span model: pipeline stages, per-query profiles and the per-call
//! collector threaded through `prepare`/`execute_bound`.

use std::sync::Mutex;
use std::time::Instant;

/// One phase of the shredding pipeline. `prepare` produces the first six,
/// `execute_bound` the next three, and `Maintain` times the incremental
/// upkeep of a live subscription after a committed write batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    Typecheck,
    Normalise,
    Shred,
    Sqlgen,
    Plan,
    Verify,
    Execute,
    Decode,
    Stitch,
    Maintain,
}

impl Stage {
    pub const ALL: [Stage; 10] = [
        Stage::Typecheck,
        Stage::Normalise,
        Stage::Shred,
        Stage::Sqlgen,
        Stage::Plan,
        Stage::Verify,
        Stage::Execute,
        Stage::Decode,
        Stage::Stitch,
        Stage::Maintain,
    ];

    /// Name of the registry histogram this stage's spans feed, e.g.
    /// `"stage.execute"`. Static so recording does not allocate.
    pub fn metric_name(self) -> &'static str {
        match self {
            Stage::Typecheck => "stage.typecheck",
            Stage::Normalise => "stage.normalise",
            Stage::Shred => "stage.shred",
            Stage::Sqlgen => "stage.sqlgen",
            Stage::Plan => "stage.plan",
            Stage::Verify => "stage.verify",
            Stage::Execute => "stage.execute",
            Stage::Decode => "stage.decode",
            Stage::Stitch => "stage.stitch",
            Stage::Maintain => "stage.maintain",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Stage::Typecheck => "typecheck",
            Stage::Normalise => "normalise",
            Stage::Shred => "shred",
            Stage::Sqlgen => "sqlgen",
            Stage::Plan => "plan",
            Stage::Verify => "verify",
            Stage::Execute => "execute",
            Stage::Decode => "decode",
            Stage::Stitch => "stitch",
            Stage::Maintain => "maintain",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One timed phase of one query. A profile may contain several spans for the
/// same stage (e.g. one `Execute` span per shredded SQL stage); readers sum
/// them per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub stage: Stage,
    pub nanos: u64,
}

/// Accumulated actuals for one physical-plan node of one shredded stage.
/// `node` is the node's pre-order index inside that stage's plan tree;
/// `nanos` is inclusive of the node's children (Postgres-style actual time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorProfile {
    /// Index of the shredded SQL stage this node belongs to.
    pub stage: usize,
    /// Pre-order index of the node within the stage's plan tree.
    pub node: usize,
    /// Operator kind, e.g. `"HashJoin"`.
    pub op: String,
    /// Number of times the node was executed (correlated subplans run once
    /// per outer row, so this can exceed 1).
    pub batches: u64,
    /// Total rows fed in by direct children across all executions.
    pub rows_in: u64,
    /// Total rows produced across all executions.
    pub rows_out: u64,
    /// Wall time, inclusive of children.
    pub nanos: u64,
}

/// A finished per-query profile, as delivered to the [`crate::ObsSink`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// Short human-readable identifier for the query (truncated plan key).
    pub query: String,
    /// Backend that executed it.
    pub backend: String,
    /// Whether the plan came from the session plan cache.
    pub cached: bool,
    /// Whether per-operator profiling was enabled for this execution.
    pub profiled: bool,
    pub spans: Vec<Span>,
    pub operators: Vec<OperatorProfile>,
    /// End-to-end wall time of the execute call.
    pub total_nanos: u64,
}

impl QueryProfile {
    /// Sum of all spans recorded for `stage`, in nanoseconds.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.nanos)
            .sum()
    }
}

/// Per-call span collector. One `QueryObs` lives for the duration of a single
/// `prepare` or `execute` call and is threaded by shared reference through
/// the pipeline; the mutexes are uncontended (single caller) and exist only
/// so the collector can be used behind `&self` trait interfaces.
#[derive(Debug, Default)]
pub struct QueryObs {
    profile_ops: bool,
    spans: Mutex<Vec<Span>>,
    operators: Mutex<Vec<OperatorProfile>>,
}

impl QueryObs {
    pub fn new(profile_ops: bool) -> Self {
        Self {
            profile_ops,
            ..Self::default()
        }
    }

    /// Whether per-operator (plan-node) profiling is requested for this call.
    pub fn profile_operators(&self) -> bool {
        self.profile_ops
    }

    pub fn record(&self, stage: Stage, nanos: u64) {
        self.spans
            .lock()
            .expect("obs lock")
            .push(Span { stage, nanos });
    }

    /// Time `f` and record the elapsed nanoseconds as a span for `stage`.
    pub fn time<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(
            stage,
            start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
        out
    }

    pub fn push_operators(&self, ops: impl IntoIterator<Item = OperatorProfile>) {
        self.operators.lock().expect("obs lock").extend(ops);
    }

    /// Drain the collected spans and operator actuals.
    pub fn take(&self) -> (Vec<Span>, Vec<OperatorProfile>) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("obs lock"));
        let ops = std::mem::take(&mut *self.operators.lock().expect("obs lock"));
        (spans, ops)
    }
}

/// Time `f` under `stage` when a collector is present; otherwise just run it.
/// This keeps call sites branch-cheap: with `None` the only cost is the
/// `Option` check.
pub fn time_maybe<R>(obs: Option<&QueryObs>, stage: Stage, f: impl FnOnce() -> R) -> R {
    match obs {
        Some(o) => o.time(stage, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_accumulates_spans() {
        let obs = QueryObs::new(true);
        assert!(obs.profile_operators());
        obs.record(Stage::Execute, 10);
        let out = obs.time(Stage::Execute, || 42);
        assert_eq!(out, 42);
        obs.push_operators([OperatorProfile {
            stage: 0,
            node: 0,
            op: "TableScan".into(),
            batches: 1,
            rows_in: 0,
            rows_out: 5,
            nanos: 100,
        }]);
        let (spans, ops) = obs.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(ops.len(), 1);
        let profile = QueryProfile {
            spans,
            ..Default::default()
        };
        assert!(profile.stage_nanos(Stage::Execute) >= 10);
        assert_eq!(profile.stage_nanos(Stage::Stitch), 0);
    }
}
