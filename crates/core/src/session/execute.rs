//! Execution and profiling: running a prepared query on the session's data
//! ([`Shredder::execute`] and its bound and profiled forms), the nested
//! reference semantics ([`Shredder::oracle`]), and what an execution leaves
//! behind — metrics, the recent-profile ring and a handle's last operator
//! actuals. Must not plan, or write to storage.

use super::params::resolve_bindings;
use super::{Bindings, Params, PreparedQuery, Shredder};
use crate::error::ShredError;
use nrc::term::Term;
use nrc::value::Value;
use obs::{MetricsRegistry, MetricsSnapshot, QueryObs, QueryProfile};
use std::sync::Arc;
use std::time::Instant;

impl Shredder {
    /// Execute a prepared query on this session's data, using the prepared
    /// query's default bindings for every parameter (equivalent to
    /// `execute_bound` with no explicit bindings).
    pub fn execute(&self, prepared: &PreparedQuery) -> Result<Value, ShredError> {
        self.execute_bound(prepared, &Params::new())
    }

    /// Execute a prepared query with explicit parameter bindings. Explicit
    /// bindings override the prepared query's defaults; every declared
    /// parameter must end up bound. This is the hot path for parametric
    /// workloads: the plan is immutable, so re-executing with different
    /// bindings does zero parsing, shredding, SQL generation or physical
    /// planning.
    pub fn execute_bound(
        &self,
        prepared: &PreparedQuery,
        params: &Params,
    ) -> Result<Value, ShredError> {
        self.execute_observed(prepared, params, false)
    }

    /// [`execute_bound`](Self::execute_bound) with per-operator profiling:
    /// the plan runs through the instrumented executor, each plan node
    /// accumulates batches, rows and time, and
    /// [`PreparedQuery::explain_analyze`] renders the actuals. Stage tracing
    /// (per-phase spans) is on for every execution, profiled or not.
    pub fn execute_profiled(
        &self,
        prepared: &PreparedQuery,
        params: &Params,
    ) -> Result<Value, ShredError> {
        self.execute_observed(prepared, params, true)
    }

    /// Reject a prepared query that belongs to a different backend or schema
    /// than this session's.
    pub(super) fn guard_prepared(&self, prepared: &PreparedQuery) -> Result<(), ShredError> {
        if prepared.backend != self.core.backend.name() {
            return Err(ShredError::Config(format!(
                "prepared query belongs to the {} backend but this session uses {}",
                prepared.backend,
                self.core.backend.name()
            )));
        }
        if !Arc::ptr_eq(&prepared.schema, &self.core.schema)
            && *prepared.schema != *self.core.schema
        {
            return Err(ShredError::Config(
                "prepared query was planned against a different schema".into(),
            ));
        }
        Ok(())
    }

    fn execute_observed(
        &self,
        prepared: &PreparedQuery,
        params: &Params,
        profile: bool,
    ) -> Result<Value, ShredError> {
        self.guard_prepared(prepared)?;
        let bindings = resolve_bindings(&prepared.params, &prepared.defaults, params)?;
        let obs = QueryObs::new(profile);
        let start = Instant::now();
        let result = self.core.backend.execute(
            &prepared.planned.plan,
            &self.exec_context(Some(&obs)),
            &bindings,
        );
        let total_nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        match &result {
            Ok(_) => self.record_execution(prepared, &obs, profile, total_nanos),
            Err(_) => self.core.metrics.counter("queries.failed").inc(),
        }
        result
    }

    /// Fold a successful execution's spans and operator actuals into the
    /// registry, stash the actuals on the prepared handle and keep the
    /// finished profile among the recent ones.
    fn record_execution(
        &self,
        prepared: &PreparedQuery,
        obs: &QueryObs,
        profile: bool,
        total_nanos: u64,
    ) {
        let (spans, operators) = obs.take();
        let metrics = &self.core.metrics;
        metrics.counter("queries.executed").inc();
        metrics.record("query.total", total_nanos);
        for span in &spans {
            metrics.record(span.stage.metric_name(), span.nanos);
        }
        if profile {
            let mut per_stage: Vec<Vec<sqlengine::OpActuals>> =
                vec![Vec::new(); prepared.planned.plan.stage_count().max(1)];
            for op in &operators {
                metrics.record(&format!("operator.{}", op.op), op.nanos);
                if op.stage >= per_stage.len() {
                    per_stage.resize_with(op.stage + 1, Vec::new);
                }
                let stage = &mut per_stage[op.stage];
                if stage.len() <= op.node {
                    stage.resize_with(op.node + 1, Default::default);
                }
                stage[op.node] = sqlengine::OpActuals {
                    batches: op.batches,
                    rows_in: op.rows_in,
                    rows_out: op.rows_out,
                    nanos: op.nanos,
                };
            }
            if !operators.is_empty() {
                *prepared
                    .last_exec
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(per_stage);
            }
        }
        let mut all_spans = prepared.prepare_spans.as_ref().clone();
        all_spans.extend(spans);
        self.core.profiles.record(QueryProfile {
            query: prepared.planned.label.clone(),
            backend: prepared.backend.to_string(),
            cached: prepared.from_cache,
            profiled: profile,
            spans: all_spans,
            operators,
            total_nanos,
        });
    }

    /// Prepare (or fetch from the cache) and execute in one call.
    pub fn run(&self, term: &Term) -> Result<Value, ShredError> {
        let prepared = self.prepare(term)?;
        self.execute(&prepared)
    }

    /// Evaluate a query directly with the nested reference semantics N⟦−⟧
    /// (no shredding, no SQL). The ground truth every backend is validated
    /// against (Theorem 4).
    pub fn oracle(&self, term: &Term) -> Result<Value, ShredError> {
        self.oracle_bound(term, &Params::new())
    }

    /// The reference semantics with explicit parameter bindings — the ground
    /// truth for bound execution (used by the differential test suites).
    pub fn oracle_bound(&self, term: &Term, params: &Params) -> Result<Value, ShredError> {
        let bindings = Bindings {
            values: params.values.clone(),
        };
        let db = self.exec_context(None).db()?;
        nrc::eval_with_params(term, &db, &bindings.to_value_map()).map_err(ShredError::Eval)
    }

    /// The session's metrics registry: counters (`queries.prepared`,
    /// `queries.executed`, `queries.failed`), per-stage latency histograms
    /// (`stage.execute`, `stage.stitch`, …), per-operator-kind histograms
    /// from profiled runs (`operator.HashJoin`, …) and the end-to-end
    /// `query.total` histogram. Shared by every clone of the session.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.core.metrics
    }

    /// A point-in-time, JSON-serialisable view of the registry, with the
    /// plan-cache counters and the engine's plan-compilation counter folded
    /// in as gauges (`cache.hits`, `cache.misses`, `cache.evictions`,
    /// `cache.entries`, `engine.plans_built`).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let metrics = &self.core.metrics;
        let stats = self.cache_stats();
        let clamp = |v: u64| v.min(i64::MAX as u64) as i64;
        metrics.gauge("cache.hits").set(clamp(stats.hits));
        metrics.gauge("cache.misses").set(clamp(stats.misses));
        metrics.gauge("cache.evictions").set(clamp(stats.evictions));
        metrics
            .gauge("cache.entries")
            .set(clamp(stats.entries as u64));
        let plans = self.core.engine.as_ref().map_or(0, |e| e.plans_built());
        metrics.gauge("engine.plans_built").set(clamp(plans));
        metrics.snapshot()
    }

    /// The most recent query profiles (oldest first) from the session's
    /// in-memory ring buffer — one [`QueryProfile`] per completed execute
    /// call, holding the per-stage spans (and per-operator actuals when the
    /// call was profiled).
    pub fn recent_profiles(&self) -> Vec<QueryProfile> {
        self.core.profiles.recent()
    }
}
