//! Observability tests: per-operator profiling is semantically transparent
//! (every benchmark query returns identical results profiled and
//! unprofiled), `explain_analyze()` actuals agree with the nested reference
//! semantics' cardinalities, the metrics registry counts exactly under
//! concurrent execution, and `MetricsSnapshot` round-trips through its JSON
//! encoding.

use query_shredding::prelude::*;
use query_shredding::shredding::obs::{
    Histogram, MetricsRegistry, MetricsSnapshot, ObsSink, OperatorProfile, QueryObs, QueryProfile,
    RingSink, Stage,
};
use std::sync::Arc;

fn small_db() -> Database {
    generate(&OrgConfig {
        departments: 3,
        employees_per_department: 5,
        contacts_per_department: 2,
        seed: 23,
        ..OrgConfig::default()
    })
}

/// Every benchmark query the paper evaluates: QF1–QF6 and Q1–Q6.
fn all_benchmark_queries() -> Vec<(&'static str, nrc::Term)> {
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    queries
}

// ---------------------------------------------------------------------------
// Static Send + Sync assertions
// ---------------------------------------------------------------------------

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn the_observability_layer_is_send_and_sync() {
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<Arc<MetricsRegistry>>();
    assert_send_sync::<Histogram>();
    assert_send_sync::<MetricsSnapshot>();
    assert_send_sync::<QueryObs>();
    assert_send_sync::<QueryProfile>();
    assert_send_sync::<OperatorProfile>();
    assert_send_sync::<RingSink>();
    assert_send_sync::<Arc<dyn ObsSink>>();
}

// ---------------------------------------------------------------------------
// Profiling is semantically transparent
// ---------------------------------------------------------------------------

#[test]
fn profiled_and_unprofiled_execution_agree_on_every_benchmark_query() {
    let session = Shredder::builder().database(small_db()).build().unwrap();
    let no_params = Params::new();
    for (name, q) in all_benchmark_queries() {
        let reference = session.oracle(&q).unwrap();
        let prepared = session.prepare(&q).unwrap();
        let unprofiled = session
            .execute_profiled(&prepared, &no_params, false)
            .unwrap();
        let profiled = session
            .execute_profiled(&prepared, &no_params, true)
            .unwrap();
        assert!(
            unprofiled.multiset_eq(&reference),
            "{}: unprofiled result diverges from the oracle",
            name
        );
        assert!(
            profiled.multiset_eq(&reference),
            "{}: profiled result diverges from the oracle",
            name
        );
    }
}

// ---------------------------------------------------------------------------
// explain_analyze() actuals vs. oracle cardinalities
// ---------------------------------------------------------------------------

#[test]
fn explain_analyze_row_counts_match_oracle_cardinalities() {
    let session = Shredder::builder()
        .database(small_db())
        .profile(true)
        .build()
        .unwrap();
    let q = datagen::queries::q4();
    let prepared = session.prepare(&q).unwrap();
    session.execute(&prepared).unwrap();

    // Oracle cardinalities: the outer bag is one row per department, the
    // inner stage one row per (department, employee) pair.
    let oracle = session.oracle(&q).unwrap();
    let outer = oracle.as_bag().unwrap();
    let inner_total: usize = outer
        .iter()
        .map(|row| {
            let fields = row.as_record().unwrap();
            let (_, employees) = fields.iter().find(|(l, _)| l == "employees").unwrap();
            employees.as_bag().unwrap().len()
        })
        .sum();
    assert_eq!(outer.len(), 3);
    assert!(inner_total > outer.len());

    // The root operator of each stage (pre-order node 0) must report the
    // stage's result cardinality as rows_out.
    let profiles = session.recent_profiles();
    let profile = profiles.last().expect("the default ring sink records");
    assert!(profile.profiled);
    let root_rows = |stage: usize| {
        profile
            .operators
            .iter()
            .find(|op| op.stage == stage && op.node == 0)
            .unwrap_or_else(|| panic!("stage {} has a root operator", stage))
            .rows_out
    };
    assert_eq!(root_rows(0) as usize, outer.len());
    assert_eq!(root_rows(1) as usize, inner_total);

    // And the rendered plan carries the same actuals on every node.
    let analyzed = prepared.explain_analyze().unwrap();
    assert!(
        analyzed.contains(&format!("rows_out={}", outer.len())),
        "{analyzed}"
    );
    assert!(
        analyzed.contains(&format!("rows_out={}", inner_total)),
        "{analyzed}"
    );
    let node_count: usize = (0..prepared.query_count())
        .map(|s| profile.operators.iter().filter(|op| op.stage == s).count())
        .sum();
    assert_eq!(
        analyzed.matches("rows_out=").count(),
        node_count,
        "every plan node renders actuals:\n{analyzed}"
    );
}

#[test]
fn explain_analyze_requires_a_profiled_execution() {
    let session = Shredder::builder().database(small_db()).build().unwrap();
    let prepared = session.prepare(&datagen::queries::q4()).unwrap();
    // Never executed with profiling: there are no actuals to render.
    let err = prepared.explain_analyze().unwrap_err();
    assert!(
        err.to_string().contains("profile"),
        "the error should point at enabling profiling, got: {}",
        err
    );
    // An unprofiled execution does not change that.
    session.execute(&prepared).unwrap();
    assert!(prepared.explain_analyze().is_err());
    // A per-call profiled execution does.
    session
        .execute_profiled(&prepared, &Params::new(), true)
        .unwrap();
    assert!(prepared.explain_analyze().unwrap().contains("rows_out="));
}

/// An emptiness test in a record field compiles to `NOT (EXISTS (…))` in the
/// projection list, a subplan that runs once per outer row. The profiler
/// times it like any node, so `explain_analyze()` must render it too: marked,
/// under the node whose expression holds it, with its actuals.
#[test]
fn explain_analyze_shows_the_subplans_inside_expressions() {
    let session = Shredder::builder()
        .database(generate(&OrgConfig::small()))
        .profile(true)
        .build()
        .unwrap();
    let staff = for_where(
        "e",
        table("employees"),
        eq(project(var("e"), "dept"), project(var("d"), "name")),
        singleton(project(var("e"), "name")),
    );
    let q = for_in(
        "d",
        table("departments"),
        singleton(record([
            ("name", project(var("d"), "name")),
            ("lonely", is_empty(staff)),
        ])),
    );
    let prepared = session.prepare(&q).unwrap();
    let value = session.execute(&prepared).unwrap();
    assert!(value.multiset_eq(&session.oracle(&q).unwrap()));
    let departments = value.as_bag().unwrap().len();

    let analyzed = prepared.explain_analyze().unwrap();
    assert!(analyzed.contains("EXISTS: "), "{analyzed}");
    let scan = analyzed
        .lines()
        .find(|line| line.contains("TableScan employees"))
        .unwrap_or_else(|| panic!("the EXISTS subplan is not rendered:\n{analyzed}"));
    assert!(
        scan.contains(&format!("batches={departments} ")),
        "the subplan runs once per department:\n{analyzed}"
    );
}

// ---------------------------------------------------------------------------
// Registry exactness under concurrency
// ---------------------------------------------------------------------------

#[test]
fn the_registry_counts_exactly_under_concurrent_execution() {
    const THREADS: usize = 8;
    const EXECS: usize = 50;
    let session = Arc::new(Shredder::builder().database(small_db()).build().unwrap());
    let q = datagen::queries::q4();
    let prepared = session.prepare(&q).unwrap();
    let stages = prepared.query_count();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let session = Arc::clone(&session);
            let prepared = prepared.clone();
            std::thread::spawn(move || {
                for _ in 0..EXECS {
                    session.execute(&prepared).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = (THREADS * EXECS) as u64;
    let snapshot = session.metrics_snapshot();
    assert_eq!(snapshot.counter("queries.executed"), Some(total));
    assert_eq!(snapshot.counter("queries.failed").unwrap_or(0), 0);
    let query_total = snapshot.histogram("query.total").unwrap();
    assert_eq!(query_total.count, total);
    let execute = snapshot.histogram("stage.execute").unwrap();
    assert_eq!(execute.count, total * stages as u64);
    // The histogram's quantile read-out is ordered and bounded by the exact
    // min/max it tracks.
    assert!(query_total.min <= query_total.p50);
    assert!(query_total.p50 <= query_total.p95);
    assert!(query_total.p95 <= query_total.p99);
    assert!(query_total.p99 <= query_total.max || query_total.p99 <= query_total.max * 104 / 100);
}

// ---------------------------------------------------------------------------
// Snapshot JSON round-trip and explain() cache stats
// ---------------------------------------------------------------------------

#[test]
fn metrics_snapshot_round_trips_through_json() {
    let session = Shredder::builder().database(small_db()).build().unwrap();
    for (_, q) in all_benchmark_queries() {
        let prepared = session.prepare(&q).unwrap();
        session
            .execute_profiled(&prepared, &Params::new(), true)
            .unwrap();
    }
    let snapshot = session.metrics_snapshot();
    assert!(snapshot.counter("queries.prepared").unwrap() >= 12);
    assert!(snapshot.gauge("cache.entries").is_some());
    assert!(snapshot.gauge("engine.plans_built").is_some());
    assert!(snapshot
        .histograms
        .iter()
        .any(|(name, _)| name.starts_with("operator.")));
    let json = snapshot.to_json();
    let back = MetricsSnapshot::from_json(&json).unwrap();
    assert_eq!(snapshot, back);
}

#[test]
fn explain_renders_cache_stats_and_engine_plan_count() {
    let session = Shredder::builder().database(small_db()).build().unwrap();
    let q = datagen::queries::q4();
    session.execute(&session.prepare(&q).unwrap()).unwrap();
    // Second prepare hits the plan cache; its explain must say so.
    let prepared = session.prepare(&q).unwrap();
    assert!(prepared.from_cache());
    let rendered = prepared.explain().to_string();
    assert!(rendered.contains("cache: hits=1"), "{rendered}");
    assert!(rendered.contains("engine plans built:"), "{rendered}");
}

// ---------------------------------------------------------------------------
// Metrics of the removed morsel pool
// ---------------------------------------------------------------------------

// Operators run whole batches, so no session registers the pool's counter,
// gauge or histogram.

#[test]
fn a_single_worker_session_records_no_morsel_metrics() {
    let session = Shredder::builder()
        .database(small_db())
        .workers(1)
        .build()
        .unwrap();
    let q = datagen::queries::q4();
    session.execute(&session.prepare(&q).unwrap()).unwrap();
    let snapshot = session.metrics_snapshot();
    assert_eq!(snapshot.counter("morsels.dispatched"), None);
    assert_eq!(snapshot.gauge("workers.active"), None);
    assert!(snapshot.histogram("morsel").is_none());
}

// ---------------------------------------------------------------------------
// Sinks and stage tracing
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct CountingSink {
    seen: std::sync::Mutex<Vec<QueryProfile>>,
}

impl ObsSink for CountingSink {
    fn record(&self, profile: QueryProfile) {
        self.seen.lock().unwrap().push(profile);
    }
}

#[test]
fn a_custom_sink_receives_every_profile_with_all_pipeline_stages() {
    let sink = Arc::new(CountingSink::default());
    let session = Shredder::builder()
        .database(small_db())
        .obs_sink(sink.clone())
        .without_plan_cache()
        .build()
        .unwrap();
    let q = datagen::queries::q4();
    let prepared = session.prepare(&q).unwrap();
    session.execute(&prepared).unwrap();
    session.execute(&prepared).unwrap();
    let seen = sink.seen.lock().unwrap();
    assert_eq!(seen.len(), 2);
    // Stage tracing is always on: prepare-side and execute-side spans are
    // both present even without per-operator profiling.
    for stage in [
        Stage::Typecheck,
        Stage::Normalise,
        Stage::Shred,
        Stage::Sqlgen,
        Stage::Plan,
        Stage::Execute,
        Stage::Decode,
        Stage::Stitch,
    ] {
        assert!(
            seen[0].spans.iter().any(|s| s.stage == stage),
            "missing span for stage {}",
            stage
        );
    }
    assert!(!seen[0].profiled);
    assert!(seen[0].operators.is_empty());
    assert!(seen[0].total_nanos >= seen[0].stage_nanos(Stage::Execute));
    // Installing a custom sink replaces the in-memory ring.
    assert!(session.recent_profiles().is_empty());
}

// ---------------------------------------------------------------------------
// Write-path observability: apply_batch counters and maintenance histogram
// ---------------------------------------------------------------------------

#[test]
fn committed_writes_bump_the_write_counters_and_maintain_histogram() {
    let db = small_db();
    let session = Shredder::over(db.clone()).unwrap();
    let queries = datagen::queries::nested_queries();
    let p1 = session.prepare(&queries[0].1).unwrap();
    let p2 = session.prepare(&queries[3].1).unwrap();
    let _s1 = session.subscribe(&p1).unwrap();
    let _s2 = session.subscribe(&p2).unwrap();

    let mut stream = MutationStream::over(
        &db,
        MutationConfig {
            ops_per_batch: 2,
            seed: 31,
            ..MutationConfig::default()
        },
    );
    let mut delta_rows = 0u64;
    const BATCHES: u64 = 5;
    for _ in 0..BATCHES {
        let delta = session.apply_batch(&stream.next_batch()).unwrap();
        delta_rows += delta.row_count() as u64;
    }

    let snapshot = session.metrics_snapshot();
    assert_eq!(snapshot.counter("writes.applied"), Some(BATCHES));
    assert_eq!(snapshot.counter("delta.rows"), Some(delta_rows));
    // One maintenance sample per live subscription per committed batch.
    let maintain = snapshot.histogram("stage.maintain").unwrap();
    assert_eq!(maintain.count, BATCHES * 2);
    assert!(maintain.min <= maintain.p50 && maintain.p50 <= maintain.max);
}

#[test]
fn a_dropped_subscription_stops_contributing_maintenance_samples() {
    let db = small_db();
    let session = Shredder::over(db.clone()).unwrap();
    let (_, q) = datagen::queries::nested_queries().remove(0);
    let prepared = session.prepare(&q).unwrap();
    let sub = session.subscribe(&prepared).unwrap();

    let mut stream = MutationStream::over(
        &db,
        MutationConfig {
            ops_per_batch: 2,
            seed: 37,
            ..MutationConfig::default()
        },
    );
    session.apply_batch(&stream.next_batch()).unwrap();
    drop(sub);
    session.apply_batch(&stream.next_batch()).unwrap();

    let snapshot = session.metrics_snapshot();
    assert_eq!(snapshot.counter("writes.applied"), Some(2));
    let maintain = snapshot.histogram("stage.maintain").unwrap();
    assert_eq!(
        maintain.count, 1,
        "only the batch committed while the subscription was alive maintains it"
    );
}
