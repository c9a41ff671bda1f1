//! Lock-free counters, gauges and log-linear latency histograms.
//!
//! The registry itself uses an `RwLock` only to intern instrument names on
//! first use; every `inc`/`set`/`record` afterwards is a handful of atomic
//! operations on `Arc`-shared instruments, so recording never takes a lock
//! and the registry is count-exact under concurrent writers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use crate::json::Json;
use crate::read;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic gauge (signed, so deltas can go negative).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of significand bits per power-of-two group: 32 sub-buckets, so the
/// relative quantile error from bucketing is at most ~3% (half a bucket).
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Values 0..32 get exact unit buckets; every further power of two up to
/// 2^63 gets 32 log-linear sub-buckets: (64 - 5 + 1) * 32 buckets in total.
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
        ((msb - SUB_BITS + 1) as usize) * SUB as usize + sub
    }
}

/// Midpoint of the value range covered by bucket `i` (the representative
/// value reported for quantiles falling in that bucket).
fn bucket_value(i: usize) -> u64 {
    if i < SUB as usize {
        i as u64
    } else {
        let group = (i / SUB as usize) as u32; // >= 1
        let sub = (i % SUB as usize) as u64;
        let msb = group + SUB_BITS - 1;
        let width = 1u64 << (msb - SUB_BITS);
        (1u64 << msb) + sub * width + width / 2
    }
}

/// A lock-free log-linear histogram of `u64` samples (nanoseconds by
/// convention). Recording is three relaxed atomic RMW operations; quantile
/// readout walks a snapshot of the buckets. `count`, `sum`, `min` and `max`
/// are tracked exactly; quantiles are exact below 32 and within ~3% above.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Histogram {
    pub(crate) fn new() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, AtomicU64::default);
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub(crate) fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub(crate) fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// The value at quantile `q` in `[0, 1]` (0 when empty). Exact for
    /// samples below 32ns; within one log-linear sub-bucket (~3%) otherwise.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                // Clamp the representative midpoint into the observed range
                // so p100 never exceeds the true max.
                return bucket_value(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time summary of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// Shared registry of named instruments. Cheap to clone via `Arc`; the name
/// maps are `RwLock`-guarded but only touched when an instrument is first
/// created (or looked up by name) — the hot recording path is lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Record `nanos` into the histogram named `name`.
    pub fn record(&self, name: &str, nanos: u64) {
        self.histogram(name).record(nanos);
    }

    /// Snapshot every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = read(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = read(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = read(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Get or create the instrument named `name` in `map`.
fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(found) = read(map).get(name) {
        return Arc::clone(found);
    }
    let mut map = map.write().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// A point-in-time, JSON-serialisable view of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    pub fn to_json(&self) -> String {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::from_u64(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::from_i64(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("count".into(), Json::from_u64(h.count)),
                            ("sum".into(), Json::from_u64(h.sum)),
                            ("min".into(), Json::from_u64(h.min)),
                            ("max".into(), Json::from_u64(h.max)),
                            ("p50".into(), Json::from_u64(h.p50)),
                            ("p95".into(), Json::from_u64(h.p95)),
                            ("p99".into(), Json::from_u64(h.p99)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_registry_lock_is_recovered_not_re_panicked() {
        let registry = Arc::new(MetricsRegistry::default());
        registry.counter("before").inc();
        let holder = Arc::clone(&registry);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.counters.write().unwrap();
            panic!("a panic while the counter map is locked");
        })
        .join();
        assert!(panicked.is_err());
        assert!(registry.counters.is_poisoned());
        registry.counter("before").inc();
        registry.counter("after").add(3);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("before"), Some(2));
        assert_eq!(snapshot.counter("after"), Some(3));
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for probe in [v, v + v / 3, v + v / 2] {
                let i = bucket_index(probe);
                assert!(i < NUM_BUCKETS, "index {i} out of range for {probe}");
                assert!(i >= last, "index not monotone at {probe}");
                last = i;
            }
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn bucket_value_round_trips() {
        for shift in 0..63u32 {
            let v = (1u64 << shift) + (1u64 << shift) / 3;
            let i = bucket_index(v);
            let rep = bucket_value(i);
            // The representative midpoint must land back in the same bucket.
            assert_eq!(bucket_index(rep), i, "value {v} rep {rep}");
        }
    }

    #[test]
    fn quantiles_are_close() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5) as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.05, "p50 {p50}");
        let p99 = h.quantile(0.99) as f64;
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.05, "p99 {p99}");
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.min(), 1000);
    }

    #[test]
    fn registry_snapshot_renders_as_json() {
        let reg = MetricsRegistry::default();
        reg.counter("queries.executed").add(7);
        reg.gauge("cache.entries").set(-3);
        reg.histogram("stage.execute").record(12345);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("queries.executed"), Some(7));
        assert_eq!(snap.gauge("cache.entries"), Some(-3));
        assert_eq!(snap.histogram("stage.execute").unwrap().count, 1);
        assert_eq!(
            snap.to_json(),
            concat!(
                r#"{"counters":{"queries.executed":7},"gauges":{"cache.entries":-3},"#,
                r#""histograms":{"stage.execute":{"count":1,"sum":12345,"min":12345,"#,
                r#""max":12345,"p50":12345,"p95":12345,"p99":12345}}}"#
            )
        );
    }
}
