//! The metrics half of the crate: named atomic counters and gauges plus
//! log2-bucketed latency histograms, collected in a [`MetricsRegistry`]
//! that renders Prometheus-style text or a serializable snapshot.
//!
//! All instruments use relaxed atomic operations: each counter is
//! individually exact (no lost increments) but a snapshot taken while
//! writers are in flight may observe related counters mid-update. Once
//! writers quiesce, every reading is exact — the property the workspace
//! concurrency tests pin down.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
///
/// Increments are `fetch_add(_, Relaxed)`: wait-free, exact after
/// quiesce, and with no ordering relationship to any other metric.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zeroed counter (not attached to any registry).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `total` if it is below it: how a tally kept
    /// elsewhere (a process-wide one, say) is mirrored into a registry by
    /// any number of observers without being counted twice.
    pub fn raise_to(&self, total: u64) {
        self.value.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (e.g. after a training phase).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A settable signed gauge (current level of something, not a tally).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket `i` counts samples in `[2^i, 2^(i+1))`
/// (zero folds into bucket 0), so 64 buckets cover the whole `u64` range.
const BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples, meant for latencies
/// recorded in **nanoseconds**.
///
/// Recording is two relaxed `fetch_add`s plus a `fetch_max` — cheap
/// enough for per-query paths. Quantiles are read from the bucket
/// boundaries, so they are upper-bound estimates with at most 2× error
/// (one octave); `max` is exact.
///
/// ```
/// use fbdr_obs::Histogram;
///
/// let h = Histogram::new();
/// for v in [100, 200, 400, 100_000] {
///     h.record(v);
/// }
/// let s = h.snapshot();
/// assert_eq!(s.count, 4);
/// assert_eq!(s.max, 100_000);
/// assert!(s.p50 >= 200 && s.p50 < 100_000);
/// assert_eq!(s.p99, 100_000);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index of a sample: `floor(log2(v))`, with 0 → bucket 0.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i`.
    #[inline]
    fn upper_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (2u64 << i) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// containing it, capped at the observed maximum. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let max = self.max.load(Ordering::Relaxed);
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            cum += self.buckets[i].load(Ordering::Relaxed);
            if cum >= target {
                return Self::upper_bound(i).min(max);
            }
        }
        max
    }

    /// A point-in-time summary (count, sum, max, p50/p90/p99/p999).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    /// Non-empty `(upper_bound, cumulative_count)` pairs, for exposition.
    fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            let n = self.buckets[i].load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                out.push((Self::upper_bound(i), cum));
            }
        }
        out
    }
}

/// Plain-data summary of a [`Histogram`], as stored in bench reports.
///
/// Times are nanoseconds; `p50`/`p90`/`p99`/`p999` are octave upper
/// bounds (at most 2× above the true quantile), `max` is exact. `p999`
/// defaults to 0 when decoding reports written before it existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum: u64,
    /// Largest sample (ns), exact.
    pub max: u64,
    /// Median estimate (ns).
    pub p50: u64,
    /// 90th-percentile estimate (ns).
    pub p90: u64,
    /// 99th-percentile estimate (ns).
    pub p99: u64,
    /// 99.9th-percentile estimate (ns).
    #[serde(default)]
    pub p999: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Plain-data snapshot of a whole registry: every counter, gauge and
/// histogram by name. Serializable, so bench reports can embed it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// A named registry of [`Counter`]s, [`Gauge`]s and [`Histogram`]s.
///
/// `counter`/`gauge`/`histogram` get-or-register: the first call for a
/// name creates the instrument, later calls return the same `Arc` — so
/// two components asking for `"fbdr_resync_redeliveries_total"` share one
/// underlying atomic. Callers on hot paths should resolve their handles
/// once and keep the `Arc`; the lookup itself takes a short lock.
///
/// ```
/// use fbdr_obs::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// reg.counter("fbdr_demo_requests_total").inc();
/// reg.counter("fbdr_demo_requests_total").add(2);
/// reg.histogram("fbdr_demo_latency_ns").record(1500);
///
/// let snap = reg.snapshot();
/// assert_eq!(snap.counters["fbdr_demo_requests_total"], 3);
/// assert_eq!(snap.histograms["fbdr_demo_latency_ns"].count, 1);
/// assert!(reg.render_prometheus().contains("fbdr_demo_requests_total 3"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// A point-in-time [`MetricsSnapshot`] of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Renders every instrument in the Prometheus text exposition format:
    /// counters as `name value`, histograms as cumulative
    /// `name_bucket{le="..."}` lines plus `name_sum`/`name_count`, with
    /// quantile estimates as `name{quantile="..."}` gauges for human
    /// readers.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, c) in self.counters.read().iter() {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.get());
        }
        for (name, g) in self.gauges.read().iter() {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", g.get());
        }
        for (name, h) in self.histograms.read().iter() {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut total = 0;
            for (le, cum) in h.cumulative_buckets() {
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
                total = cum;
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
            let s = h.snapshot();
            let _ = writeln!(out, "{name}_sum {}", s.sum);
            let _ = writeln!(out, "{name}_count {}", s.count);
            let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", s.p50);
            let _ = writeln!(out, "{name}{{quantile=\"0.9\"}} {}", s.p90);
            let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", s.p99);
            let _ = writeln!(out, "{name}{{quantile=\"0.999\"}} {}", s.p999);
            let _ = writeln!(out, "{name}{{quantile=\"1.0\"}} {}", s.max);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
        assert_eq!(Histogram::upper_bound(0), 1);
        assert_eq!(Histogram::upper_bound(1), 3);
        assert_eq!(Histogram::upper_bound(63), u64::MAX);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        // Octave upper bounds: within 2x above the true quantile.
        assert!(s.p50 >= 500 && s.p50 <= 1023, "p50={}", s.p50);
        assert!(s.p90 >= 900 && s.p90 <= 1000, "p90={}", s.p90);
        assert!(s.p99 >= 990 && s.p99 <= 1000, "p99={}", s.p99);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn registry_shares_instruments_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("x_total").get(), 2);
        reg.gauge("depth").set(-3);
        assert_eq!(reg.snapshot().gauges["depth"], -3);
    }

    #[test]
    fn prometheus_render_has_buckets_and_quantiles() {
        let reg = MetricsRegistry::new();
        reg.histogram("lat_ns").record(5);
        reg.histogram("lat_ns").record(900);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"7\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ns_count 2"));
        assert!(text.contains("lat_ns{quantile=\"1.0\"} 900"));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total").add(7);
        reg.histogram("h_ns").record(64);
        let snap = reg.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}
