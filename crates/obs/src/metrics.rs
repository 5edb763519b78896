//! Named counters, gauges and log-2 histograms behind a shared registry.
//!
//! The design splits *cells* from *names*: a [`Counter`], [`Gauge`] or
//! [`Histogram`] is a cheap cloneable handle over lock-free atomics and can
//! live entirely on its own (`Counter::default()` is a private, unregistered
//! cell — existing structs keep deriving `Default` and counting exactly as
//! before). A [`Registry`] is merely a name → cell table: asking it for
//! `"transport.requests"` twice hands back handles over the *same* cell, so
//! producers in different layers aggregate without coordination. The
//! registry lock guards creation only; the hot increment path is a single
//! relaxed `fetch_add`.
//!
//! Snapshots ([`MetricsSnapshot`]) are plain ordered data: diffable,
//! mergeable ([`Registry::absorb`] folds per-worker registries into the
//! study-wide one deterministically) and exportable as Prometheus-style
//! text. Wall-clock metrics (unit [`Unit::Nanos`]) are deliberately
//! excluded from the text exposition and from
//! [`MetricsSnapshot::deterministic`] so that same-seed runs produce
//! byte-identical exports.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a metric's value counts; selects export formatting and whether the
/// metric is part of the deterministic (seed-reproducible) surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Unit {
    /// Dimensionless event count (the default).
    #[default]
    Count,
    /// Payload sizes.
    Bytes,
    /// Wall-clock nanoseconds — machine-dependent, excluded from
    /// deterministic exports.
    Nanos,
}

/// Monotone counter: a cloneable handle over one lock-free cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A standalone (unregistered) counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Signed up/down gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A standalone (unregistered) gauge at zero.
    pub(crate) fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `u64::MAX` (`2^0..2^63`).
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    /// Exact smallest observed value; `u64::MAX` sentinel while empty.
    min: AtomicU64,
    /// Exact largest observed value; only meaningful once non-empty.
    max: AtomicU64,
}

impl Default for HistCells {
    fn default() -> Self {
        HistCells {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Fixed log-2 bucket histogram: bucket 0 holds exact zeros, bucket `i > 0`
/// holds values in `[2^(i-1), 2^i - 1]`. Recording is two relaxed
/// `fetch_add`s; there is no dynamic allocation and merging two histograms
/// is bucket-wise addition, so per-worker shards fold losslessly.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Histogram {
    /// A standalone (unregistered) empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index `v` falls into.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            1..=63 => (1u64 << i) - 1,
            _ => u64::MAX,
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.cells.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(v, Ordering::Relaxed);
        self.cells.min.fetch_min(v, Ordering::Relaxed);
        self.cells.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Folds a snapshot (e.g. from a worker shard) into this histogram.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        for (i, &n) in snap.buckets.iter().enumerate() {
            if n > 0 {
                self.cells.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.cells.sum.fetch_add(snap.sum, Ordering::Relaxed);
        // Empty snapshots carry the sentinels (MAX/0), which are identity
        // elements for min/max — no emptiness check needed.
        self.cells.min.fetch_min(snap.min_raw, Ordering::Relaxed);
        self.cells.max.fetch_max(snap.max_raw, Ordering::Relaxed);
    }

    /// Immutable copy of the current buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .cells
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            buckets,
            sum: self.cells.sum.load(Ordering::Relaxed),
            min_raw: self.cells.min.load(Ordering::Relaxed),
            max_raw: self.cells.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Exact smallest observed value (`u64::MAX` sentinel when empty; use
    /// [`HistogramSnapshot::min`]).
    min_raw: u64,
    /// Exact largest observed value (0 when empty; use
    /// [`HistogramSnapshot::max`]).
    max_raw: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: Vec::new(),
            sum: 0,
            min_raw: u64::MAX,
            max_raw: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exact smallest observed value, `None` when empty. Unlike
    /// [`HistogramSnapshot::quantile`], this is not bucket-resolution.
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then_some(self.min_raw)
    }

    /// Exact largest observed value, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then_some(self.max_raw)
    }

    /// Bucket-wise merge. Min/max fold exactly: the sentinels of an empty
    /// side are identity elements.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; HISTOGRAM_BUCKETS];
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        // Value sums wrap, matching the atomic `fetch_add` recording path.
        self.sum = self.sum.wrapping_add(other.sum);
        self.min_raw = self.min_raw.min(other.min_raw);
        self.max_raw = self.max_raw.max(other.max_raw);
    }

    /// The bucket-wise difference `self − earlier`, for windowed views of
    /// a monotone histogram (`earlier` must be a previous snapshot of the
    /// same histogram). Min/max cannot be reconstructed per window, so the
    /// delta carries the empty sentinels.
    pub(crate) fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets = if earlier.buckets.is_empty() {
            self.buckets.clone()
        } else {
            self.buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect()
        };
        HistogramSnapshot {
            buckets,
            sum: self.sum.wrapping_sub(earlier.sum),
            ..HistogramSnapshot::default()
        }
    }

    /// Quantile estimate: the inclusive upper bound of the first bucket at
    /// which the cumulative count reaches `q` of the total (0 when empty).
    /// Upper bounds make the estimate conservative and monotone both in `q`
    /// and under insertion of ever-larger values.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Histogram::bucket_bound(i);
            }
        }
        Histogram::bucket_bound(HISTOGRAM_BUCKETS - 1)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter, Unit),
    Gauge(Gauge),
    Histogram(Histogram, Unit),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(..) => "counter",
            Metric::Gauge(..) => "gauge",
            Metric::Histogram(..) => "histogram",
        }
    }
}

/// Name → cell table. Cloning shares the table; handles returned for the
/// same name share the cell. The internal lock covers name resolution only
/// — once a handle is out, increments are lock-free.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn resolve<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        view: impl FnOnce(&Metric) -> Option<T>,
    ) -> T {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let metric = metrics.entry(name.to_owned()).or_insert_with(make);
        match view(metric) {
            Some(handle) => handle,
            None => panic!("metric {name:?} already registered as a {}", metric.kind()),
        }
    }

    /// The counter named `name` (created with [`Unit::Count`] on first use).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with_unit(name, Unit::Count)
    }

    /// The counter named `name`, created with `unit` on first use.
    pub fn counter_with_unit(&self, name: &str, unit: Unit) -> Counter {
        self.resolve(
            name,
            || Metric::Counter(Counter::new(), unit),
            |m| match m {
                Metric::Counter(c, _) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// The gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.resolve(
            name,
            || Metric::Gauge(Gauge::new()),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// The histogram named `name` (created with [`Unit::Count`] on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_unit(name, Unit::Count)
    }

    /// The histogram named `name`, created with `unit` on first use.
    pub fn histogram_with_unit(&self, name: &str, unit: Unit) -> Histogram {
        self.resolve(
            name,
            || Metric::Histogram(Histogram::new(), unit),
            |m| match m {
                Metric::Histogram(h, _) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Ordered plain-data copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let entries = metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c, unit) => MetricValue::Counter {
                        value: c.get(),
                        unit: *unit,
                    },
                    Metric::Gauge(g) => MetricValue::Gauge { value: g.get() },
                    Metric::Histogram(h, unit) => MetricValue::Histogram {
                        snap: h.snapshot(),
                        unit: *unit,
                    },
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// Folds a snapshot into this registry: counters and gauges add,
    /// histograms merge bucket-wise. Missing metrics are created with the
    /// snapshot's unit. Used to merge per-worker registries in a
    /// deterministic (caller-chosen) order.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        for (name, value) in &snap.entries {
            match value {
                MetricValue::Counter { value, unit } => {
                    self.counter_with_unit(name, *unit).add(*value);
                }
                MetricValue::Gauge { value } => {
                    self.gauge(name).add(*value);
                }
                MetricValue::Histogram { snap, unit } => {
                    self.histogram_with_unit(name, *unit).absorb(snap);
                }
            }
        }
    }
}

/// One metric's value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter {
        /// Accumulated value.
        value: u64,
        /// Declared unit.
        unit: Unit,
    },
    /// Gauge.
    Gauge {
        /// Current value.
        value: i64,
    },
    /// Histogram.
    Histogram {
        /// Bucket copy.
        snap: HistogramSnapshot,
        /// Declared unit.
        unit: Unit,
    },
}

impl MetricValue {
    fn unit(&self) -> Unit {
        match self {
            MetricValue::Counter { unit, .. } | MetricValue::Histogram { unit, .. } => *unit,
            MetricValue::Gauge { .. } => Unit::Count,
        }
    }
}

/// Ordered plain-data copy of a [`Registry`]: comparable across runs,
/// mergeable across workers, exportable as text.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Name → value, ordered by name.
    pub entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Counter value by name, zero if absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(MetricValue::Counter { value, .. }) => *value,
            _ => 0,
        }
    }

    /// The snapshot restricted to seed-reproducible metrics: everything
    /// except wall-clock ([`Unit::Nanos`]) values. Two same-seed runs
    /// compare equal on this view.
    pub fn deterministic(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .filter(|(_, v)| v.unit() != Unit::Nanos)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Prometheus-style text exposition of the deterministic view. Metric
    /// names are sanitized (`.` and `-` become `_`), output is ordered by
    /// name, histograms expose cumulative buckets plus `_sum`/`_count`.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            if value.unit() == Unit::Nanos {
                continue;
            }
            let name = sanitize_metric_name(name);
            match value {
                MetricValue::Counter { value, .. } => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {value}");
                }
                MetricValue::Gauge { value } => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {value}");
                }
                MetricValue::Histogram { snap, .. } => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (i, &n) in snap.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cumulative += n;
                        let bound = Histogram::bucket_bound(i);
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    let _ = writeln!(out, "{name}_sum {}", snap.sum);
                    let _ = writeln!(out, "{name}_count {cumulative}");
                    // Exact observed extremes (the buckets are log-2, so
                    // quantiles alone are bound-resolution only).
                    if let (Some(lo), Some(hi)) = (snap.min(), snap.max()) {
                        let _ = writeln!(out, "{name}_min {lo}");
                        let _ = writeln!(out, "{name}_max {hi}");
                    }
                }
            }
        }
        out
    }
}

fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => c,
            _ => '_',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_by_name() {
        let registry = Registry::new();
        let a = registry.counter("transport.requests");
        let b = registry.counter("transport.requests");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
    }

    #[test]
    fn standalone_counter_is_independent() {
        let a = Counter::new();
        let b = Counter::new();
        a.add(2);
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Exact zeros get their own bucket.
        assert_eq!(Histogram::bucket_index(0), 0);
        // Bucket i covers [2^(i-1), 2^i - 1].
        for i in 1..=63usize {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i).wrapping_sub(1);
            assert_eq!(Histogram::bucket_index(lo), i, "low edge of bucket {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "high edge of bucket {i}");
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(1), 1);
        assert_eq!(Histogram::bucket_bound(3), 7);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_and_merge() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.sum, 110);
        // p50 rank 3 → value 3 lives in bucket [2,3].
        assert_eq!(snap.quantile(0.5), 3);
        // p99 lands in 100's bucket [64,127].
        assert_eq!(snap.quantile(0.99), 127);
        assert!(snap.quantile(0.5) <= snap.quantile(0.99));

        let other = Histogram::new();
        other.record(0);
        let mut merged = snap.clone();
        merged.merge(&other.snapshot());
        assert_eq!(merged.count(), 6);
        assert_eq!(merged.quantile(0.0), 0);
    }

    #[test]
    fn histogram_tracks_exact_min_and_max() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().min(), None, "empty histogram has no extremes");
        assert_eq!(h.snapshot().max(), None);
        for v in [37u64, 5, 901, 5, 64] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.min(), Some(5));
        assert_eq!(snap.max(), Some(901), "exact, not the bucket bound 1023");
        assert!(snap.max().unwrap() <= snap.quantile(1.0));
    }

    #[test]
    fn min_max_survive_shard_merges() {
        // Three worker shards with disjoint ranges, one empty.
        let a = Histogram::new();
        a.record(100);
        a.record(150);
        let b = Histogram::new();
        b.record(3);
        let empty = Histogram::new();

        // merge() on snapshots…
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        merged.merge(&empty.snapshot());
        assert_eq!(merged.min(), Some(3));
        assert_eq!(merged.max(), Some(150));

        // …and absorb() into a live histogram agree.
        let study = Histogram::new();
        study.absorb(&a.snapshot());
        study.absorb(&empty.snapshot());
        study.absorb(&b.snapshot());
        assert_eq!(study.snapshot().min(), Some(3));
        assert_eq!(study.snapshot().max(), Some(150));
        assert_eq!(study.snapshot(), merged);

        // Absorbing only empties leaves the sentinels (still "no extremes").
        let idle = Histogram::new();
        idle.absorb(&empty.snapshot());
        assert_eq!(idle.snapshot().min(), None);
        assert_eq!(idle.snapshot().max(), None);
    }

    #[test]
    fn delta_since_isolates_a_window() {
        let h = Histogram::new();
        h.record(10);
        let before = h.snapshot();
        h.record(1000);
        h.record(2000);
        let delta = h.snapshot().delta_since(&before);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum, 3000);
        assert_eq!(delta.quantile(0.5), 1023, "only the window's buckets");
        // Against a default (empty) baseline the delta is the snapshot's
        // own buckets.
        let full = h.snapshot().delta_since(&HistogramSnapshot::default());
        assert_eq!(full.count(), 3);
    }

    #[test]
    fn absorb_sums_counters_and_buckets() {
        let worker = Registry::new();
        worker.counter("transport.retries").add(2);
        worker.histogram("crawl.attempts").record(3);
        worker.gauge("depth").set(5);

        let study = Registry::new();
        study.counter("transport.retries").add(1);
        study.absorb(&worker.snapshot());
        study.absorb(&worker.snapshot());

        let snap = study.snapshot();
        assert_eq!(snap.counter("transport.retries"), 5);
        match &snap.entries["crawl.attempts"] {
            MetricValue::Histogram { snap, .. } => assert_eq!(snap.count(), 2),
            other => panic!("unexpected {other:?}"),
        }
        match &snap.entries["depth"] {
            MetricValue::Gauge { value } => assert_eq!(*value, 10),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn prometheus_exposition_is_sanitized_sorted_and_walltime_free() {
        let registry = Registry::new();
        registry.counter("transport.requests").add(7);
        registry
            .counter_with_unit("transport.latency_ns", Unit::Nanos)
            .add(123_456);
        registry.histogram("crawl.attempts").record(1);
        registry.histogram("crawl.attempts").record(2);

        let text = registry.snapshot().prometheus();
        assert!(text.contains("# TYPE transport_requests counter"));
        assert!(text.contains("transport_requests 7"));
        assert!(!text.contains("latency"), "wall-clock metrics excluded");
        assert!(text.contains("crawl_attempts_bucket{le=\"1\"} 1"));
        assert!(text.contains("crawl_attempts_bucket{le=\"3\"} 2"));
        assert!(text.contains("crawl_attempts_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("crawl_attempts_sum 3"));
        assert!(text.contains("crawl_attempts_count 2"));
        assert!(text.contains("crawl_attempts_min 1"));
        assert!(text.contains("crawl_attempts_max 2"));
        // Sorted by name: crawl.* precedes transport.*.
        let crawl_at = text.find("crawl_attempts").unwrap();
        let transport_at = text.find("transport_requests").unwrap();
        assert!(crawl_at < transport_at);
    }

    #[test]
    fn deterministic_view_drops_nanos_only() {
        let registry = Registry::new();
        registry.counter("a").add(1);
        registry
            .counter_with_unit("b.latency_ns", Unit::Nanos)
            .add(999);
        let det = registry.snapshot().deterministic();
        assert_eq!(det.entries.len(), 1);
        assert!(det.entries.contains_key("a"));
    }
}
