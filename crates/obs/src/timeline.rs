//! Windowed metric timelines over logical time, plus SLO burn tracking.
//!
//! A [`Timeline`] turns the registry's end-of-run aggregates into
//! *series*: it holds cloned handles onto explicitly tracked counters,
//! gauges and histograms and, each time the driver crosses a window
//! boundary of the logical clock, closes one fixed-width window — counter
//! deltas, instantaneous gauge values, and per-window histogram stats
//! (count, sum, bucket-resolution p50/p95/p99 computed from the window's
//! bucket deltas). Sampling is driven by the caller (the traffic event
//! loop, before each delivery), never by wall time, so the recorded
//! series is a pure function of the seed: same seed ⇒ byte-identical
//! [`Timeline::json_lines`] and [`Timeline::csv`] exports.
//!
//! Window semantics: window `k` covers logical `[k·W, (k+1)·W)`. The
//! driver calls [`Timeline::advance_to`] with each event's delivery time
//! *before* dispatching it, so a closed window reflects exactly the events
//! that happened strictly inside it; [`Timeline::finish`] closes the final
//! partial window so the sum of per-window counter deltas always equals
//! the final counter value, whatever the window width.
//!
//! [`SloTracker`] sits on top: fed one `(good, bad, p99)` triple per
//! closed window, it computes the error-budget burn rate over short and
//! long lookback windows (the classic multi-window burn-rate alert) and
//! records an [`SloEvent`] at every transition into or out of violation.

use std::collections::VecDeque;
use std::time::Duration;

use crate::json;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};

/// One tracked counter: its cumulative value at the last closed window is
/// kept so each window stores a delta.
#[derive(Debug, Clone)]
struct TrackedCounter {
    name: String,
    handle: Counter,
    prev: u64,
}

#[derive(Debug, Clone)]
struct TrackedGauge {
    name: String,
    handle: Gauge,
}

#[derive(Debug, Clone)]
struct TrackedHist {
    name: String,
    handle: Histogram,
    prev: HistogramSnapshot,
}

/// Per-window view of one tracked histogram: stats of the observations
/// recorded inside the window (bucket-delta resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowHist {
    /// Observations recorded in the window.
    pub count: u64,
    /// Sum of values recorded in the window (wrapping, like the cells).
    pub sum: u64,
    /// Median of the window's observations (inclusive bucket bound).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// One closed window of the timeline. Value vectors are parallel to the
/// tracked-metric name lists (see `Timeline::counter_names` etc.).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRow {
    /// Window index (0-based).
    pub index: u64,
    /// Exclusive end of the window in logical nanoseconds. For full
    /// windows this is `(index + 1) · window_ns`; the final partial window
    /// ends at the run's end time instead.
    pub end_ns: u64,
    /// Counter deltas over the window.
    pub counters: Vec<u64>,
    /// Gauge values sampled at the window boundary.
    pub gauges: Vec<i64>,
    /// Per-window histogram stats.
    pub hists: Vec<WindowHist>,
}

/// A windowed recorder of registry metrics over logical time.
#[derive(Debug, Clone)]
pub struct Timeline {
    window_ns: u64,
    next_boundary_ns: u64,
    finished: bool,
    counters: Vec<TrackedCounter>,
    gauges: Vec<TrackedGauge>,
    hists: Vec<TrackedHist>,
    windows: Vec<WindowRow>,
}

impl Timeline {
    /// A timeline with fixed-width windows of `window` logical time
    /// (clamped to ≥ 1 ns).
    pub fn new(window: Duration) -> Timeline {
        let window_ns = (window.as_nanos().min(u64::MAX as u128) as u64).max(1);
        Timeline {
            window_ns,
            next_boundary_ns: window_ns,
            finished: false,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Window width in logical nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Tracks the counter named `name` (created in `registry` on first
    /// use). Must be called before the first window closes.
    pub fn track_counter(&mut self, registry: &Registry, name: &str) {
        self.counters.push(TrackedCounter {
            name: name.to_owned(),
            handle: registry.counter(name),
            prev: 0,
        });
    }

    /// Tracks the gauge named `name`.
    pub fn track_gauge(&mut self, registry: &Registry, name: &str) {
        self.gauges.push(TrackedGauge {
            name: name.to_owned(),
            handle: registry.gauge(name),
        });
    }

    /// Tracks the histogram named `name`.
    pub fn track_histogram(&mut self, registry: &Registry, name: &str) {
        self.hists.push(TrackedHist {
            name: name.to_owned(),
            handle: registry.histogram(name),
            prev: HistogramSnapshot::default(),
        });
    }

    /// Names of the tracked counters, in tracking order (parallel to
    /// [`WindowRow::counters`]).
    pub(crate) fn counter_names(&self) -> Vec<&str> {
        self.counters.iter().map(|c| c.name.as_str()).collect()
    }

    /// Names of the tracked gauges.
    pub(crate) fn gauge_names(&self) -> Vec<&str> {
        self.gauges.iter().map(|g| g.name.as_str()).collect()
    }

    /// Names of the tracked histograms.
    pub(crate) fn hist_names(&self) -> Vec<&str> {
        self.hists.iter().map(|h| h.name.as_str()).collect()
    }

    /// Position of a tracked counter inside [`WindowRow::counters`].
    pub fn counter_index(&self, name: &str) -> Option<usize> {
        self.counters.iter().position(|c| c.name == name)
    }

    /// Position of a tracked gauge inside [`WindowRow::gauges`].
    fn gauge_index(&self, name: &str) -> Option<usize> {
        self.gauges.iter().position(|g| g.name == name)
    }

    /// Position of a tracked histogram inside [`WindowRow::hists`].
    pub fn hist_index(&self, name: &str) -> Option<usize> {
        self.hists.iter().position(|h| h.name == name)
    }

    /// Logical time at which the next full window closes.
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary_ns
    }

    /// The closed windows so far.
    pub fn windows(&self) -> &[WindowRow] {
        &self.windows
    }

    /// The per-window delta series of a tracked counter.
    pub fn counter_series(&self, name: &str) -> Option<Vec<u64>> {
        let ix = self.counter_index(name)?;
        Some(self.windows.iter().map(|w| w.counters[ix]).collect())
    }

    /// The sampled-value series of a tracked gauge.
    pub fn gauge_series(&self, name: &str) -> Option<Vec<i64>> {
        let ix = self.gauge_index(name)?;
        Some(self.windows.iter().map(|w| w.gauges[ix]).collect())
    }

    /// The per-window stats series of a tracked histogram.
    pub fn hist_series(&self, name: &str) -> Option<Vec<WindowHist>> {
        let ix = self.hist_index(name)?;
        Some(self.windows.iter().map(|w| w.hists[ix]).collect())
    }

    fn snap_row(&mut self, index: u64, end_ns: u64) {
        let counters = self
            .counters
            .iter_mut()
            .map(|c| {
                let cur = c.handle.get();
                let delta = cur.saturating_sub(c.prev);
                c.prev = cur;
                delta
            })
            .collect();
        let gauges = self.gauges.iter().map(|g| g.handle.get()).collect();
        let hists = self
            .hists
            .iter_mut()
            .map(|h| {
                let cur = h.handle.snapshot();
                let delta = cur.delta_since(&h.prev);
                h.prev = cur;
                WindowHist {
                    count: delta.count(),
                    sum: delta.sum,
                    p50: delta.quantile(0.50),
                    p95: delta.quantile(0.95),
                    p99: delta.quantile(0.99),
                }
            })
            .collect();
        self.windows.push(WindowRow {
            index,
            end_ns,
            counters,
            gauges,
            hists,
        });
    }

    /// Closes the next full window (ending at [`Timeline::next_boundary`]).
    pub fn sample_window(&mut self) {
        assert!(!self.finished, "timeline already finished");
        let end = self.next_boundary_ns;
        self.next_boundary_ns = self.next_boundary_ns.saturating_add(self.window_ns);
        self.snap_row(self.windows.len() as u64, end);
    }

    /// Closes every window whose boundary is at or before `now_ns`. Call
    /// with an event's delivery time *before* processing the event, so
    /// each closed window covers exactly the strictly-earlier events.
    fn advance_to(&mut self, now_ns: u64) {
        while now_ns >= self.next_boundary_ns {
            self.sample_window();
        }
    }

    /// Closes the final partial window `[last boundary − W, end_ns]` and
    /// seals the timeline. Always emits a row (possibly all-zero deltas)
    /// so the windowed sums cover the whole run.
    pub fn finish(&mut self, end_ns: u64) {
        if self.finished {
            return;
        }
        self.advance_to(end_ns);
        self.snap_row(self.windows.len() as u64, end_ns);
        self.finished = true;
    }

    /// Whether [`Timeline::finish`] has sealed the series.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// JSON-lines export: a `meta` line (window width, tracked-metric
    /// names, cumulative exact histogram min/max) followed by one `window`
    /// object per closed window. Purely logical — byte-identical across
    /// same-seed runs.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"type\":\"meta\",\"window_ns\":");
        out.push_str(&self.window_ns.to_string());
        out.push_str(",\"windows\":");
        out.push_str(&self.windows.len().to_string());
        let push_names = |out: &mut String, key: &str, names: &[&str]| {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":[");
            for (i, n) in names.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_str_literal(out, n);
            }
            out.push(']');
        };
        push_names(&mut out, "counters", &self.counter_names());
        push_names(&mut out, "gauges", &self.gauge_names());
        push_names(&mut out, "histograms", &self.hist_names());
        out.push_str(",\"histogram_minmax\":{");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_literal(&mut out, &h.name);
            // `prev` is the latest cumulative snapshot once any window has
            // closed; exact observed extremes, not bucket bounds.
            match (h.prev.min(), h.prev.max()) {
                (Some(lo), Some(hi)) => {
                    out.push_str(&format!(":[{lo},{hi}]"));
                }
                _ => out.push_str(":null"),
            }
        }
        out.push_str("}}\n");

        for w in &self.windows {
            out.push_str("{\"type\":\"window\",\"index\":");
            out.push_str(&w.index.to_string());
            out.push_str(",\"end_ns\":");
            out.push_str(&w.end_ns.to_string());
            out.push_str(",\"counters\":{");
            for (i, c) in self.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_str_literal(&mut out, &c.name);
                out.push(':');
                out.push_str(&w.counters[i].to_string());
            }
            out.push_str("},\"gauges\":{");
            for (i, g) in self.gauges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_str_literal(&mut out, &g.name);
                out.push(':');
                out.push_str(&w.gauges[i].to_string());
            }
            out.push_str("},\"histograms\":{");
            for (i, h) in self.hists.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_str_literal(&mut out, &h.name);
                let s = &w.hists[i];
                out.push_str(&format!(
                    ":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                    s.count, s.sum, s.p50, s.p95, s.p99
                ));
            }
            out.push_str("}}\n");
        }
        out
    }

    /// CSV export: one header row, one row per window. Histograms expand
    /// to `<name>.count/.sum/.p50/.p95/.p99` columns.
    pub fn csv(&self) -> String {
        let mut out = String::from("window,end_ns");
        for c in &self.counters {
            out.push(',');
            out.push_str(&c.name);
        }
        for g in &self.gauges {
            out.push(',');
            out.push_str(&g.name);
        }
        for h in &self.hists {
            for suffix in [".count", ".sum", ".p50", ".p95", ".p99"] {
                out.push(',');
                out.push_str(&h.name);
                out.push_str(suffix);
            }
        }
        out.push('\n');
        for w in &self.windows {
            out.push_str(&w.index.to_string());
            out.push(',');
            out.push_str(&w.end_ns.to_string());
            for v in &w.counters {
                out.push(',');
                out.push_str(&v.to_string());
            }
            for v in &w.gauges {
                out.push(',');
                out.push_str(&v.to_string());
            }
            for s in &w.hists {
                out.push_str(&format!(
                    ",{},{},{},{},{}",
                    s.count, s.sum, s.p50, s.p95, s.p99
                ));
            }
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// SLO burn tracking
// ---------------------------------------------------------------------------

/// Service-level objectives evaluated per closed window. Plain data so
/// profile crates can mirror it without depending on the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloPolicy {
    /// Latency objective: a window whose p99 exceeds this is in violation.
    pub latency_p99_us: u64,
    /// Error budget in per-mille of requests (10 = 1% may fail).
    pub error_pm: u32,
    /// Short burn-rate lookback, in windows.
    pub short_windows: usize,
    /// Long burn-rate lookback, in windows.
    pub long_windows: usize,
    /// Burn-rate threshold ×100 (200 = burning budget at 2× the sustainable
    /// rate). Both lookbacks must exceed it to trip the error alert.
    pub burn_threshold_x100: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            latency_p99_us: 50_000,
            error_pm: 10,
            short_windows: 5,
            long_windows: 30,
            burn_threshold_x100: 200,
        }
    }
}

/// Which objective an [`SloEvent`] concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// The per-window latency objective.
    Latency,
    /// The multi-window error-budget burn rate.
    ErrorBudget,
}

impl SloKind {
    /// Stable lowercase label (used in journal span names and JSON).
    pub fn label(self) -> &'static str {
        match self {
            SloKind::Latency => "latency",
            SloKind::ErrorBudget => "error_budget",
        }
    }
}

/// One transition into (`entered`) or out of (`!entered`) violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloEvent {
    /// Index of the window at which the transition happened.
    pub window: u64,
    /// Objective concerned.
    pub kind: SloKind,
    /// `true` when the violation began, `false` when it cleared.
    pub entered: bool,
    /// Burn rate ×100 at the transition (latency events report
    /// `p99 · 100 / objective`).
    pub burn_x100: u64,
    /// The observed quantity: window p99 (latency) or the window's failed
    /// request count (error budget).
    pub value: u64,
}

/// Multi-window burn-rate SLO tracker, fed one triple per closed window.
#[derive(Debug, Clone)]
pub struct SloTracker {
    policy: SloPolicy,
    /// `(good, bad)` per recent window, newest last, capped at the long
    /// lookback.
    recent: VecDeque<(u64, u64)>,
    latency_violating: bool,
    error_violating: bool,
    events: Vec<SloEvent>,
}

impl SloTracker {
    /// A tracker enforcing `policy` (lookbacks clamped to ≥ 1 window).
    pub fn new(policy: SloPolicy) -> SloTracker {
        SloTracker {
            policy: SloPolicy {
                short_windows: policy.short_windows.max(1),
                long_windows: policy.long_windows.max(policy.short_windows.max(1)),
                ..policy
            },
            recent: VecDeque::new(),
            latency_violating: false,
            error_violating: false,
            events: Vec::new(),
        }
    }

    fn burn_x100(&self, lookback: usize) -> u64 {
        let take = lookback.min(self.recent.len());
        let mut good = 0u64;
        let mut bad = 0u64;
        for &(g, b) in self.recent.iter().rev().take(take) {
            good += g;
            bad += b;
        }
        let total = good + bad;
        if total == 0 {
            return 0;
        }
        if self.policy.error_pm == 0 {
            // No budget at all: any failure is an infinite burn.
            return if bad > 0 { u64::MAX } else { 0 };
        }
        // burn = (bad/total) / (error_pm/1000); ×100 in integer math.
        bad.saturating_mul(100_000) / (total.saturating_mul(self.policy.error_pm as u64))
    }

    /// Feeds one closed window; records transition events. Returns the
    /// number of events this window generated (0–2).
    pub fn observe(&mut self, window: u64, good: u64, bad: u64, p99_us: u64) -> usize {
        self.recent.push_back((good, bad));
        while self.recent.len() > self.policy.long_windows {
            self.recent.pop_front();
        }
        let before = self.events.len();

        let latency_bad = good + bad > 0 && p99_us > self.policy.latency_p99_us;
        if latency_bad != self.latency_violating {
            self.latency_violating = latency_bad;
            self.events.push(SloEvent {
                window,
                kind: SloKind::Latency,
                entered: latency_bad,
                burn_x100: p99_us.saturating_mul(100) / self.policy.latency_p99_us.max(1),
                value: p99_us,
            });
        }

        let short = self.burn_x100(self.policy.short_windows);
        let long = self.burn_x100(self.policy.long_windows);
        let error_bad =
            short >= self.policy.burn_threshold_x100 && long >= self.policy.burn_threshold_x100;
        if error_bad != self.error_violating {
            self.error_violating = error_bad;
            self.events.push(SloEvent {
                window,
                kind: SloKind::ErrorBudget,
                entered: error_bad,
                burn_x100: short,
                value: bad,
            });
        }
        self.events.len() - before
    }

    /// Every transition recorded so far, in window order.
    pub fn events(&self) -> &[SloEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_hold_deltas_and_finish_covers_the_tail() {
        let registry = Registry::new();
        let c = registry.counter("ev");
        let g = registry.gauge("depth");
        let h = registry.histogram("lat");
        let mut tl = Timeline::new(Duration::from_secs(1));
        tl.track_counter(&registry, "ev");
        tl.track_gauge(&registry, "depth");
        tl.track_histogram(&registry, "lat");

        c.add(3);
        g.set(2);
        h.record(10);
        tl.advance_to(1_500_000_000); // closes window 0
        c.add(5);
        g.set(7);
        h.record(100);
        h.record(200);
        tl.finish(1_800_000_000); // partial window 1

        let w = tl.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].end_ns, 1_000_000_000);
        assert_eq!(w[0].counters, vec![3]);
        assert_eq!(w[0].gauges, vec![2]);
        assert_eq!(w[0].hists[0].count, 1);
        assert_eq!(w[1].end_ns, 1_800_000_000);
        assert_eq!(w[1].counters, vec![5]);
        assert_eq!(w[1].gauges, vec![7]);
        assert_eq!(w[1].hists[0].count, 2);
        assert_eq!(w[1].hists[0].sum, 300);
        // Window-width invariance: deltas sum to the final counter.
        let total: u64 = tl.counter_series("ev").unwrap().iter().sum();
        assert_eq!(total, c.get());
    }

    #[test]
    fn advance_closes_every_elapsed_window() {
        let registry = Registry::new();
        registry.counter("ev").add(1);
        let mut tl = Timeline::new(Duration::from_millis(100));
        tl.track_counter(&registry, "ev");
        // A 1-second gap crosses ten boundaries at once.
        tl.advance_to(1_000_000_000);
        assert_eq!(tl.windows().len(), 10);
        assert_eq!(tl.windows()[0].counters, vec![1]);
        assert!(tl.windows()[1..].iter().all(|w| w.counters == vec![0]));
        // An event exactly on a boundary belongs to the *next* window.
        assert_eq!(tl.next_boundary(), 1_100_000_000);
    }

    #[test]
    fn exports_are_pure_functions_of_the_samples() {
        let registry = Registry::new();
        let c = registry.counter("ev");
        let build = || {
            let mut tl = Timeline::new(Duration::from_secs(1));
            tl.track_counter(&registry, "ev");
            tl
        };
        c.add(2);
        let mut a = build();
        a.advance_to(2_000_000_000);
        a.finish(2_500_000_000);
        let mut b = build();
        b.advance_to(2_000_000_000);
        b.finish(2_500_000_000);
        // Note: b sees cumulative counts but both deltas start from 0 at
        // construction, so the exports only agree because the counter did
        // not move between builds — which is the point: exports depend
        // only on the sampled values.
        assert_eq!(a.json_lines(), b.json_lines());
        assert_eq!(a.csv(), b.csv());
        assert!(a.json_lines().starts_with("{\"type\":\"meta\""));
        assert_eq!(a.csv().lines().count(), 1 + a.windows().len());
    }

    #[test]
    fn slo_tracker_trips_on_latency_and_recovers() {
        let mut t = SloTracker::new(SloPolicy {
            latency_p99_us: 1_000,
            ..SloPolicy::default()
        });
        assert_eq!(t.observe(0, 10, 0, 500), 0);
        assert_eq!(t.observe(1, 10, 0, 5_000), 1, "entered latency violation");
        assert_eq!(t.observe(2, 10, 0, 800), 1, "recovered");
        let kinds: Vec<(SloKind, bool)> = t.events().iter().map(|e| (e.kind, e.entered)).collect();
        assert_eq!(
            kinds,
            vec![(SloKind::Latency, true), (SloKind::Latency, false)]
        );
        assert_eq!(t.events()[0].burn_x100, 500, "5000µs vs 1000µs objective");
    }

    #[test]
    fn slo_tracker_needs_both_lookbacks_burning() {
        let policy = SloPolicy {
            latency_p99_us: u64::MAX,
            error_pm: 100, // 10% budget
            short_windows: 2,
            long_windows: 4,
            burn_threshold_x100: 200, // 2× burn = 20% failing
        };
        let mut t = SloTracker::new(policy);
        // Two healthy windows, then sustained 50% failures.
        t.observe(0, 100, 0, 0);
        t.observe(1, 100, 0, 0);
        // Short lookback burns immediately; long (4 windows) still diluted
        // by the healthy history: 100 bad / 400 total = 25% = 2.5× burn ≥ 2×
        // only after the second bad window.
        assert_eq!(t.observe(2, 50, 50, 0), 0, "long lookback not burning yet");
        assert_eq!(t.observe(3, 50, 50, 0), 1, "both lookbacks burning");
        let ev = *t.events().last().unwrap();
        assert_eq!(ev.kind, SloKind::ErrorBudget);
        assert!(ev.entered);
        assert!(ev.burn_x100 >= 200);
        // Recovery once the bad windows age out of the short lookback.
        t.observe(4, 100, 0, 0);
        assert_eq!(t.observe(5, 100, 0, 0), 1, "error violation cleared");
        assert!(!t.events().last().unwrap().entered);
    }

    #[test]
    fn zero_error_budget_burns_on_any_failure() {
        let mut t = SloTracker::new(SloPolicy {
            latency_p99_us: u64::MAX,
            error_pm: 0,
            short_windows: 1,
            long_windows: 1,
            burn_threshold_x100: 200,
        });
        assert_eq!(t.observe(0, 10, 0, 0), 0);
        assert_eq!(t.observe(1, 9, 1, 0), 1);
        assert!(t.events()[0].entered);
    }
}
