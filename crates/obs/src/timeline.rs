//! Windowed metric timelines over logical time, plus SLO burn tracking.
//!
//! A [`Timeline`] stores the rows its producer hands it. It is created
//! with a window width and the names of its counter, gauge and histogram
//! series; each time the producer's logical clock crosses a window
//! boundary, the producer closes one fixed-width window with the window's
//! counter deltas, its gauge values at the boundary and its histogram
//! tallies, of which the row keeps count, sum and bucket-resolution
//! p50/p95/p99. The producer (the traffic event loop, before each
//! delivery) decides when a window closes, never wall time, so the
//! recorded series is a pure function of the seed: same seed ⇒
//! byte-identical [`Timeline::json_lines`] and [`Timeline::csv`] exports.
//!
//! Window semantics: window `k` covers logical `[k·W, (k+1)·W)`.
//! [`Timeline::close`] closes the window ending at
//! [`Timeline::next_boundary`], and [`Timeline::finish`] closes the final
//! partial window and seals the series. When each row holds what happened
//! strictly inside its window, the rows of a counter sum to its total,
//! whatever the window width.
//!
//! [`SloTracker`] sits on top: fed one `(good, bad, p99)` triple per
//! closed window, it computes the error-budget burn rate over short and
//! long lookback windows (the classic multi-window burn-rate alert) and
//! records an [`SloEvent`] at every transition into or out of violation.

use std::collections::VecDeque;
use std::time::Duration;

use crate::json;
use crate::metrics::HistogramSnapshot;

/// Per-window view of one histogram series: stats of the observations
/// recorded inside the window (bucket resolution).
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
/// series names the timeline was created with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRow {
    /// Window index (0-based).
    pub index: u64,
    /// Exclusive end of the window in logical nanoseconds. For full
    /// windows this is `(index + 1) · window_ns`; the final partial window
    /// ends at the run's end time instead.
    pub end_ns: u64,
    /// Deltas of the counter series over the window.
    pub counters: Vec<u64>,
    /// Values of the gauge series at the window's end.
    pub gauges: Vec<i64>,
    /// Per-window histogram stats.
    pub hists: Vec<WindowHist>,
}

/// A windowed recorder of metric series over logical time.
#[derive(Debug, Clone)]
pub struct Timeline {
    window_ns: u64,
    next_boundary_ns: u64,
    finished: bool,
    counter_names: Vec<String>,
    gauge_names: Vec<String>,
    hist_names: Vec<String>,
    /// Exact smallest and largest value of each histogram series, folded
    /// from the windows' tallies; `None` until one holds an observation.
    hist_minmax: Vec<Option<(u64, u64)>>,
    windows: Vec<WindowRow>,
}

impl Timeline {
    /// A timeline with fixed-width windows of `window` logical time
    /// (clamped to ≥ 1 ns) whose rows hold the named `counters`, `gauges`
    /// and `histograms`, in that order.
    pub fn new(
        window: Duration,
        counters: &[&str],
        gauges: &[&str],
        histograms: &[&str],
    ) -> Timeline {
        let window_ns = (window.as_nanos().min(u64::MAX as u128) as u64).max(1);
        let owned = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
        Timeline {
            window_ns,
            next_boundary_ns: window_ns,
            finished: false,
            counter_names: owned(counters),
            gauge_names: owned(gauges),
            hist_names: owned(histograms),
            hist_minmax: vec![None; histograms.len()],
            windows: Vec::new(),
        }
    }

    /// Window width in logical nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Names of the counter series, parallel to [`WindowRow::counters`].
    pub(crate) fn counter_names(&self) -> &[String] {
        &self.counter_names
    }

    /// Names of the gauge series.
    pub(crate) fn gauge_names(&self) -> &[String] {
        &self.gauge_names
    }

    /// Names of the histogram series.
    pub(crate) fn hist_names(&self) -> &[String] {
        &self.hist_names
    }

    /// Logical time at which the next full window closes.
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary_ns
    }

    /// The closed windows so far.
    pub fn windows(&self) -> &[WindowRow] {
        &self.windows
    }

    /// The per-window delta series of a counter.
    pub fn counter_series(&self, name: &str) -> Option<Vec<u64>> {
        let ix = self.counter_names.iter().position(|n| n == name)?;
        Some(self.windows.iter().map(|w| w.counters[ix]).collect())
    }

    /// The end-of-window value series of a gauge.
    pub fn gauge_series(&self, name: &str) -> Option<Vec<i64>> {
        let ix = self.gauge_names.iter().position(|n| n == name)?;
        Some(self.windows.iter().map(|w| w.gauges[ix]).collect())
    }

    /// The per-window stats series of a histogram.
    pub fn hist_series(&self, name: &str) -> Option<Vec<WindowHist>> {
        let ix = self.hist_names.iter().position(|n| n == name)?;
        Some(self.windows.iter().map(|w| w.hists[ix]).collect())
    }

    /// Closes the next full window, ending at [`Timeline::next_boundary`],
    /// with its counter deltas, its gauge values and its histogram
    /// tallies, each parallel to the names given to [`Timeline::new`].
    pub fn close(&mut self, counters: &[u64], gauges: &[i64], hists: &[HistogramSnapshot]) {
        let end_ns = self.next_boundary_ns;
        self.next_boundary_ns = end_ns.saturating_add(self.window_ns);
        self.push_row(end_ns, counters, gauges, hists);
    }

    /// Closes the final partial window, ending at `end_ns`, like
    /// [`Timeline::close`], and seals the series. Every full window before
    /// `end_ns` must be closed already.
    pub fn finish(
        &mut self,
        end_ns: u64,
        counters: &[u64],
        gauges: &[i64],
        hists: &[HistogramSnapshot],
    ) {
        assert!(
            end_ns < self.next_boundary_ns,
            "the window ending at {} is still open",
            self.next_boundary_ns
        );
        self.push_row(end_ns, counters, gauges, hists);
        self.finished = true;
    }

    fn push_row(
        &mut self,
        end_ns: u64,
        counters: &[u64],
        gauges: &[i64],
        hists: &[HistogramSnapshot],
    ) {
        assert!(!self.finished, "timeline already finished");
        assert_eq!(
            (counters.len(), gauges.len(), hists.len()),
            (
                self.counter_names.len(),
                self.gauge_names.len(),
                self.hist_names.len()
            ),
            "a row holds one value per series"
        );
        for (minmax, h) in self.hist_minmax.iter_mut().zip(hists) {
            if let (Some(lo), Some(hi)) = (h.min(), h.max()) {
                *minmax = Some(minmax.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
            }
        }
        self.windows.push(WindowRow {
            index: self.windows.len() as u64,
            end_ns,
            counters: counters.to_vec(),
            gauges: gauges.to_vec(),
            hists: hists
                .iter()
                .map(|h| WindowHist {
                    count: h.count(),
                    sum: h.sum,
                    p50: h.quantile(0.50),
                    p95: h.quantile(0.95),
                    p99: h.quantile(0.99),
                })
                .collect(),
        });
    }

    /// Whether [`Timeline::finish`] has sealed the series.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// JSON-lines export: a `meta` line (window width, series names, each
    /// histogram's exact min/max over the whole run) followed by one `window`
    /// object per closed window. Purely logical — byte-identical across
    /// same-seed runs.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"type\":\"meta\",\"window_ns\":");
        out.push_str(&self.window_ns.to_string());
        out.push_str(",\"windows\":");
        out.push_str(&self.windows.len().to_string());
        let push_names = |out: &mut String, key: &str, names: &[String]| {
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
        push_names(&mut out, "counters", &self.counter_names);
        push_names(&mut out, "gauges", &self.gauge_names);
        push_names(&mut out, "histograms", &self.hist_names);
        out.push_str(",\"histogram_minmax\":{");
        for (i, (name, minmax)) in self.hist_names.iter().zip(&self.hist_minmax).enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_literal(&mut out, name);
            // Exact observed extremes, not bucket bounds.
            match minmax {
                Some((lo, hi)) => out.push_str(&format!(":[{lo},{hi}]")),
                None => out.push_str(":null"),
            }
        }
        out.push_str("}}\n");

        for w in &self.windows {
            out.push_str("{\"type\":\"window\",\"index\":");
            out.push_str(&w.index.to_string());
            out.push_str(",\"end_ns\":");
            out.push_str(&w.end_ns.to_string());
            out.push_str(",\"counters\":{");
            for (i, name) in self.counter_names.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_str_literal(&mut out, name);
                out.push(':');
                out.push_str(&w.counters[i].to_string());
            }
            out.push_str("},\"gauges\":{");
            for (i, name) in self.gauge_names.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_str_literal(&mut out, name);
                out.push(':');
                out.push_str(&w.gauges[i].to_string());
            }
            out.push_str("},\"histograms\":{");
            for (i, name) in self.hist_names.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_str_literal(&mut out, name);
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
        for name in self.counter_names.iter().chain(&self.gauge_names) {
            out.push(',');
            out.push_str(name);
        }
        for name in &self.hist_names {
            for suffix in [".count", ".sum", ".p50", ".p95", ".p99"] {
                out.push(',');
                out.push_str(name);
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
        let mut tl = Timeline::new(Duration::from_secs(1), &["ev"], &["depth"], &["lat"]);
        let mut lat = HistogramSnapshot::default();
        lat.record(10);
        tl.close(&[3], &[2], std::slice::from_ref(&lat));
        lat.clear();
        lat.record(100);
        lat.record(200);
        tl.finish(1_800_000_000, &[5], &[7], std::slice::from_ref(&lat)); // partial window 1

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
        assert_eq!(w[1].hists[0].p99, 255, "bucket bound of 200");
        assert!(tl.is_finished());
        let total: u64 = tl.counter_series("ev").unwrap().iter().sum();
        assert_eq!(total, 8);
        // The meta row folds the windows' exact extremes.
        let meta = tl.json_lines().lines().next().unwrap().to_owned();
        assert!(
            meta.contains("\"histogram_minmax\":{\"lat\":[10,200]}"),
            "{meta}"
        );
    }

    #[test]
    fn each_close_ends_the_next_full_window() {
        let mut tl = Timeline::new(Duration::from_millis(100), &["ev"], &[], &["lat"]);
        let idle = [HistogramSnapshot::default()];
        for ev in [1, 0, 0] {
            tl.close(&[ev], &[], &idle);
        }
        let ends: Vec<u64> = tl.windows().iter().map(|w| w.end_ns).collect();
        assert_eq!(ends, vec![100_000_000, 200_000_000, 300_000_000]);
        // An instant exactly on a boundary belongs to the *next* window.
        assert_eq!(tl.next_boundary(), 400_000_000);
        tl.finish(300_000_000, &[0], &[], &idle);
        assert_eq!(tl.windows()[3].hists[0], WindowHist::default());
        let meta = tl.json_lines().lines().next().unwrap().to_owned();
        assert!(
            meta.contains("\"histogram_minmax\":{\"lat\":null}"),
            "{meta}"
        );
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn finish_leaves_no_full_window_open() {
        let mut tl = Timeline::new(Duration::from_millis(100), &["ev"], &[], &[]);
        tl.finish(100_000_000, &[0], &[], &[]);
    }

    #[test]
    fn exports_are_pure_functions_of_the_rows() {
        let build = || {
            let mut tl = Timeline::new(Duration::from_secs(1), &["ev"], &["depth"], &[]);
            tl.close(&[2], &[1], &[]);
            tl.close(&[0], &[1], &[]);
            tl.finish(2_500_000_000, &[0], &[0], &[]);
            tl
        };
        let (a, b) = (build(), build());
        assert_eq!(a.json_lines(), b.json_lines());
        assert_eq!(a.csv(), b.csv());
        assert!(a.json_lines().starts_with("{\"type\":\"meta\""));
        assert_eq!(a.csv().lines().next(), Some("window,end_ns,ev,depth"));
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
