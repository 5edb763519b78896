//! Determinism of the timeline telemetry: same seed ⇒ byte-identical
//! JSON-lines and CSV series; different fault seeds ⇒ the series diverge;
//! window-width invariance (the per-window counter deltas always sum to
//! the final counters, whatever the width); the rows add up to what the
//! registry holds at the end; and SLO violations reach the journal
//! together with their frozen flight snapshots.

use std::time::Duration;

use redlight::net::transport::NetProfile;
use redlight::obs::{MetricValue, MetricsSnapshot, ObsContext, SloPolicy};
use redlight::sim::{run_traffic, TimelineSpec, TrafficConfig, TrafficReport};
use redlight::WorldConfig;

fn timeline_run(
    seed: u64,
    fault_seed: u64,
    window: Duration,
    net: NetProfile,
) -> (TrafficReport, ObsContext) {
    let config = TrafficConfig {
        seed,
        world: WorldConfig::tiny(11),
        net: net.with_fault_seed(fault_seed),
        timeline: Some(TimelineSpec::with_window(window)),
        ..TrafficConfig::new(600)
    };
    let obs = ObsContext::new();
    let report = run_traffic(&config, &obs);
    (report, obs)
}

#[test]
fn same_seed_yields_byte_identical_series_files() {
    let net = NetProfile::default();
    let window = Duration::from_millis(500);
    let (ra, _) = timeline_run(5, 0, window, net.clone());
    let (rb, _) = timeline_run(5, 0, window, net);
    let (ta, tb) = (
        ra.timeline.as_ref().expect("timeline on"),
        rb.timeline.as_ref().expect("timeline on"),
    );
    assert_eq!(ta.json_lines(), tb.json_lines());
    assert_eq!(ta.csv(), tb.csv());
    assert_eq!(ta.render(), tb.render());
}

#[test]
fn different_fault_seeds_diverge() {
    let flaky = NetProfile::named("flaky").expect("flaky profile registered");
    let window = Duration::from_millis(500);
    let (ra, _) = timeline_run(5, 1, window, flaky.clone());
    let (rb, _) = timeline_run(5, 99, window, flaky);
    let (ta, tb) = (
        ra.timeline.as_ref().expect("timeline on"),
        rb.timeline.as_ref().expect("timeline on"),
    );
    assert_ne!(
        ta.json_lines(),
        tb.json_lines(),
        "the fault seed must steer which windows see failures"
    );
}

#[test]
fn window_width_never_changes_the_totals() {
    let net = NetProfile::default();
    let (coarse, _) = timeline_run(5, 0, Duration::from_secs(1), net.clone());
    let (fine, _) = timeline_run(5, 0, Duration::from_millis(250), net);
    assert_eq!(coarse.requests, fine.requests, "same schedule either way");
    for report in [&coarse, &fine] {
        let tl = &report.timeline.as_ref().expect("timeline on").timeline;
        for (name, total) in [
            ("traffic.requests", report.requests),
            ("traffic.sessions", report.sessions),
            ("traffic.pages", report.pages),
            ("traffic.requests_failed", report.failed_requests),
        ] {
            let sum: u64 = tl.counter_series(name).expect("tracked").iter().sum();
            assert_eq!(sum, total, "window sums must equal the final {name}");
        }
    }
    assert!(
        fine.timeline.unwrap().timeline.windows().len()
            > coarse.timeline.unwrap().timeline.windows().len(),
        "narrower windows ⇒ more rows"
    );
}

/// Every series of a flaky run's timeline against the registry the run
/// published to. The windows are narrow, so most close without a request
/// and many events close several at once.
#[test]
fn timeline_rows_add_up_to_the_registry() {
    let config = |timeline: Option<TimelineSpec>| TrafficConfig {
        seed: 5,
        world: WorldConfig::tiny(11),
        net: NetProfile::named("flaky").expect("flaky profile registered"),
        timeline,
        ..TrafficConfig::new(600)
    };
    let obs = ObsContext::new();
    let window = TimelineSpec::with_window(Duration::from_millis(7));
    let report = run_traffic(&config(Some(window)), &obs);
    let tl = &report.timeline.as_ref().expect("timeline on").timeline;
    let requests = tl.counter_series("traffic.requests").expect("a series");
    let idle = requests.iter().filter(|&&n| n == 0).count();
    assert!(
        idle * 2 > requests.len(),
        "{idle} of {} windows without a request",
        requests.len()
    );

    let registry = obs.metrics.snapshot();
    let (mut counters, mut gauges) = (0, 0);
    for (name, value) in &registry.entries {
        match value {
            MetricValue::Counter { value, .. } => {
                if let Some(series) = tl.counter_series(name) {
                    assert_eq!(series.iter().sum::<u64>(), *value, "{name}");
                    counters += 1;
                }
            }
            MetricValue::Gauge { value } => {
                if let Some(series) = tl.gauge_series(name) {
                    assert_eq!(series.last(), Some(value), "{name} in the last row");
                    gauges += 1;
                }
            }
            MetricValue::Histogram { .. } => {}
        }
    }
    let row = &tl.windows()[0];
    assert_eq!(
        counters,
        row.counters.len(),
        "a counter series without a counter"
    );
    assert_eq!(gauges, row.gauges.len(), "a gauge series without a gauge");

    let Some(MetricValue::Histogram { snap, .. }) = registry.entries.get("traffic.request_us")
    else {
        panic!("traffic.request_us is a registry histogram");
    };
    let windows = tl.hist_series("traffic.request_us").expect("a series");
    assert_eq!(windows.iter().map(|w| w.count).sum::<u64>(), snap.count());
    assert_eq!(windows.iter().map(|w| w.sum).sum::<u64>(), snap.sum);
    let (lo, hi) = (snap.min().expect("requests"), snap.max().expect("requests"));
    let json = tl.json_lines();
    let meta = json.lines().next().expect("a meta row");
    assert!(
        meta.contains(&format!(
            "\"histogram_minmax\":{{\"traffic.request_us\":[{lo},{hi}]}}"
        )),
        "{meta}"
    );

    // Only a timeline run moves the per-window queue peak.
    let bare_obs = ObsContext::new();
    run_traffic(&config(None), &bare_obs);
    let without_peak = |obs: &ObsContext| -> (MetricsSnapshot, MetricValue) {
        let mut det = obs.metrics.snapshot().deterministic();
        let peak = det
            .entries
            .remove("traffic.queue_peak")
            .expect("registered");
        (det, peak)
    };
    let ((sampled, _), (bare, bare_peak)) = (without_peak(&obs), without_peak(&bare_obs));
    assert_eq!(sampled, bare);
    assert_eq!(bare_peak, MetricValue::Gauge { value: 0 });
}

#[test]
fn slo_violations_freeze_flights_into_the_journal() {
    let mut net = NetProfile::named("flaky").expect("flaky profile registered");
    // An unmeetable latency objective guarantees at least one transition.
    net.slo = SloPolicy {
        latency_p99_us: 1,
        ..SloPolicy::default()
    };
    let (report, obs) = timeline_run(5, 1, Duration::from_millis(500), net);
    let tl = report.timeline.as_ref().expect("timeline on");
    assert!(tl.slo_events.iter().any(|e| e.entered), "objective trips");
    assert!(tl.flight_freezes > 0, "entering a violation freezes");

    let journal = obs.trace.journal();
    assert!(
        journal.find("slo.latency").is_some(),
        "SLO transitions become journal spans"
    );
    let freeze = journal
        .find("flight.freeze.000")
        .expect("flight snapshot span");
    assert!(
        journal
            .spans
            .iter()
            .any(|s| s.parent == freeze.id && s.shard == "traffic.flight"),
        "the frozen ring's events nest under the freeze span"
    );

    let lines = tl.json_lines();
    assert!(lines.contains("\"type\":\"slo\""));
    assert!(lines.contains("\"kind\":\"latency\""));
    assert!(lines.contains("\"type\":\"flight\""));
}

#[test]
fn timeline_sampling_never_changes_the_event_schedule() {
    // A window close only copies and publishes the kernel's tallies: the
    // run loop must deliver exactly the same events with windows closing
    // between them as without.
    let config = |timeline: Option<TimelineSpec>| TrafficConfig {
        seed: 5,
        world: WorldConfig::tiny(11),
        timeline,
        ..TrafficConfig::new(600)
    };
    let bare = run_traffic(&config(None), &ObsContext::new());
    let sampled = run_traffic(&config(Some(TimelineSpec::default())), &ObsContext::new());
    assert!(sampled.timeline.is_some() && bare.timeline.is_none());
    assert_eq!(bare.events, sampled.events);
    assert_eq!(bare.render(), sampled.render());
}
