//! Determinism of the timeline telemetry: same seed ⇒ byte-identical
//! JSON-lines and CSV series; different fault seeds ⇒ the series diverge;
//! window-width invariance (the per-window counter deltas always sum to
//! the final counters, whatever the width); and SLO violations reach the
//! journal together with their frozen flight snapshots.

use std::time::Duration;

use redlight::net::transport::NetProfile;
use redlight::obs::{ObsContext, SloPolicy};
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
    // Sampling only reads the registry: the run loop must deliver exactly
    // the same events with windows closing between them as without.
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
