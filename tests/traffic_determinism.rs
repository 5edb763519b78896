//! Determinism of the simulated-time layer, which only the traffic
//! workload runs on: it renders byte-identically for the same seed
//! (report, tier table, span journal, metrics), diverges across seeds, and
//! network weather costs real logical time — a flaky run's makespan is
//! strictly longer than a healthy one's.
//!
//! The rendered reports are also pinned to recorded values, so a change to
//! the event schedule, the service model or the fault draws fails here
//! even when it replays consistently.

use std::time::Duration;

use redlight::net::transport::NetProfile;
use redlight::obs::ObsContext;
use redlight::sim::{run_traffic, TrafficConfig, TrafficReport};
use redlight::WorldConfig;

/// `render()` of the 600-session, seed-5 run on the default profile.
const DEFAULT_REPORT: &str = "\
== Traffic workload ==
sessions: 600 (600 completed, 0 failed)   pages: 1,189
requests: 12,539 (0 failed, 0 retried, 0 faults injected)
logical makespan: 6.637 s   throughput: 90.4 sessions/s, 1889.1 requests/s
request latency (µs): p50 4,095   p95 4,095   p99 4,095
page load (µs):       p50 8,191   p99 8,191
backoff consumed: 0.000 s   peak in-flight: 393 sessions   peak host queue: 0
universe: 75 sites, 159 hosts   kernel events: 38,806
";

/// `render()` of the same run on the flaky profile.
const FLAKY_REPORT: &str = "\
== Traffic workload ==
sessions: 600 (600 completed, 0 failed)   pages: 1,189
requests: 12,700 (1,184 failed, 161 retried, 1,301 faults injected)
logical makespan: 43.468 s   throughput: 13.8 sessions/s, 292.2 requests/s
request latency (µs): p50 4,095   p95 16,777,215   p99 33,554,431
page load (µs):       p50 8,388,607   p99 33,554,431
backoff consumed: 78.500 s   peak in-flight: 504 sessions   peak host queue: 380
universe: 75 sites, 159 hosts   kernel events: 39,289
";

fn traffic_run(seed: u64, net: NetProfile) -> (TrafficReport, ObsContext) {
    let config = TrafficConfig {
        seed,
        world: WorldConfig::tiny(11),
        net,
        ..TrafficConfig::new(600)
    };
    let obs = ObsContext::new();
    let report = run_traffic(&config, &obs);
    (report, obs)
}

#[test]
fn same_seed_yields_byte_identical_report_and_journal() {
    let net = NetProfile::default();
    let (ra, oa) = traffic_run(5, net.clone());
    let (rb, ob) = traffic_run(5, net);

    // The rendered latency-percentile report and the tier table are pure
    // functions of the seed.
    assert_eq!(ra.render(), rb.render());
    assert_eq!(ra.render(), DEFAULT_REPORT);
    assert_eq!(ra.render_table(), rb.render_table());
    assert_eq!(ra.events, rb.events);

    // So are the obs exports: span journal (logical ticks only) and the
    // deterministic metric surface.
    assert_eq!(
        oa.trace.journal().json_lines(),
        ob.trace.journal().json_lines()
    );
    assert_eq!(
        oa.metrics.snapshot().deterministic(),
        ob.metrics.snapshot().deterministic()
    );
}

#[test]
fn every_session_finishes_and_p99_is_at_least_p50() {
    let net = NetProfile::default();
    let (report, _) = traffic_run(5, net);
    assert_eq!(
        report.completed + report.failed,
        600,
        "every session must finish"
    );
    assert!(report.request_p99_us >= report.request_p50_us);
    assert!(report.makespan > Duration::ZERO);
}

#[test]
fn different_seeds_diverge() {
    let net = NetProfile::default();
    let (ra, _) = traffic_run(5, net.clone());
    let (rc, _) = traffic_run(6, net);
    assert_ne!(
        ra.render(),
        rc.render(),
        "the seed must steer arrivals, site choices and page walks"
    );
}

#[test]
fn flaky_traffic_takes_strictly_longer_than_direct() {
    let flaky = NetProfile::named("flaky").expect("flaky profile registered");
    let (healthy, _) = traffic_run(5, NetProfile::default());
    let (stormy, _) = traffic_run(5, flaky);
    assert_eq!(healthy.render(), DEFAULT_REPORT);
    assert_eq!(stormy.render(), FLAKY_REPORT);
    assert!(stormy.faults > 0, "flaky weather must inject faults");
    assert!(
        stormy.makespan > healthy.makespan,
        "stalls and retries must cost logical time: {:?} vs {:?}",
        stormy.makespan,
        healthy.makespan
    );
}
