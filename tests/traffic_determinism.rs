//! Determinism of the simulated-time layer: the traffic workload renders
//! byte-identically for the same seed (report, tier table, span journal,
//! metrics), diverges across seeds, and network weather costs real
//! logical time — a flaky crawl's visit walls are strictly longer than a
//! healthy one's on the sim clock.

use std::time::Duration;

use redlight::crawler::db::CorpusLabel;
use redlight::crawler::openwpm::CrawlConfig;
use redlight::crawler::OpenWpmCrawler;
use redlight::net::geoip::Country;
use redlight::net::transport::{NetProfile, SimSpec};
use redlight::obs::ObsContext;
use redlight::sim::{run_traffic, TrafficConfig, TrafficReport};
use redlight::{World, WorldConfig};

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
    let net = NetProfile::named("sim").expect("sim profile registered");
    let (ra, oa) = traffic_run(5, net.clone());
    let (rb, ob) = traffic_run(5, net);

    // The rendered latency-percentile report and the tier table are pure
    // functions of the seed.
    assert_eq!(ra.render(), rb.render());
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
    let net = NetProfile::named("sim").expect("sim profile registered");
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
    let net = NetProfile::named("sim").expect("sim profile registered");
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
    let direct = NetProfile::named("sim").expect("sim profile registered");
    let flaky = NetProfile::named("flaky")
        .expect("flaky profile registered")
        .with_sim(SimSpec::default());
    let (healthy, _) = traffic_run(5, direct);
    let (stormy, _) = traffic_run(5, flaky);
    assert!(stormy.faults > 0, "flaky weather must inject faults");
    assert!(
        stormy.makespan > healthy.makespan,
        "stalls and retries must cost logical time: {:?} vs {:?}",
        stormy.makespan,
        healthy.makespan
    );
}

/// Crawls the same porn domains under a sim clock twice — once over a
/// healthy network, once under the flaky fault plan — and compares the
/// recorded per-visit walls, which are logical time under sim profiles.
#[test]
fn flaky_crawl_walls_strictly_exceed_direct_walls() {
    let world = World::build(WorldConfig::tiny(11));
    let domains: Vec<String> = world
        .sites
        .iter()
        .filter(|s| s.is_porn() && !s.unresponsive)
        .take(25)
        .map(|s| s.domain.clone())
        .collect();
    assert!(
        !domains.is_empty(),
        "tiny world must have crawlable porn sites"
    );

    let crawl_wall = |net: NetProfile| -> Duration {
        let config = CrawlConfig {
            country: Country::Usa,
            corpus: CorpusLabel::Porn,
            store_dom: false,
        };
        let record = OpenWpmCrawler::new(&world, config)
            .with_net(net)
            .crawl(&domains);
        record.visits.iter().map(|v| v.wall).sum()
    };

    let direct = crawl_wall(NetProfile::direct().with_sim(SimSpec::default()));
    let flaky = crawl_wall(
        NetProfile::named("flaky")
            .expect("flaky profile registered")
            .with_sim(SimSpec::default()),
    );
    assert!(direct > Duration::ZERO, "sim walls are logical, not zero");
    assert!(
        flaky > direct,
        "fault stalls and consumed backoff must lengthen logical visit walls: \
         {flaky:?} vs {direct:?}"
    );

    // Replay: logical walls are deterministic, unlike wall-clock timing.
    let direct_again = crawl_wall(NetProfile::direct().with_sim(SimSpec::default()));
    assert_eq!(direct, direct_again, "sim crawl walls must replay exactly");
}
