//! The transport seam's three contracts: seeded faults are deterministic,
//! the default profile changes nothing, and the retry policy recovers
//! transient failures within its budget (and records every attempt).

use redlight::browser::Browser;
use redlight::crawler::corpus::CorpusCompiler;
use redlight::crawler::db::CorpusLabel;
use redlight::crawler::openwpm::{CrawlConfig, OpenWpmCrawler};
use redlight::net::geoip::Country;
use redlight::net::transport::{BrowserKind, FaultSpec, NetProfile, RetryPolicy};
use redlight::net::url::Url;
use redlight::{Study, StudyConfig, World, WorldConfig};
use std::time::Duration;

fn flaky_config(seed: u64, fault_seed: u64) -> StudyConfig {
    let mut config = StudyConfig::tiny(seed);
    config.net = NetProfile::named("flaky")
        .expect("built-in profile")
        .with_fault_seed(fault_seed);
    config
}

#[test]
fn same_fault_seed_same_study_results() {
    let a = Study::run(flaky_config(911, 7));
    let b = Study::run(flaky_config(911, 7));
    assert_eq!(
        a.render_summary(),
        b.render_summary(),
        "a fixed fault seed must replay the exact same network weather"
    );
}

#[test]
fn fault_seed_steers_the_injected_weather() {
    let a = Study::run(flaky_config(911, 7));
    let b = Study::run(flaky_config(911, 8));
    assert_ne!(
        a.render_summary(),
        b.render_summary(),
        "different fault seeds must perturb the crawl differently"
    );
}

#[test]
fn default_profile_matches_direct_browser_run() {
    // The crawler's default stack (metered, no faults, no retries) must
    // record byte-for-byte what a bare Browser over the concrete WebServer
    // records — the seam itself is invisible.
    let world = World::build(WorldConfig::tiny(912));
    let corpus = CorpusCompiler::new(&world).compile();
    let config = CrawlConfig {
        country: Country::Spain,
        corpus: CorpusLabel::Porn,
        store_dom: true,
    };

    let seamed = OpenWpmCrawler::new(&world, config).crawl(&corpus.sanitized);

    let ctx = Browser::context_for(&world, Country::Spain, BrowserKind::OpenWpm);
    let mut direct = Browser::new(&world, ctx);
    for (record, domain) in seamed.visits.iter().zip(&corpus.sanitized) {
        assert_eq!(seamed.name(record.domain), domain);
        assert_eq!(record.attempts, 1, "no retry budget ⇒ single attempts");
        let url = Url::parse(&format!("https://{domain}/")).expect("corpus domains parse");
        let visit = direct.visit(&url);
        assert_eq!(record.visit.success, visit.success);
        assert_eq!(record.visit.requests.len(), visit.requests.len());
        for (a, b) in record.visit.requests.iter().zip(&visit.requests) {
            assert_eq!(a.url, b.url);
        }
        assert_eq!(record.visit.dom_html, visit.dom_html);
        assert_eq!(record.visit.screenshot_hash, visit.screenshot_hash);
    }
}

#[test]
fn retries_recover_transient_stalls_within_budget() {
    // Every request stalls on its first attempt (1000‰, transient after
    // one), so each document fetch in a chain — redirect hops, the
    // HTTPS→HTTP downgrade — costs one extra visit; a 6-attempt budget
    // must land every site the fault-free crawl lands, and the spillover
    // must be recorded.
    let world = World::build(WorldConfig::tiny(914));
    let corpus = CorpusCompiler::new(&world).compile();
    let config = CrawlConfig {
        country: Country::Spain,
        corpus: CorpusLabel::Porn,
        store_dom: false,
    };

    let clean = OpenWpmCrawler::new(&world, config.clone()).crawl(&corpus.sanitized);

    let mut net = NetProfile::default().with_fault_seed(3);
    net.faults = Some(FaultSpec {
        dns_pm: 0,
        reset_pm: 0,
        stall_pm: 1000,
        server_error_pm: 0,
        truncate_pm: 0,
        transient_attempts: 1,
    });
    net.retry = RetryPolicy::retries(6, Duration::from_millis(250), 4);
    let retried = OpenWpmCrawler::new(&world, config)
        .with_net(net)
        .crawl(&corpus.sanitized);

    assert_eq!(retried.visits.len(), clean.visits.len());
    for (r, c) in retried.visits.iter().zip(&clean.visits) {
        assert_eq!(retried.name(r.domain), clean.name(c.domain));
        assert_eq!(
            r.visit.success,
            c.visit.success,
            "{}: transient stalls must clear within the retry budget",
            retried.name(r.domain)
        );
        assert!(r.attempts <= 6, "budget is a hard cap");
    }
    assert!(
        retried.visits.iter().any(|v| v.attempts > 1),
        "universal stalls must force at least one retry somewhere"
    );
    assert!(retried.total_retries() > 0);
    assert_eq!(clean.total_retries(), 0);
}
