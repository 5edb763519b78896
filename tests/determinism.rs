//! Reproducibility: the whole study is a pure function of the seed.

use redlight::{Study, StudyConfig, World, WorldConfig};

#[test]
fn same_seed_same_world() {
    let a = World::build(WorldConfig::tiny(1234));
    let b = World::build(WorldConfig::tiny(1234));
    assert_eq!(a.sites.len(), b.sites.len());
    for (x, y) in a.sites.iter().zip(&b.sites) {
        assert_eq!(x.domain, y.domain);
        assert_eq!(x.https, y.https);
        assert_eq!(x.deployments.len(), y.deployments.len());
        assert_eq!(x.history.best(), y.history.best());
        assert_eq!(x.policy.is_some(), y.policy.is_some());
    }
    assert_eq!(a.easylist, b.easylist);
    assert_eq!(a.easyprivacy, b.easyprivacy);
}

#[test]
fn same_seed_same_study_results() {
    let a = Study::run(StudyConfig::tiny(777));
    let b = Study::run(StudyConfig::tiny(777));
    assert_eq!(a.corpus.sanitized, b.corpus.sanitized);
    assert_eq!(a.table2.porn_third_party, b.table2.porn_third_party);
    assert_eq!(a.cookie_stats.total_cookies, b.cookie_stats.total_cookies);
    assert_eq!(a.sync.pairs, b.sync.pairs);
    assert_eq!(
        a.fingerprint.canvas_scripts.len(),
        b.fingerprint.canvas_scripts.len()
    );
    assert_eq!(a.policies.with_policy, b.policies.with_policy);
    assert_eq!(a.render_table2(), b.render_table2());
}

#[test]
fn different_seeds_differ() {
    let a = World::build(WorldConfig::tiny(1));
    let b = World::build(WorldConfig::tiny(2));
    let domains_a: Vec<&str> = a.sites.iter().map(|s| s.domain.as_str()).collect();
    let domains_b: Vec<&str> = b.sites.iter().map(|s| s.domain.as_str()).collect();
    assert_ne!(domains_a, domains_b, "seed must steer generation");
}

#[test]
fn crawl_order_is_stable_within_a_session() {
    // Re-crawling the same world with the same session must produce the
    // same request streams (the cache/benchmark prerequisite).
    use redlight::crawler::corpus::CorpusCompiler;
    use redlight::crawler::db::CorpusLabel;
    use redlight::crawler::openwpm::{CrawlConfig, OpenWpmCrawler};
    use redlight::net::geoip::Country;

    let world = World::build(WorldConfig::tiny(55));
    let corpus = CorpusCompiler::new(&world).compile();
    let cfg = CrawlConfig {
        country: Country::Usa,
        corpus: CorpusLabel::Porn,
        store_dom: false,
    };
    let a = OpenWpmCrawler::new(&world, cfg.clone()).crawl(&corpus.sanitized);
    let b = OpenWpmCrawler::new(&world, cfg).crawl(&corpus.sanitized);
    assert_eq!(a.visits.len(), b.visits.len());
    for (x, y) in a.visits.iter().zip(&b.visits) {
        assert_eq!(x.domain, y.domain);
        // Visit walls are logical time on the session's clock, so they
        // replay exactly too.
        assert_eq!(x.wall, y.wall);
        assert_eq!(x.visit.requests.len(), y.visit.requests.len());
        for (rx, ry) in x.visit.requests.iter().zip(&y.visit.requests) {
            assert_eq!(rx.url, ry.url);
            assert_eq!(rx.status, ry.status);
        }
    }
}
