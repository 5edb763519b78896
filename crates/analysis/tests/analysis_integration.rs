//! Cross-module integration tests for the analysis layer, driven by a tiny
//! synthetic world (websim is a dev-dependency here; production analysis
//! code never touches it).

use std::collections::BTreeSet;

use redlight_analysis::{ats, cookies, geo, https, popularity, sync, thirdparty, ThreatFeed};
use redlight_crawler::corpus::CorpusCompiler;
use redlight_crawler::db::{CorpusLabel, CrawlRecord};
use redlight_crawler::openwpm::{CrawlConfig, OpenWpmCrawler};
use redlight_net::geoip::Country;
use redlight_websim::{World, WorldConfig};

fn crawl(world: &World, domains: &[String], country: Country) -> CrawlRecord {
    OpenWpmCrawler::new(
        world,
        CrawlConfig {
            country,
            corpus: CorpusLabel::Porn,
            store_dom: true,
        },
    )
    .crawl(domains)
}

struct Feed<'w>(&'w World);
impl ThreatFeed for Feed<'_> {
    fn detections(&self, domain: &str) -> u8 {
        self.0
            .scanners
            .detections(domain, self.0.truly_malicious(domain))
    }
}

#[test]
fn table3_tier_rows_partition_the_corpus() {
    let world = World::build(WorldConfig::tiny(41));
    let corpus = CorpusCompiler::new(&world).compile();
    let record = crawl(&world, &corpus.sanitized, Country::Spain);
    let extract = thirdparty::extract(&record, true);
    let tiers = popularity::tiers_from_histories(&world.rank_histories());
    let t3 = popularity::table3(&extract, &tiers);

    let site_sum: usize = t3.rows.iter().map(|r| r.sites).sum();
    assert_eq!(site_sum, record.success_count(), "tiers partition sites");

    // Unique counts sum to at most the distinct third-party population.
    let unique_sum: usize = t3.rows.iter().map(|r| r.third_party_unique).sum();
    assert!(unique_sum <= extract.third_party_fqdns.len());
}

#[test]
fn https_report_bounds_and_tier_partition() {
    let world = World::build(WorldConfig::tiny(43));
    let corpus = CorpusCompiler::new(&world).compile();
    let record = crawl(&world, &corpus.sanitized, Country::Spain);
    let tiers = popularity::tiers_from_histories(&world.rank_histories());
    let client_ip = std::net::Ipv4Addr::new(203, 0, 113, 77);
    let report = https::report(&record, &tiers, client_ip);
    let site_sum: usize = report.rows.iter().map(|r| r.sites).sum();
    assert_eq!(site_sum, record.success_count());
    for row in &report.rows {
        assert!((0.0..=100.0).contains(&row.sites_https_pct));
        assert!((0.0..=100.0).contains(&row.third_party_https_pct));
    }
    assert!(report.not_fully_https <= record.success_count());
    assert!(report.clear_cookie_sites <= report.not_fully_https);
}

#[test]
fn geo_summaries_reflect_country_gating() {
    let world = World::build(WorldConfig::tiny(47));
    let corpus = CorpusCompiler::new(&world).compile();
    let classifier = ats::AtsClassifier::from_lists(&world.easylist, &world.easyprivacy);
    let feed = Feed(&world);

    let summarize = |country| {
        let record = crawl(&world, &corpus.sanitized, country);
        let extract = thirdparty::extract(&record, false);
        geo::summarize_extracted(&record, &extract, &classifier, &feed)
    };
    let (ru, es) = (summarize(Country::Russia), summarize(Country::Spain));

    // Russia-exclusive ATS must be observable from Russia only.
    let ru_only_fqdns: BTreeSet<&str> = world
        .services
        .iter()
        .filter(|s| s.countries.as_deref() == Some(&[Country::Russia][..]))
        .map(|s| s.fqdn.as_str())
        .collect();
    let ru_seen = ru_only_fqdns.iter().any(|f| ru.fqdns.contains(*f));
    let es_seen = ru_only_fqdns.iter().any(|f| es.fqdns.contains(*f));
    if ru_seen {
        assert!(
            !es_seen,
            "RU-exclusive services leaked into the Spanish crawl"
        );
    }

    // Sites blocked in Russia are unreachable there but crawlable from Spain.
    let blocked: Vec<&str> = world
        .sites
        .iter()
        .filter(|s| s.is_porn() && s.blocked_in.contains(&Country::Russia) && !s.openwpm_timeout)
        .map(|s| s.domain.as_str())
        .collect();
    if !blocked.is_empty() {
        assert!(ru.unreachable_sites >= blocked.len());
        assert!(es.crawled_sites >= ru.crawled_sites);
    }

    let t7 = geo::table7(&[es, ru], &BTreeSet::new());
    assert_eq!(t7.rows.len(), 2);
    assert!(t7.total_fqdns >= t7.rows.iter().map(|r| r.fqdns).max().unwrap());
}

#[test]
fn cookie_pipeline_consistency_with_jar_semantics() {
    let world = World::build(WorldConfig::tiny(53));
    let corpus = CorpusCompiler::new(&world).compile();
    let record = crawl(&world, &corpus.sanitized, Country::Spain);
    let rows = cookies::collect(&record);

    // No duplicate (site, domain, name) rows.
    let mut seen = BTreeSet::new();
    for r in &rows {
        assert!(
            seen.insert((r.site.clone(), r.domain.clone(), r.name.clone())),
            "duplicate cookie row"
        );
    }
    // Third-party rows never share the site's registrable domain.
    for r in rows.iter().filter(|r| r.third_party) {
        assert_ne!(redlight_net::psl::registrable_domain(&r.site), r.domain);
    }
    // The ExoClick family delivers base64 IP payloads decodable by the
    // pipeline.
    let ip = std::net::Ipv4Addr::new(203, 0, 113, 77);
    let exo_ip_rows = rows
        .iter()
        .filter(|r| r.domain.contains("exo"))
        .filter(|r| cookies::embeds_ip(&r.value, ip))
        .count();
    assert!(exo_ip_rows > 0, "ExoClick IP-embedding cookies must decode");
}

#[test]
fn sync_report_respects_session_causality() {
    let world = World::build(WorldConfig::tiny(59));
    let corpus = CorpusCompiler::new(&world).compile();
    let record = crawl(&world, &corpus.sanitized, Country::Spain);
    let report = sync::detect(&record, &corpus.sanitized, 50, sync::SyncOptions::default());
    // Origins/destinations tallies match the pair set.
    let origins: BTreeSet<&str> = report.pairs.keys().map(|p| p.origin.as_str()).collect();
    let dests: BTreeSet<&str> = report
        .pairs
        .keys()
        .map(|p| p.destination.as_str())
        .collect();
    assert_eq!(origins.len(), report.origins);
    assert_eq!(dests.len(), report.destinations);
    assert!((0.0..=100.0).contains(&report.top_sites_with_sync_pct));
}

#[test]
fn relaxed_vs_full_ats_matching_diverge_as_designed() {
    let world = World::build(WorldConfig::tiny(61));
    let classifier = ats::AtsClassifier::from_lists(&world.easylist, &world.easyprivacy);
    // Path-only coverage: domain flagged, fingerprint script URL clean.
    assert!(classifier.is_ats_fqdn("adnium.com"));
    assert!(!classifier.is_ats_url(
        "https://adnium.com/fp/v1.js",
        "some.porn",
        "adnium.com",
        redlight_net::http::ResourceKind::Script
    ));
    // Domain-wide coverage: both match.
    assert!(classifier.is_ats_fqdn("exoclick.com"));
    assert!(classifier.is_ats_url(
        "https://exoclick.com/tag/v1.js",
        "some.porn",
        "exoclick.com",
        redlight_net::http::ResourceKind::Script
    ));
    // Unlisted fingerprinters stay invisible to both (the §5.1.3 gap).
    assert!(!classifier.is_ats_fqdn("xcvgdf.party"));
}
