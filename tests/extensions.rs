//! Tests for the extension features (the paper's §10 future work and §2.1
//! background items implemented beyond the core reproduction).

use redlight::analysis::agegate::rta_prevalence;
use redlight::analysis::{ats, cookies, crossborder, fingerprint, thirdparty};
use redlight::blocklist::FilterSet;
use redlight::browser::Browser;
use redlight::crawler::corpus::CorpusCompiler;
use redlight::crawler::db::{CorpusLabel, CrawlRecord};
use redlight::net::geoip::Country;
use redlight::net::url::Url;
use redlight::websim::server::BrowserKind;
use redlight::{World, WorldConfig};

fn crawl(world: &World, domains: &[String], blocker: bool) -> CrawlRecord {
    let ctx = Browser::context_for(world, Country::Spain, BrowserKind::OpenWpm);
    let client_ip = ctx.client_ip;
    let mut browser = Browser::new(world, ctx);
    if blocker {
        let mut filters = FilterSet::new();
        filters.add_list(&world.easylist);
        filters.add_list(&world.easyprivacy);
        browser.set_blocker(filters);
    }
    let mut record = CrawlRecord::new(Country::Spain, CorpusLabel::Porn, client_ip);
    for d in domains {
        record.push_visit(
            d,
            browser.visit(&Url::parse(&format!("https://{d}/")).unwrap()),
        );
    }
    record
}

/// Sites on which `fqdn` appears as a third party.
fn sites_with(extract: &thirdparty::ThirdPartyExtract, fqdn: &str) -> usize {
    extract
        .per_site
        .values()
        .filter(|p| p.third.contains(fqdn))
        .count()
}

#[test]
fn blocker_cuts_listed_trackers_but_not_unlisted_fingerprinters() {
    let world = World::build(WorldConfig::small(67));
    let corpus = CorpusCompiler::new(&world).compile();
    let classifier = ats::AtsClassifier::from_lists(&world.easylist, &world.easyprivacy);

    let plain = crawl(&world, &corpus.sanitized, false);
    let blocked = crawl(&world, &corpus.sanitized, true);

    // Domain-wide-listed trackers must never be contacted with the blocker.
    let blocked_extract = thirdparty::extract(&blocked, true);
    for fqdn in [
        "exoclick.com",
        "exosrv.com",
        "doubleclick.net",
        "addthis.com",
    ] {
        assert_eq!(
            sites_with(&blocked_extract, fqdn),
            0,
            "{fqdn} must be blocked by its ||domain^ rule"
        );
    }

    // Tracking cookies drop sharply…
    let count_id = |c: &CrawlRecord| {
        cookies::collect(c)
            .iter()
            .filter(|r| r.third_party && cookies::is_id_cookie(r))
            .count()
    };
    let (before, after) = (count_id(&plain), count_id(&blocked));
    assert!(
        (after as f64) < 0.6 * before as f64,
        "blocker should cut tracking cookies: {before} -> {after}"
    );

    // …while most canvas fingerprinting survives (91 % unindexed, §5.1.3).
    let fp_before = fingerprint::detect(&plain, &classifier).canvas_sites.len();
    let fp_after = fingerprint::detect(&blocked, &classifier)
        .canvas_sites
        .len();
    // At this reduced scale the EasyList-indexed share of FP scripts is
    // overweighted (paper scale: 9 % indexed), so require survival rather
    // than near-total persistence.
    assert!(
        fp_after >= 1 && fp_after as f64 >= 0.35 * fp_before as f64,
        "fingerprinting should survive the blocker: {fp_before} -> {fp_after}"
    );
    // The unlisted fingerprinter specifically keeps running.
    let still_fp = fingerprint::detect(&blocked, &classifier);
    assert!(
        still_fp
            .canvas_services
            .iter()
            .any(|d| !classifier.is_ats_fqdn(d)),
        "some unlisted canvas service must persist"
    );
}

#[test]
fn crossborder_totals_are_consistent() {
    let world = World::build(WorldConfig::tiny(71));
    let corpus = CorpusCompiler::new(&world).compile();
    let record = crawl(&world, &corpus.sanitized, false);
    let hosting = |host: &str| world.hosting_country(host);
    let report = crossborder::report(&record, &hosting);

    assert!(report.gdpr_jurisdiction, "Spain is a GDPR vantage point");
    assert!(report.identifier_bearing <= report.third_party_requests);
    assert!(report.leaving_jurisdiction <= report.identifier_bearing);
    let by_dest_sum: usize = report.by_destination.values().sum();
    assert_eq!(by_dest_sum, report.identifier_bearing);
    // Determinism of the hosting view.
    assert_eq!(
        world.hosting_country("exoclick.com"),
        world.hosting_country("exoclick.com")
    );
}

#[test]
fn rta_labels_match_ground_truth() {
    let world = World::build(WorldConfig::small(79));
    let corpus = CorpusCompiler::new(&world).compile();
    let record = crawl(&world, &corpus.sanitized, false);
    let report = rta_prevalence(&record);
    let truth = world
        .sites
        .iter()
        .filter(|s| {
            s.is_porn()
                && s.rta_label
                && record
                    .successful()
                    .any(|v| record.name(v.domain) == s.domain && !v.visit.dom_html.is_empty())
        })
        .count();
    assert_eq!(report.with_rta_label, truth, "RTA detection must be exact");
    assert!(
        report.with_rta_pct < 20.0,
        "RTA adoption is a minority practice"
    );
}
