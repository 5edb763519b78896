//! Pipeline-validation tests: the one place where analysis output is
//! compared against simulator ground truth, measuring the precision/recall
//! of each detector (the honesty contract of DESIGN.md).

use std::collections::BTreeSet;

use redlight::analysis::{ats, consent, fingerprint, malware, sync, thirdparty, webrtc};
use redlight::crawler::corpus::CorpusCompiler;
use redlight::crawler::db::CorpusLabel;
use redlight::crawler::openwpm::{CrawlConfig, OpenWpmCrawler};
use redlight::crawler::selenium::SeleniumCrawler;
use redlight::net::geoip::Country;
use redlight::websim::sitegen::AgeGateKind;
use redlight::{World, WorldConfig};

struct Fixture {
    world: World,
    porn_crawl: redlight::crawler::db::CrawlRecord,
    classifier: ats::AtsClassifier,
}

fn fixture(seed: u64) -> Fixture {
    let world = World::build(WorldConfig::small(seed));
    let corpus = CorpusCompiler::new(&world).compile();
    let porn_crawl = OpenWpmCrawler::new(
        &world,
        CrawlConfig {
            country: Country::Spain,
            corpus: CorpusLabel::Porn,
            store_dom: true,
        },
    )
    .crawl(&corpus.sanitized);
    let classifier = ats::AtsClassifier::from_lists(&world.easylist, &world.easyprivacy);
    Fixture {
        world,
        porn_crawl,
        classifier,
    }
}

#[test]
fn corpus_compilation_has_perfect_precision_and_recall() {
    let world = World::build(WorldConfig::small(3));
    let report = CorpusCompiler::new(&world).compile();
    let truth: BTreeSet<&str> = world
        .sites
        .iter()
        .filter(|s| s.is_porn() && !s.unresponsive)
        .map(|s| s.domain.as_str())
        .collect();
    let found: BTreeSet<&str> = report.sanitized.iter().map(String::as_str).collect();
    assert_eq!(found, truth, "§3 sanitization must recover ground truth");
}

#[test]
fn canvas_detector_has_high_precision_and_recall() {
    let f = fixture(5);
    let report = fingerprint::detect(&f.porn_crawl, &f.classifier);

    // Ground truth: third-party services with canvas FP + first-party FP
    // sites actually crawled.
    let truth_services: BTreeSet<String> = f
        .world
        .services
        .iter()
        .filter(|s| s.fp.canvas)
        .map(|s| redlight::net::psl::registrable_domain(&s.fqdn).to_string())
        .collect();

    // Precision: every detected third-party canvas service is ground truth.
    for d in &report.canvas_services {
        assert!(truth_services.contains(d), "false positive service {d}");
    }
    // Recall on sites: every crawled, non-timeout site with a canvas
    // deployment or first-party FP must be detected.
    let crawled: BTreeSet<&str> = f
        .porn_crawl
        .successful()
        .map(|v| f.porn_crawl.name(v.domain))
        .collect();
    for site in f
        .world
        .sites
        .iter()
        .filter(|s| s.is_porn() && crawled.contains(s.domain.as_str()) && s.first_party_canvas)
    {
        assert!(
            report.canvas_sites.contains(&site.domain),
            "missed first-party canvas on {}",
            site.domain
        );
    }
    // Decoys are rejected, never counted: sites with ONLY a decoy must not
    // appear.
    for site in f.world.sites.iter().filter(|s| {
        s.decoy_canvas
            && !s.first_party_canvas
            && s.deployments.iter().all(|d| d.fp_scripts == 0)
            && crawled.contains(s.domain.as_str())
    }) {
        let third_party_fp = report.canvas_sites.contains(&site.domain);
        // A site can still legitimately appear if a third-party canvas
        // script reached it through adoption; verify against deployments.
        assert!(
            !third_party_fp
                || site
                    .deployments
                    .iter()
                    .any(|d| f.world.services.get(d.service).fp.canvas),
            "decoy-only site {} misclassified",
            site.domain
        );
    }
}

#[test]
fn webrtc_detector_matches_ground_truth_services() {
    let f = fixture(7);
    let report = webrtc::detect(&f.porn_crawl, &f.classifier);
    let truth: BTreeSet<String> = f
        .world
        .services
        .iter()
        .filter(|s| s.fp.webrtc)
        .map(|s| redlight::net::psl::registrable_domain(&s.fqdn).to_string())
        .collect();
    for d in &report.services {
        assert!(truth.contains(d), "false positive WebRTC service {d}");
    }
    assert!(!report.services.is_empty(), "WebRTC users must be found");
}

#[test]
fn banner_detection_precision_and_recall() {
    let f = fixture(11);
    let verify = |_: &str| true; // measure raw detector quality first
    let (_, observations) = consent::breakdown(&f.porn_crawl, &verify);

    let crawled: BTreeSet<&str> = f
        .porn_crawl
        .successful()
        .map(|v| f.porn_crawl.name(v.domain))
        .collect();
    let truth: BTreeSet<&str> = f
        .world
        .sites
        .iter()
        // Spain is an EU vantage point: both global and EU-only banners show.
        .filter(|s| s.banner.is_some() && crawled.contains(s.domain.as_str()))
        .map(|s| s.domain.as_str())
        .collect();
    let found: BTreeSet<&str> = observations.iter().map(|o| o.site.as_str()).collect();

    for site in &found {
        assert!(truth.contains(site), "banner false positive on {site}");
    }
    // Spain sees both global and EU-only banners: full recall expected.
    for site in &truth {
        assert!(found.contains(site), "banner missed on {site}");
    }
    // Type classification agrees with ground truth.
    for obs in &observations {
        let site = f.world.site_by_domain(&obs.site).unwrap();
        let truth_kind = site.banner.unwrap().kind;
        let expected = match truth_kind {
            redlight::websim::sitegen::BannerType::NoOption => "No Option",
            redlight::websim::sitegen::BannerType::Confirmation => "Confirmation",
            redlight::websim::sitegen::BannerType::Binary => "Binary",
            redlight::websim::sitegen::BannerType::Others => "Others",
        };
        assert_eq!(
            consent::label(obs.kind),
            expected,
            "misclassified banner on {}",
            obs.site
        );
    }
}

#[test]
fn age_gate_detection_matches_ground_truth() {
    let world = World::build(WorldConfig::small(13));
    let corpus = CorpusCompiler::new(&world).compile();
    let sample: Vec<String> = corpus.sanitized.iter().take(80).cloned().collect();
    let records = SeleniumCrawler::new(&world, Country::Spain).crawl(&sample);
    for rec in records.iter().filter(|r| r.reachable) {
        let site = world.site_by_domain(&rec.domain).unwrap();
        let truth = site.age_gate.in_country(Country::Spain);
        assert_eq!(
            rec.age_gate_detected,
            truth.is_some(),
            "gate detection mismatch on {}",
            rec.domain
        );
        if truth == Some(AgeGateKind::SimpleButton) {
            assert!(
                rec.age_gate_bypassed,
                "simple gate not bypassed: {}",
                rec.domain
            );
        }
        if truth == Some(AgeGateKind::SocialLogin) {
            assert!(!rec.age_gate_bypassed);
            assert!(rec.social_login_gate);
        }
    }
}

#[test]
fn malware_detection_matches_threat_ground_truth() {
    let f = fixture(17);
    struct Feed<'w>(&'w World);
    impl redlight::analysis::ThreatFeed for Feed<'_> {
        fn detections(&self, domain: &str) -> u8 {
            self.0
                .scanners
                .detections(domain, self.0.truly_malicious(domain))
        }
    }
    let report = malware::detect(&f.porn_crawl, &Feed(&f.world));
    // Every flagged service really is malicious ground truth.
    for d in &report.flagged_services {
        let malicious = f
            .world
            .services
            .iter()
            .any(|s| s.malicious && redlight::net::psl::registrable_domain(&s.fqdn) == d);
        assert!(malicious, "false positive malware flag on {d}");
    }
    // Mining attribution is exact.
    for d in &report.mining_services {
        let miner = f
            .world
            .services
            .iter()
            .any(|s| s.miner && redlight::net::psl::registrable_domain(&s.fqdn) == d);
        assert!(miner, "{d} is not a miner");
    }
    assert!(!report.mining_services.is_empty());
}

#[test]
fn sync_detection_only_reports_real_flows() {
    let f = fixture(19);
    let corpus: Vec<String> = f
        .porn_crawl
        .visits
        .iter()
        .map(|v| f.porn_crawl.name(v.domain).to_string())
        .collect();
    let report = sync::detect(&f.porn_crawl, &corpus, 100, sync::SyncOptions::default());
    // Every origin must be a domain that actually set a cookie somewhere.
    let cookie_setters: BTreeSet<String> = f
        .porn_crawl
        .visits
        .iter()
        .flat_map(|v| v.visit.cookies.iter())
        .map(|c| redlight::net::psl::registrable_domain(&c.effective_domain).to_string())
        .collect();
    for pair in report.pairs.keys() {
        assert!(
            cookie_setters.contains(&pair.origin),
            "sync origin {} never set a cookie",
            pair.origin
        );
    }
}

#[test]
fn third_party_classification_agrees_with_world_structure() {
    let f = fixture(23);
    let extract = thirdparty::extract(&f.porn_crawl, true);
    // No site's own domain (or its subdomains) may appear among its third
    // parties.
    for (site, parties) in &extract.per_site {
        let reg = redlight::net::psl::registrable_domain(site);
        for fqdn in &parties.third {
            assert_ne!(
                redlight::net::psl::registrable_domain(fqdn),
                reg,
                "self-classified third party on {site}"
            );
        }
    }
    // Cross-embedded peer porn sites must be classified third-party, not
    // first-party (different registrable domains, unrelated certs).
    let exo = extract
        .third_party_fqdns
        .iter()
        .any(|f| f.contains("exoclick") || f.contains("exosrv"));
    assert!(exo, "the ExoClick family must surface as third-party");
}
