//! Ablations of the study's five design choices (DESIGN.md §4), each
//! asserted against websim ground truth on one small world (seed 2019) and
//! its Spanish porn crawl:
//!
//! 1. the 0.7 Levenshtein same-entity threshold (§4.2);
//! 2. the ≥ 6-character persistent ID-cookie rule (§5.1.1);
//! 3. whole-value cookie-sync matching, no delimiter splitting (§5.1.2);
//! 4. the ≥ 50 same-text `measureText` font rule (§5.1.3);
//! 5. Disconnect + X.509 organization attribution (§4.2(3)).
//!
//! Each test fails if the paper's rule stops being the right choice on
//! this world. The counts are the ones EXPERIMENTS.md reports.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use redlight::analysis::orgs::{AttributionSource, CertHarvest, OrgAttributor};
use redlight::analysis::sync::{self, SyncOptions};
use redlight::analysis::{cookies, fingerprint, thirdparty};
use redlight::crawler::corpus::CorpusCompiler;
use redlight::crawler::db::{CorpusLabel, CrawlRecord};
use redlight::crawler::openwpm::{CrawlConfig, OpenWpmCrawler};
use redlight::net::geoip::Country;
use redlight::net::psl::registrable_domain;
use redlight::net::tls::CertSummary;
use redlight::text::levenshtein;
use redlight::websim::world::HostEntity;
use redlight::websim::ThirdPartyService;
use redlight::{World, WorldConfig};

struct Fixture {
    world: World,
    porn: CrawlRecord,
}

/// The world and its crawl are the expensive part, so every test shares one.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::build(WorldConfig::small(2019));
        let corpus = CorpusCompiler::new(&world).compile();
        let porn = OpenWpmCrawler::new(
            &world,
            CrawlConfig {
                country: Country::Spain,
                corpus: CorpusLabel::Porn,
                store_dom: true,
            },
        )
        .crawl(&corpus.sanitized);
        Fixture { world, porn }
    })
}

#[test]
fn levenshtein_threshold_is_the_lowest_without_false_merges() {
    let services: Vec<&ThirdPartyService> = fixture().world.services.iter().collect();
    // Same entity: consecutive FQDNs of one service (`doublepimp.com`,
    // `doublepimpssl.com`). Different entities: each service's FQDN
    // against the next service's in the catalog — distinct services, even
    // where one company runs both (`exosrv.com`, `exoclick.com`).
    let same: Vec<(&str, &str)> = services
        .iter()
        .flat_map(|s| {
            let fqdns: Vec<&str> = s.all_fqdns().collect();
            fqdns.windows(2).map(|w| (w[0], w[1])).collect::<Vec<_>>()
        })
        .collect();
    let different: Vec<(&str, &str)> = services
        .windows(2)
        .map(|w| (w[0].fqdn.as_str(), w[1].fqdn.as_str()))
        .collect();
    let merged = |pairs: &[(&str, &str)], threshold: f64| {
        pairs
            .iter()
            .filter(|(a, b)| levenshtein::similarity(a, b) >= threshold)
            .count()
    };

    const GRID: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];
    assert_eq!((same.len(), different.len()), (5, 252));
    assert_eq!(GRID.map(|t| merged(&different, t)), [12, 4, 0, 0, 0]);
    assert_eq!(GRID.map(|t| merged(&same, t)), [5, 4, 4, 1, 0]);
    // False merges only fall and recall only falls as the threshold rises,
    // so the lowest threshold that merges no distinct services is the best.
    let lowest_clean = GRID.into_iter().find(|&t| merged(&different, t) == 0);
    assert_eq!(lowest_clean, Some(levenshtein::SAME_ENTITY_THRESHOLD));
}

#[test]
fn id_cookie_floor_drops_only_four_character_ids() {
    let f = fixture();
    let rows = cookies::collect(&f.porn);
    let (kept, dropped): (Vec<_>, Vec<_>) = rows
        .iter()
        .filter(|r| !r.session)
        .partition(|r| cookies::is_id_cookie(r));
    assert_eq!((kept.len() + dropped.len(), kept.len()), (3_038, 2_976));

    // Ground truth: the ID lengths the services behind each registrable
    // domain assign.
    let mut id_lens: BTreeMap<&str, BTreeSet<u8>> = BTreeMap::new();
    for s in f.world.services.iter() {
        if let Some(behavior) = &s.cookies {
            for fqdn in s.all_fqdns() {
                id_lens
                    .entry(registrable_domain(fqdn))
                    .or_default()
                    .insert(behavior.id_len);
            }
        }
    }
    // Every dropped cookie is a persistent 4-character ID from a tracker
    // that assigns 4-character IDs, so the floor never drops a cookie from
    // a service whose IDs are 6 characters or longer.
    for row in &dropped {
        assert_eq!(row.value.chars().count(), 4, "{row:?}");
        assert!(matches!(row.name.as_str(), "uid" | "x1"), "{row:?}");
        assert_eq!(
            id_lens.get(row.domain.as_str()),
            Some(&BTreeSet::from([4])),
            "{row:?} dropped"
        );
    }
}

#[test]
fn sync_delimiter_splitting_only_adds_matches() {
    let f = fixture();
    let detect = |options| sync::detect(&f.porn, &[], 0, options);
    // The detector's default is the paper's rule.
    let whole = detect(SyncOptions::default());
    let split = detect(SyncOptions {
        split_delimiters: true,
    });

    // Ground truth: registrable-domain pairs wired as `sync_to` partners.
    let mut partners: BTreeSet<(&str, &str)> = BTreeSet::new();
    for origin in f.world.services.iter() {
        for &id in &origin.sync_to {
            let destination = f.world.services.get(id);
            for a in origin.all_fqdns() {
                for b in destination.all_fqdns() {
                    partners.insert((registrable_domain(a), registrable_domain(b)));
                }
            }
        }
    }
    let is_partner = |p: &sync::SyncPair| partners.contains(&(&p.origin[..], &p.destination[..]));
    let sites: BTreeSet<&str> = f
        .porn
        .successful()
        .map(|v| registrable_domain(f.porn.name(v.domain)))
        .collect();

    // The paper's whole-value rule reports real sync flows only.
    for pair in whole.pairs.keys() {
        assert!(is_partner(pair), "{pair:?} is not a sync_to partner");
    }
    // Splitting keeps every whole-value pair…
    assert!(split.sites_with_sync >= whole.sites_with_sync);
    for pair in whole.pairs.keys() {
        assert!(split.pairs.contains_key(pair), "lost pair {pair:?}");
    }
    // …and every pair it adds leaks a crawled site's own first-party value.
    let added: Vec<&sync::SyncPair> = split
        .pairs
        .keys()
        .filter(|p| !whole.pairs.contains_key(*p))
        .collect();
    for pair in &added {
        assert!(
            sites.contains(pair.origin.as_str()) && !is_partner(pair),
            "splitting added {pair:?}"
        );
    }
    assert_eq!((whole.pairs.len(), added.len()), (164, 662));
}

#[test]
fn font_rule_flags_only_the_font_fingerprinter_below_100_calls() {
    let f = fixture();
    let font_hosts: BTreeSet<&str> = f
        .world
        .services
        .iter()
        .filter(|s| s.fp.font)
        .map(|s| s.fqdn.as_str())
        .collect();
    assert!(
        f.porn.successful().any(|v| v
            .visit
            .requests
            .iter()
            .any(|r| font_hosts.contains(r.url.host().as_str()))),
        "precondition: the crawl reaches the font fingerprinter, which not every small seed does"
    );

    // Per script host: the most `measureText` calls on one text in any
    // execution that swaps fonts, and whether the detector's rule fired.
    let mut peak: BTreeMap<&str, usize> = BTreeMap::new();
    let mut detected: BTreeSet<&str> = BTreeSet::new();
    for v in f.porn.successful() {
        for (script, activity) in &v.visit.canvas {
            if activity.fonts_set == 0 {
                continue;
            }
            let host = script.as_ref().map_or("<inline>", |u| u.host().as_str());
            let mut per_text: BTreeMap<&str, usize> = BTreeMap::new();
            for (_, text) in &activity.measured {
                *per_text.entry(text).or_default() += 1;
            }
            let most = per_text.into_values().max().unwrap_or(0);
            let entry = peak.entry(host).or_default();
            *entry = (*entry).max(most);
            if fingerprint::passes_font_criteria(activity) {
                detected.insert(host);
            }
        }
    }
    let flagged = |threshold: usize| -> BTreeSet<&str> {
        peak.iter()
            .filter(|(_, &n)| n >= threshold)
            .map(|(&host, _)| host)
            .collect()
    };

    assert_eq!(detected, font_hosts);
    for threshold in [10, 25, 50] {
        assert_eq!(flagged(threshold), font_hosts, "≥ {threshold} calls");
    }
    assert_eq!(flagged(100), BTreeSet::new(), "≥ 100 calls");
}

#[test]
fn x509_attribution_strictly_adds_to_disconnect() {
    let f = fixture();
    let world = &f.world;
    let extract = thirdparty::extract(&f.porn, true);
    // The pipeline's out-of-band TLS probe: the certificate a host presents.
    let probe = |host: &str| -> Option<CertSummary> {
        world.resolve_host(host)?;
        Some((&*world.cert_for_host(host)).into())
    };
    let cert_org = |host: &str| probe(host).and_then(|c| c.org);
    let no_certs = CertHarvest::default();
    let disconnect = OrgAttributor::from_harvest(&world.disconnect, &no_certs);
    let traffic_certs = OrgAttributor::new(&world.disconnect, &[&f.porn], None);
    let probed = OrgAttributor::new(&world.disconnect, &[&f.porn], Some(&probe));

    for fqdn in &extract.third_party_fqdns {
        let listed = match world.resolve_host(fqdn) {
            Some(HostEntity::Service(id)) => Some(world.services.get(id)),
            _ => None,
        }
        .filter(|s| s.in_disconnect);
        assert_eq!(
            disconnect.attribute(fqdn).is_some(),
            listed.is_some(),
            "{fqdn}"
        );
        match (probed.attribute(fqdn), listed) {
            (Some((org, AttributionSource::Disconnect)), Some(s)) => {
                assert_eq!(org, world.orgs.get(s.org).name, "{fqdn}");
            }
            (Some((org, AttributionSource::Certificate)), None) => {
                assert!(
                    cert_org(fqdn).is_some_and(|o| o.starts_with(&org)),
                    "{fqdn}: {org}"
                );
            }
            (None, None) => assert_eq!(cert_org(fqdn), None, "{fqdn} left unresolved"),
            (got, _) => panic!(
                "{fqdn}: attributed as {got:?}, listed: {}",
                listed.is_some()
            ),
        }
    }

    let coverage = |a: &OrgAttributor| {
        let c = a.coverage(&extract);
        (c.total_fqdns, c.resolved_fqdns, c.companies)
    };
    assert_eq!(coverage(&disconnect), (324, 9, 8));
    assert_eq!(coverage(&traffic_certs), (324, 147, 51));
    assert_eq!(coverage(&probed), (324, 219, 65));
}
