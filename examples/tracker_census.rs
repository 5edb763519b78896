//! Tracker census: the §4 story in isolation.
//!
//! Builds a world, compiles the corpus, runs the Spanish OpenWPM-style
//! crawl over both corpora, and walks through the third-party pipeline by
//! hand: party classification, ATS labeling (full-URL vs relaxed), parent
//! -company attribution, and the blocklist coverage gap for fingerprinting
//! scripts.
//!
//! ```sh
//! cargo run --release --example tracker_census
//! ```

use redlight::analysis::{ats, fingerprint, orgs, thirdparty};
use redlight::crawler::corpus::CorpusCompiler;
use redlight::crawler::db::CorpusLabel;
use redlight::crawler::openwpm::{CrawlConfig, OpenWpmCrawler};
use redlight::net::geoip::Country;
use redlight::report::table::{fmt_count, fmt_pct, Table};
use redlight::{World, WorldConfig};

fn main() {
    let world = World::build(WorldConfig::small(7));
    let corpus = CorpusCompiler::new(&world).compile();
    println!(
        "corpus: {} porn sites ({} candidates, {} false positives removed), {} regular reference sites",
        fmt_count(corpus.sanitized.len()),
        fmt_count(corpus.candidates.len()),
        fmt_count(corpus.false_positives.len()),
        fmt_count(corpus.reference_regular.len()),
    );

    // One browser session per corpus, landing pages only (§3.1).
    let porn = OpenWpmCrawler::new(
        &world,
        CrawlConfig {
            country: Country::Spain,
            corpus: CorpusLabel::Porn,
            store_dom: false,
        },
    )
    .crawl(&corpus.sanitized);
    let regular = OpenWpmCrawler::new(
        &world,
        CrawlConfig {
            country: Country::Spain,
            corpus: CorpusLabel::Regular,
            store_dom: false,
        },
    )
    .crawl(&corpus.reference_regular);

    // Third-party extraction (§4.2(1)): FQDN + certificate + Levenshtein.
    let porn_parties = thirdparty::extract(&porn, true);
    let regular_parties = thirdparty::extract(&regular, true);
    println!(
        "\nporn crawl contacted {} distinct FQDNs: {} third-party, {} first-party",
        fmt_count(porn_parties.contacted_fqdns.len()),
        fmt_count(porn_parties.third_party_fqdns.len()),
        fmt_count(porn_parties.first_party_fqdns.len()),
    );

    // ATS classification (§4.2(2)).
    let classifier = ats::AtsClassifier::from_lists(&world.easylist, &world.easyprivacy);
    let table2 = ats::table2(
        &porn,
        &porn_parties,
        &regular,
        &regular_parties,
        &classifier,
    );
    println!(
        "ATS domains: porn {} ({:.1}% of third parties), regular {}, intersection {} — the \
         semi-decoupled ecosystem",
        table2.porn_ats,
        100.0 * table2.porn_ats as f64 / table2.porn_third_party.max(1) as f64,
        table2.regular_ats,
        table2.ats_intersection,
    );

    // Parent-company attribution (§4.2(3)), with the out-of-band TLS probe.
    let probe = |host: &str| -> Option<redlight::net::tls::CertSummary> {
        world.resolve_host(host)?;
        Some((&*world.cert_for_host(host)).into())
    };
    let attributor = orgs::OrgAttributor::new(&world.disconnect, &[&porn, &regular], Some(&probe));
    let stats = attributor.coverage(&porn_parties);
    println!(
        "\nattribution: {}/{} FQDNs resolved to {} companies (Disconnect alone: {})",
        fmt_count(stats.resolved_fqdns),
        fmt_count(stats.total_fqdns),
        stats.companies,
        stats.resolved_by_disconnect,
    );

    let mut t = Table::new(
        "Top organizations in the porn ecosystem",
        &["organization", "sites", "prevalence"],
    );
    for org in attributor
        .prevalence(&porn_parties, porn.success_count())
        .iter()
        .take(12)
    {
        t.row(&[
            org.organization.clone(),
            org.sites.to_string(),
            fmt_pct(org.fraction * 100.0),
        ]);
    }
    println!("\n{}", t.render());

    // The §5.1.3 coverage gap: fingerprinting scripts vs the blocklists.
    let fp = fingerprint::detect(&porn, &classifier);
    println!(
        "canvas fingerprinting: {} scripts on {} sites; {:.1}% of the scripts are NOT \
         indexed by EasyList/EasyPrivacy — blocklist users remain trackable",
        fp.canvas_scripts.len(),
        fp.canvas_sites.len(),
        fp.unindexed_pct,
    );
}
