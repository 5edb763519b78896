//! Anti-tracking effectiveness — the paper's §10 future work, quantified.
//!
//! Crawls the porn corpus twice: once as a regular user, once with an
//! AdBlock-Plus-style blocker loaded with the EasyList + EasyPrivacy
//! snapshots. The punchline matches the paper's conclusion: blocklists cut
//! most ad/tracking traffic, but since ~91 % of canvas-fingerprinting
//! scripts are not indexed, fingerprinting largely survives.
//!
//! ```sh
//! cargo run --release --example adblock_effectiveness
//! ```

use redlight::analysis::{ats, cookies, crossborder, fingerprint, sync, thirdparty};
use redlight::blocklist::FilterSet;
use redlight::browser::Browser;
use redlight::crawler::corpus::CorpusCompiler;
use redlight::crawler::db::{CorpusLabel, CrawlRecord};
use redlight::net::geoip::Country;
use redlight::net::url::Url;
use redlight::websim::server::BrowserKind;
use redlight::{World, WorldConfig};

fn crawl(world: &World, domains: &[String], with_blocker: bool) -> CrawlRecord {
    let ctx = Browser::context_for(world, Country::Spain, BrowserKind::OpenWpm);
    let client_ip = ctx.client_ip;
    let mut browser = Browser::new(world, ctx);
    if with_blocker {
        let mut filters = FilterSet::new();
        filters.add_list(&world.easylist);
        filters.add_list(&world.easyprivacy);
        browser.set_blocker(filters);
    }
    let mut record = CrawlRecord::new(Country::Spain, CorpusLabel::Porn, client_ip);
    for domain in domains {
        let Ok(url) = Url::parse(&format!("https://{domain}/")) else {
            continue;
        };
        record.push_visit(domain, browser.visit(&url));
    }
    record
}

fn main() {
    let world = World::build(WorldConfig::small(31));
    let corpus = CorpusCompiler::new(&world).compile();
    let classifier = ats::AtsClassifier::from_lists(&world.easylist, &world.easyprivacy);

    let plain = crawl(&world, &corpus.sanitized, false);
    let blocked = crawl(&world, &corpus.sanitized, true);

    let metrics = |crawl: &CrawlRecord, label: &str| {
        let extract = thirdparty::extract(crawl, true);
        let rows = cookies::collect(crawl);
        let third_cookies = rows
            .iter()
            .filter(|r| r.third_party && cookies::is_id_cookie(r))
            .count();
        let fp = fingerprint::detect(crawl, &classifier);
        let sync_report = sync::detect(crawl, &corpus.sanitized, 100, sync::SyncOptions::default());
        println!(
            "{label:<14} third-party FQDNs {:>4}   3rd-party ID cookies {:>5}   \
             canvas-FP sites {:>3}   sync pairs {:>4}",
            extract.third_party_fqdns.len(),
            third_cookies,
            fp.canvas_sites.len(),
            sync_report.pairs.len(),
        );
        (
            extract.third_party_fqdns.len(),
            third_cookies,
            fp.canvas_sites.len(),
        )
    };

    println!(
        "crawling {} porn sites with and without EasyList+EasyPrivacy:\n",
        corpus.sanitized.len()
    );
    let (tp0, ck0, fp0) = metrics(&plain, "no blocker");
    let (tp1, ck1, fp1) = metrics(&blocked, "with blocker");

    let drop = |a: usize, b: usize| 100.0 * (a.saturating_sub(b)) as f64 / a.max(1) as f64;
    println!(
        "\nreduction: third parties −{:.0}%, tracking cookies −{:.0}%, \
         fingerprinting sites −{:.0}%",
        drop(tp0, tp1),
        drop(ck0, ck1),
        drop(fp0, fp1),
    );
    println!(
        "the fingerprinting residue is the paper's point: porn-specific FP scripts are \
         largely unindexed, so blocklist users stay identifiable."
    );

    // Bonus: the cross-border view of what still leaves the EU with a
    // blocker installed (§10 future work after Iordanou et al.).
    let hosting = |host: &str| world.hosting_country(host);
    for (label, crawl) in [("no blocker", &plain), ("with blocker", &blocked)] {
        let xb = crossborder::report(crawl, &hosting);
        println!(
            "{label:<14} identifier-bearing third-party requests: {:>6}; leaving the GDPR \
             zone: {:>6} ({:.0}%)",
            xb.identifier_bearing, xb.leaving_jurisdiction, xb.leaving_pct,
        );
    }
}
