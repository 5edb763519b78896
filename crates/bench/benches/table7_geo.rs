//! Table 7 + §6 — per-country comparison (crawl in fixture, summarize in
//! bench).

use criterion::{criterion_group, criterion_main, Criterion};
use redlight_analysis::{geo, ThreatFeed};
use redlight_bench::{criterion as bench_criterion, Fixture};
use redlight_crawler::db::CorpusLabel;
use redlight_crawler::openwpm::{CrawlConfig, OpenWpmCrawler};
use redlight_net::geoip::Country;
use std::hint::black_box;

struct Feed<'w>(&'w redlight_websim::World);
impl ThreatFeed for Feed<'_> {
    fn detections(&self, domain: &str) -> u8 {
        self.0
            .scanners
            .detections(domain, self.0.truly_malicious(domain))
    }
}

fn bench(c: &mut Criterion) {
    let f = Fixture::tiny();
    let classifier = f.classifier();
    let threat = Feed(&f.world);
    let countries = [
        Country::Spain,
        Country::Usa,
        Country::Russia,
        Country::India,
    ];
    let crawls: Vec<_> = countries
        .iter()
        .map(|&country| {
            OpenWpmCrawler::new(
                &f.world,
                CrawlConfig {
                    country,
                    corpus: CorpusLabel::Porn,
                    store_dom: false,
                },
            )
            .crawl(&f.corpus.sanitized)
        })
        .collect();

    let summaries: Vec<_> = crawls
        .iter()
        .map(|crawl| geo::summarize(crawl, &classifier, &threat))
        .collect();
    let regular_fqdns = redlight_analysis::thirdparty::extract(&f.regular, true).third_party_fqdns;
    let t7 = geo::table7(&summaries, &regular_fqdns);
    for row in &t7.rows {
        println!(
            "Table 7 {}: {} FQDNs ({:.0}% web-eco), {} unique, {} ATS ({} unique)",
            row.country.name(),
            row.fqdns,
            row.web_ecosystem_pct,
            row.unique_fqdns,
            row.ats,
            row.unique_ats
        );
    }
    let gm = geo::geo_malware(&summaries);
    println!(
        "malware: {:?} — stable domains {} (paper: 13), stable-site lower bound {} (paper: 26)",
        gm.per_country, gm.stable_domains, gm.stable_sites_lower_bound
    );

    c.bench_function("table7/geo_summarize", |b| {
        b.iter(|| geo::summarize(black_box(&crawls[0]), black_box(&classifier), &threat))
    });
    c.bench_function("table7/country_comparison", |b| {
        b.iter(|| geo::table7(black_box(&summaries), black_box(&regular_fqdns)))
    });
}

criterion_group! { name = benches; config = bench_criterion(); targets = bench }
criterion_main!(benches);
