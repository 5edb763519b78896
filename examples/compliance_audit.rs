//! Compliance audit: the §7 story — cookie-consent banners, age
//! verification across countries, and privacy-policy transparency.
//!
//! ```sh
//! cargo run --release --example compliance_audit
//! ```

use redlight::analysis::{agegate, consent, monetization, policies};
use redlight::crawler::corpus::CorpusCompiler;
use redlight::crawler::db::CorpusLabel;
use redlight::crawler::openwpm::{CrawlConfig, OpenWpmCrawler};
use redlight::crawler::selenium::SeleniumCrawler;
use redlight::net::geoip::Country;
use redlight::report::table::{fmt_count, fmt_pct, Table};
use redlight::websim::oracle::InspectionOracle;
use redlight::{World, WorldConfig};

fn main() {
    let world = World::build(WorldConfig::small(11));
    let corpus = CorpusCompiler::new(&world).compile();
    let oracle = InspectionOracle::new(&world.sites);

    // ---- Consent banners from inside and outside the GDPR (§7.1). ----
    let mut breakdowns = Vec::new();
    for country in [Country::Spain, Country::Usa] {
        let crawl = OpenWpmCrawler::new(
            &world,
            CrawlConfig {
                country,
                corpus: CorpusLabel::Porn,
                store_dom: true, // banner detection reads the DOM
            },
        )
        .crawl(&corpus.sanitized);
        let verify = |domain: &str| oracle.confirm_banner(domain);
        let (breakdown, observations) = consent::breakdown(&crawl, &verify);
        println!(
            "{}: {:.2}% of sites show a cookie banner ({} manually rejected candidates)",
            country.name(),
            breakdown.total_pct,
            breakdown.rejected,
        );
        if let Some(example) = observations.first() {
            println!(
                "  e.g. {} ({}): \"{}\"",
                example.site,
                consent::label(example.kind),
                example.text.chars().take(60).collect::<String>()
            );
        }
        breakdowns.push(breakdown);
    }

    // ---- Age verification on the most popular sites, four countries. ----
    let histories = world.rank_histories();
    let mut ranked: Vec<String> = corpus.sanitized.clone();
    ranked.sort_by_key(|d| histories.get(d).and_then(|h| h.best()).unwrap_or(u32::MAX));
    let top: Vec<String> = ranked.into_iter().take(12).collect();
    let crawls: Vec<_> = [Country::Usa, Country::Uk, Country::Spain, Country::Russia]
        .into_iter()
        .map(|c| SeleniumCrawler::new(&world, c).crawl(&top))
        .collect();
    let per_country: Vec<Vec<_>> = crawls.iter().map(|c| c.iter().collect()).collect();
    let cmp = agegate::compare(&per_country);
    let mut t = Table::new(
        "Age verification, top sites (§7.2)",
        &["country", "with gate", "bypassed", "social login"],
    );
    for c in &cmp.per_country {
        t.row(&[
            c.country.name().to_string(),
            format!("{} ({})", c.with_gate, fmt_pct(c.with_gate_pct)),
            c.bypassed.to_string(),
            c.social_login.to_string(),
        ]);
    }
    println!("\n{}", t.render());
    println!(
        "verifiability: the crawler bypassed {:.0}% of non-social-login gates — \
         \"if our automatic crawler manages to bypass the mechanism, a child could do it as well\"",
        cmp.bypass_rate_pct
    );

    // ---- Privacy policies (§7.3) + monetization (§4.1). ----
    let crawl = SeleniumCrawler::new(&world, Country::Spain).crawl(&corpus.sanitized);
    let interactions: Vec<_> = crawl.iter().collect();
    let (docs, sanitized_out) = policies::collect(&interactions);
    let model = policies::fit(&docs);
    let report = policies::report(&docs, &model, sanitized_out, corpus.sanitized.len(), 50_000);
    println!(
        "\npolicies: {} of {} sites ({:.1}%); {} GDPR mentions; mean length {:.0} letters; \
         {:.1}% of pairs similar (TF-IDF ≥ 0.5)",
        fmt_count(report.with_policy),
        fmt_count(corpus.sanitized.len()),
        report.with_policy_pct,
        report.gdpr_mentions,
        report.mean_letters,
        report.similar_pairs_pct,
    );

    let label = |domain: &str| {
        oracle.label_subscription(domain).map(|l| match l {
            redlight::websim::oracle::SubscriptionLabel::Free => monetization::Subscription::Free,
            redlight::websim::oracle::SubscriptionLabel::Paid => monetization::Subscription::Paid,
        })
    };
    let money = monetization::report(&interactions, Some(&label));
    println!(
        "monetization: {:.1}% of sites offer subscriptions; {:.1}% of those sit behind a paywall",
        money.with_subscription_pct, money.paid_pct,
    );
    println!(
        "\nmanual inspections consumed by this audit: {}",
        oracle.manual_inspections()
    );
}
