//! Cookie synchronization (§5.1.2 / Fig. 4) under the microscope.
//!
//! Shows why the crawl keeps ONE browser session alive: the sync detector
//! sees nothing when the browser restarts between visits, because trackers
//! only leak a stored cookie on a *repeat* sighting.
//!
//! ```sh
//! cargo run --release --example sync_graph
//! ```

use redlight::analysis::sync::{self, SyncOptions};
use redlight::browser::Browser;
use redlight::crawler::corpus::CorpusCompiler;
use redlight::crawler::db::{CorpusLabel, CrawlRecord};
use redlight::crawler::openwpm::{CrawlConfig, OpenWpmCrawler};
use redlight::net::geoip::Country;
use redlight::net::url::Url;
use redlight::websim::server::BrowserKind;
use redlight::{World, WorldConfig};

fn main() {
    let world = World::build(WorldConfig::small(23));
    let corpus = CorpusCompiler::new(&world).compile();

    // --- The paper's way: one long-lived session. ---
    let session_crawl = OpenWpmCrawler::new(
        &world,
        CrawlConfig {
            country: Country::Spain,
            corpus: CorpusLabel::Porn,
            store_dom: false,
        },
    )
    .crawl(&corpus.sanitized);
    let report = sync::detect(
        &session_crawl,
        &corpus.sanitized,
        100,
        SyncOptions::default(),
    );
    println!(
        "single session: syncing on {} sites, {} (origin → destination) pairs, \
         {} origins, {} destinations",
        report.sites_with_sync,
        report.pairs.len(),
        report.origins,
        report.destinations,
    );
    println!("\nheaviest Fig. 4 edges:");
    for (pair, count) in report.heavy_pairs(5).into_iter().take(12) {
        println!(
            "  {:<22} → {:<22} {count} cookies",
            pair.origin, pair.destination
        );
    }

    // --- Control: restart the browser for every visit. ---
    let client_ip = Browser::context_for(&world, Country::Spain, BrowserKind::OpenWpm).client_ip;
    let mut cold_crawl = CrawlRecord::new(Country::Spain, CorpusLabel::Porn, client_ip);
    for domain in &corpus.sanitized {
        let ctx = Browser::context_for(&world, Country::Spain, BrowserKind::OpenWpm);
        let mut fresh = Browser::new(&world, ctx); // empty jar every time
        let url = Url::parse(&format!("https://{domain}/")).expect("valid url");
        cold_crawl.push_visit(domain, fresh.visit(&url));
    }
    let cold = sync::detect(&cold_crawl, &corpus.sanitized, 100, SyncOptions::default());
    println!(
        "\nrestarting the browser per visit: syncing on {} sites, {} pairs — \
         the phenomenon disappears without the shared session (§3.1)",
        cold.sites_with_sync,
        cold.pairs.len(),
    );
}
