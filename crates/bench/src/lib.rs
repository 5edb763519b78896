//! Shared fixture for the `transport` micro-bench.
//!
//! The bench builds the fixture once (world, corpus and the Spanish porn
//! crawl — the expensive, non-benchmarked part), then lets Criterion time
//! the isolated kernel.

use redlight_crawler::corpus::{CorpusCompiler, CorpusReport};
use redlight_crawler::db::{CorpusLabel, CrawlRecord};
use redlight_crawler::openwpm::{CrawlConfig, OpenWpmCrawler};
use redlight_net::geoip::Country;
use redlight_websim::{World, WorldConfig};

/// Seed of the bench fixture.
pub const BENCH_SEED: u64 = 2019;

/// A world with its compiled corpus and the Spanish porn crawl.
pub struct Fixture {
    pub world: World,
    pub corpus: CorpusReport,
    pub porn: CrawlRecord,
}

impl Fixture {
    /// Builds the tiny fixture.
    pub fn tiny() -> Fixture {
        let world = World::build(WorldConfig::tiny(BENCH_SEED));
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
        Fixture {
            world,
            corpus,
            porn,
        }
    }
}

/// Criterion defaults for the bench: few samples, short windows.
pub fn criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}
