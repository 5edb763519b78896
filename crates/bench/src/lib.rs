//! Shared fixture for the `ats_match` and `transport` micro-benches.
//!
//! Each bench builds the fixture once (world, corpus and the Spanish porn
//! crawl — the expensive, non-benchmarked part), then lets Criterion time
//! the isolated kernel.

use redlight_crawler::corpus::{CorpusCompiler, CorpusReport};
use redlight_crawler::db::{CorpusLabel, CrawlRecord};
use redlight_crawler::openwpm::{CrawlConfig, OpenWpmCrawler};
use redlight_net::geoip::Country;
use redlight_websim::{World, WorldConfig};

/// Seed shared by all benches so their outputs cross-reference.
pub const BENCH_SEED: u64 = 2019;

/// A world with its compiled corpus and the Spanish porn crawl.
pub struct Fixture {
    pub world: World,
    pub corpus: CorpusReport,
    pub porn: CrawlRecord,
}

impl Fixture {
    /// Builds the standard small-scale fixture (~340 porn sites).
    pub fn small() -> Fixture {
        Self::with_config(WorldConfig::small(BENCH_SEED))
    }

    /// Builds the tiny fixture for crawl-heavy benches.
    pub fn tiny() -> Fixture {
        Self::with_config(WorldConfig::tiny(BENCH_SEED))
    }

    fn with_config(config: WorldConfig) -> Fixture {
        let world = World::build(config);
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

/// Criterion defaults shared by both benches: few samples, short windows.
pub fn criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}
