//! The crawl plan — the collection layer's single entry point.
//!
//! A [`CrawlPlan`] declares every crawl a study performs: OpenWPM-style
//! sweeps as country × corpus × store-DOM triples, and Selenium-style
//! interaction crawls as country × domain-selector pairs. The plan itself
//! is data; [`CrawlPlan::execute`] resolves the domain selectors against
//! the compiled corpus, fans every crawl out across a thread pool
//! ([`parallel`](crate::parallel)), and records it all — the Spanish main
//! crawls, the geo sweep, the per-country age-gate crawls — into one
//! [`MeasurementDb`] next to the corpus itself, with per-crawl wall timings
//! for the stage report.

use std::collections::BTreeMap;
use std::time::Duration;

use redlight_net::geoip::Country;
use redlight_net::transport::{NetProfile, TransportStats};
use redlight_rankings::RankHistory;
use redlight_websim::World;

use crate::corpus::CorpusReport;
use crate::db::{CorpusLabel, MeasurementDb};
use crate::openwpm::{corpus_slug, CrawlConfig, OpenWpmCrawler};
use crate::parallel::{run_jobs, CrawlObs};
use crate::selenium::SeleniumCrawler;

/// Which domain list a planned crawl sweeps. Selectors are resolved at
/// execution time, so a plan can be built before the corpus is compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainSel {
    /// The sanitized porn corpus.
    Porn,
    /// The regular (reference) corpus.
    Regular,
    /// The most-popular porn subset manually studied for age gates (§7.2).
    AgeGateTop,
}

/// One planned OpenWPM-style crawl.
#[derive(Debug, Clone)]
pub struct CrawlSpec {
    /// Crawler configuration (country × corpus × store-DOM).
    pub config: CrawlConfig,
    /// Domain list to sweep.
    pub domains: DomainSel,
    /// Network the crawl runs over (transport stack + retry policy).
    pub net: NetProfile,
}

/// One planned interaction crawl.
#[derive(Debug, Clone)]
pub struct InteractionSpec {
    /// Vantage point.
    pub country: Country,
    /// Domain list to interact with.
    pub domains: DomainSel,
    /// Network the crawl runs over (transport stack + retry policy).
    pub net: NetProfile,
}

/// Wall time, size and network instrumentation of one executed crawl.
#[derive(Debug, Clone)]
pub struct CrawlTiming {
    /// `"openwpm"` or `"selenium"`.
    pub crawler: &'static str,
    /// Vantage point.
    pub country: Country,
    /// Corpus swept (OpenWPM crawls only).
    pub corpus: Option<CorpusLabel>,
    /// Number of sites the crawl covered.
    pub sites: usize,
    /// Document-load attempts spent across those sites.
    pub attempts: u64,
    /// Attempts beyond each site's first (retry-policy spillover).
    pub retries: u64,
    /// Sites whose document never loaded.
    pub failures: u64,
    /// Host wall-clock duration of the crawl (its visit walls are logical
    /// time; this is the real time the crawl took to run).
    pub wall: Duration,
    /// Transport-layer counters. Always `Some`, since every profile
    /// meters; it stays an `Option` because the benchmark of record
    /// (`perfbench/`) reads it with `filter_map`.
    pub net: Option<TransportStats>,
}

/// Every crawl one study performs.
#[derive(Debug, Clone, Default)]
pub struct CrawlPlan {
    /// OpenWPM-style sweeps, in recording order.
    pub openwpm: Vec<CrawlSpec>,
    /// Interaction crawls, in recording order.
    pub interactions: Vec<InteractionSpec>,
}

impl CrawlPlan {
    /// Executes every planned crawl — concurrently across crawls, one
    /// scoped thread each — over `corpus`'s sanitized and reference lists
    /// and the `agegate_top` subset, and records the results in plan order
    /// into a fresh [`MeasurementDb`] that also keeps `corpus` and
    /// `rank_histories`. Returns it with one [`CrawlTiming`] per crawl.
    ///
    /// Every crawl records its span tree into a per-worker journal shard
    /// and publishes its transport/cache counters into `obs.metrics`, plus
    /// one `crawl.<crawler>.<country>[.<corpus>].{sites,attempts,retries,failures}`
    /// counter group per executed crawl — the same numbers the returned
    /// [`CrawlTiming`]s carry, so the timing rows are a view over the
    /// registry.
    pub fn execute(
        &self,
        world: &World,
        corpus: CorpusReport,
        rank_histories: BTreeMap<String, RankHistory>,
        agegate_top: &[String],
        obs: &CrawlObs,
    ) -> (MeasurementDb, Vec<CrawlTiming>) {
        let resolve = |sel: DomainSel| match sel {
            DomainSel::Porn => &corpus.sanitized[..],
            DomainSel::Regular => &corpus.reference_regular[..],
            DomainSel::AgeGateTop => agegate_top,
        };
        let crawls = run_jobs(
            &self.openwpm,
            obs,
            |i, spec| {
                format!(
                    "collect/openwpm.{i:02}.{}.{}",
                    spec.config.country.code().to_ascii_lowercase(),
                    corpus_slug(spec.config.corpus),
                )
            },
            |spec, tracer, registry| {
                OpenWpmCrawler::new(world, spec.config.clone())
                    .with_net(spec.net.clone())
                    .crawl_observed(resolve(spec.domains), tracer, registry)
            },
        );
        let interactions = run_jobs(
            &self.interactions,
            obs,
            |i, spec| {
                format!(
                    "collect/selenium.{i:02}.{}",
                    spec.country.code().to_ascii_lowercase()
                )
            },
            |spec, tracer, registry| {
                SeleniumCrawler::new(world, spec.country)
                    .with_net(spec.net.clone())
                    .crawl_observed(resolve(spec.domains), tracer, registry)
            },
        );

        let mut db = MeasurementDb::new(corpus, rank_histories);
        let mut timings = Vec::with_capacity(crawls.len() + interactions.len());
        for (record, timing) in crawls {
            publish_timing(obs, &timing);
            timings.push(timing);
            db.push_crawl(record);
        }
        for (records, timing) in interactions {
            publish_timing(obs, &timing);
            timings.push(timing);
            db.push_interactions(records);
        }
        (db, timings)
    }
}

/// Mirrors one crawl's [`CrawlTiming`] into per-crawl registry counters.
fn publish_timing(obs: &CrawlObs, t: &CrawlTiming) {
    let mut prefix = format!(
        "crawl.{}.{}",
        t.crawler,
        t.country.code().to_ascii_lowercase()
    );
    if let Some(corpus) = t.corpus {
        prefix.push('.');
        prefix.push_str(corpus_slug(corpus));
    }
    for (field, value) in [
        ("sites", t.sites as u64),
        ("attempts", t.attempts),
        ("retries", t.retries),
        ("failures", t.failures),
    ] {
        obs.metrics.counter(&format!("{prefix}.{field}")).add(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusCompiler;
    use crate::openwpm::OpenWpmCrawler;
    use redlight_websim::WorldConfig;

    #[test]
    fn plan_records_every_crawl_with_timings() {
        let world = World::build(WorldConfig::tiny(81));
        let corpus = CorpusCompiler::new(&world).compile();
        let top: Vec<String> = corpus.sanitized.iter().take(4).cloned().collect();
        let plan = CrawlPlan {
            openwpm: vec![
                CrawlSpec {
                    config: CrawlConfig {
                        country: Country::Spain,
                        corpus: CorpusLabel::Porn,
                        store_dom: true,
                    },
                    domains: DomainSel::Porn,
                    net: NetProfile::default(),
                },
                CrawlSpec {
                    config: CrawlConfig {
                        country: Country::Spain,
                        corpus: CorpusLabel::Regular,
                        store_dom: false,
                    },
                    domains: DomainSel::Regular,
                    net: NetProfile::default(),
                },
                CrawlSpec {
                    config: CrawlConfig {
                        country: Country::Russia,
                        corpus: CorpusLabel::Porn,
                        store_dom: false,
                    },
                    domains: DomainSel::Porn,
                    net: NetProfile::default(),
                },
            ],
            interactions: vec![
                InteractionSpec {
                    country: Country::Spain,
                    domains: DomainSel::Porn,
                    net: NetProfile::default(),
                },
                InteractionSpec {
                    country: Country::Uk,
                    domains: DomainSel::AgeGateTop,
                    net: NetProfile::default(),
                },
            ],
        };

        let sanitized = corpus.sanitized.len();
        let (db, timings) =
            plan.execute(&world, corpus, BTreeMap::new(), &top, &CrawlObs::disabled());

        assert_eq!(db.crawls().len(), 3);
        assert_eq!(timings.len(), 5);
        assert_eq!(db.countries(), vec![Country::Spain, Country::Russia]);
        let porn_es = db.crawl(Country::Spain, CorpusLabel::Porn).unwrap();
        assert_eq!(porn_es.visits.len(), sanitized);
        assert_eq!(db.corpus().sanitized.len(), sanitized);
        assert!(porn_es.visits.iter().any(|v| !v.visit.dom_html.is_empty()));
        let porn_ru = db.crawl(Country::Russia, CorpusLabel::Porn).unwrap();
        assert!(porn_ru.visits.iter().all(|v| v.visit.dom_html.is_empty()));
        assert_eq!(db.interactions_in(Country::Spain).count(), sanitized);
        assert_eq!(db.interactions_in(Country::Uk).count(), top.len());

        // Timings come back in plan order: the sweeps, then the
        // interaction crawls.
        let order: Vec<_> = timings
            .iter()
            .map(|t| (t.crawler, t.country, t.corpus))
            .collect();
        assert_eq!(
            order,
            vec![
                ("openwpm", Country::Spain, Some(CorpusLabel::Porn)),
                ("openwpm", Country::Spain, Some(CorpusLabel::Regular)),
                ("openwpm", Country::Russia, Some(CorpusLabel::Porn)),
                ("selenium", Country::Spain, None),
                ("selenium", Country::Uk, None),
            ]
        );
        assert!(timings.iter().all(|t| t.wall > Duration::ZERO));
        // The default profile meters and never retries: each sweep's
        // transport saw exactly the requests its visits recorded, one
        // attempt per site.
        for (crawl, t) in db.crawls().iter().zip(&timings) {
            let recorded: u64 = crawl
                .visits
                .iter()
                .map(|v| v.visit.requests.len() as u64)
                .sum();
            let stats = t.net.as_ref().expect("every profile meters");
            assert_eq!(stats.requests, recorded);
            assert_eq!(t.sites, crawl.visits.len());
            assert_eq!(t.attempts, crawl.visits.len() as u64);
            assert_eq!(t.retries, 0);
            assert_eq!(t.failures, crawl.failure_count() as u64);
        }
        // Interaction crawls count their unreachable sites as failures.
        for t in &timings[3..] {
            let stats = t.net.as_ref().expect("every profile meters");
            assert!(stats.requests > 0);
            assert_eq!(t.attempts, t.sites as u64);
            let unreachable = db
                .interactions_in(t.country)
                .filter(|r| !r.reachable)
                .count();
            assert_eq!(t.failures, unreachable as u64);
        }
    }

    #[test]
    fn plan_execution_matches_direct_crawling() {
        // Crawls running concurrently must record exactly what a
        // hand-rolled sequential crawler invocation records (determinism
        // across entry points and threads), logical walls included.
        let world = World::build(WorldConfig::tiny(82));
        let corpus = CorpusCompiler::new(&world).compile();
        let config = |country| CrawlConfig {
            country,
            corpus: CorpusLabel::Porn,
            store_dom: true,
        };
        let plan = CrawlPlan {
            openwpm: [Country::Spain, Country::Usa, Country::Russia]
                .into_iter()
                .map(|country| CrawlSpec {
                    config: config(country),
                    domains: DomainSel::Porn,
                    net: NetProfile::default(),
                })
                .collect(),
            interactions: vec![],
        };
        let (db, _) = plan.execute(
            &world,
            corpus.clone(),
            BTreeMap::new(),
            &[],
            &CrawlObs::disabled(),
        );
        let direct = OpenWpmCrawler::new(&world, config(Country::Usa)).crawl(&corpus.sanitized);
        let planned = db.crawl(Country::Usa, CorpusLabel::Porn).unwrap();
        assert_eq!(planned.client_ip, direct.client_ip);
        assert_eq!(planned.visits.len(), direct.visits.len());
        for (a, b) in planned.visits.iter().zip(&direct.visits) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.visit.success, b.visit.success);
            assert_eq!(a.visit.requests.len(), b.visit.requests.len());
            assert_eq!(a.visit.dom_html, b.visit.dom_html);
            assert_eq!(a.wall, b.wall);
        }
    }
}
