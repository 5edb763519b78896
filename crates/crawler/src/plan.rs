//! The crawl plan — the collection layer's single entry point.
//!
//! A [`CrawlPlan`] declares every crawl a study performs: OpenWPM-style
//! sweeps as country × corpus × store-DOM triples, and Selenium-style
//! interaction crawls as country × domain-selector pairs. The plan itself
//! is data; [`CrawlPlan::execute`] resolves the domain selectors against
//! the compiled corpus, fans every crawl out through one code path
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
use crate::openwpm::{corpus_slug, CrawlConfig};
use crate::parallel::{run_crawl_jobs, run_interaction_jobs, CrawlJob, CrawlObs, InteractionJob};

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
    /// Wall-clock duration of the crawl.
    pub wall: Duration,
    /// Transport-layer counters, when the crawl's profile metered.
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
    /// Executes every planned crawl — concurrently across crawls, via the
    /// shared [`parallel`](crate::parallel) fan-out — over `corpus`'s
    /// sanitized and reference lists and the `agegate_top` subset, and
    /// records the results in plan order into a fresh [`MeasurementDb`]
    /// that also keeps `corpus` and `rank_histories`. Returns it with one
    /// [`CrawlTiming`] per crawl.
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
        let crawl_jobs: Vec<CrawlJob<'_>> = self
            .openwpm
            .iter()
            .map(|spec| CrawlJob {
                config: spec.config.clone(),
                domains: resolve(spec.domains),
                net: spec.net.clone(),
            })
            .collect();
        let interaction_jobs: Vec<InteractionJob<'_>> = self
            .interactions
            .iter()
            .map(|spec| InteractionJob {
                country: spec.country,
                domains: resolve(spec.domains),
                net: spec.net.clone(),
            })
            .collect();
        let crawls = run_crawl_jobs(world, &crawl_jobs, obs);
        let interactions = run_interaction_jobs(world, &interaction_jobs, obs);

        let mut db = MeasurementDb::new(corpus, rank_histories);
        let mut timings = Vec::with_capacity(crawls.len() + interactions.len());
        for job in crawls {
            let record = job.output;
            let timing = CrawlTiming {
                crawler: "openwpm",
                country: record.country,
                corpus: Some(record.corpus),
                sites: record.visits.len(),
                attempts: job.rollup.attempts,
                retries: job.rollup.retries,
                failures: job.rollup.failures,
                wall: job.wall,
                net: job.transport,
            };
            publish_timing(obs, &timing);
            timings.push(timing);
            db.push_crawl(record);
        }
        for (spec, job) in self.interactions.iter().zip(interactions) {
            let records = job.output;
            let timing = CrawlTiming {
                crawler: "selenium",
                country: spec.country,
                corpus: None,
                sites: records.len(),
                attempts: job.rollup.attempts,
                retries: job.rollup.retries,
                failures: job.rollup.failures,
                wall: job.wall,
                net: job.transport,
            };
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
        assert!(timings
            .iter()
            .filter(|t| t.crawler == "selenium")
            .all(|t| t.corpus.is_none() && t.sites > 0));
    }

    #[test]
    fn plan_execution_matches_direct_crawling() {
        // The single code path must reproduce exactly what a hand-rolled
        // crawler invocation records (determinism across entry points).
        let world = World::build(WorldConfig::tiny(82));
        let corpus = CorpusCompiler::new(&world).compile();
        let config = CrawlConfig {
            country: Country::Usa,
            corpus: CorpusLabel::Porn,
            store_dom: true,
        };
        let plan = CrawlPlan {
            openwpm: vec![CrawlSpec {
                config: config.clone(),
                domains: DomainSel::Porn,
                net: NetProfile::default(),
            }],
            interactions: vec![],
        };
        let (db, _) = plan.execute(
            &world,
            corpus.clone(),
            BTreeMap::new(),
            &[],
            &CrawlObs::disabled(),
        );
        let direct = OpenWpmCrawler::new(&world, config).crawl(&corpus.sanitized);
        let planned = db.crawl(Country::Usa, CorpusLabel::Porn).unwrap();
        assert_eq!(planned.client_ip, direct.client_ip);
        assert_eq!(planned.visits.len(), direct.visits.len());
        for (a, b) in planned.visits.iter().zip(&direct.visits) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.visit.success, b.visit.success);
            assert_eq!(a.visit.requests.len(), b.visit.requests.len());
            assert_eq!(a.visit.dom_html, b.visit.dom_html);
        }
    }
}
