//! The crawl plan — the collection layer's single entry point.
//!
//! A [`CrawlPlan`] declares every crawl a study performs: OpenWPM-style
//! sweeps as country × corpus × store-DOM triples, and Selenium-style
//! interaction crawls as country × domain-selector pairs. The plan itself
//! is data; [`CrawlPlan::execute`] resolves the domain selectors against
//! the compiled corpus, runs every crawl on one worker pool
//! ([`parallel`](crate::parallel)), longest domain list first, and records
//! it all — the Spanish main crawls, the geo sweep, the per-country
//! age-gate crawls — into one [`MeasurementDb`] next to the corpus itself,
//! with per-crawl wall timings for the stage report.

use std::collections::BTreeMap;
use std::time::Duration;

use redlight_net::geoip::Country;
use redlight_net::transport::{NetProfile, TransportStats};
use redlight_rankings::RankHistory;
use redlight_websim::World;

use crate::corpus::CorpusReport;
use crate::db::{CorpusLabel, CrawlRecord, InteractionRecord, MeasurementDb};
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
    /// Host wall-clock duration of the crawl, from its session opening on
    /// its pool worker to its close: the time it waited in the pool's queue
    /// is not in it.
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
    /// Executes every planned crawl over `corpus`'s sanitized and
    /// reference lists and the `agegate_top` subset, sweeps and
    /// interaction crawls together on one worker pool that takes the
    /// longest domain list first, and records the results in plan order
    /// into a fresh [`MeasurementDb`] that also keeps `corpus` and
    /// `rank_histories`. Returns it with one [`CrawlTiming`] per crawl,
    /// sweeps first, each kind in plan order.
    ///
    /// Every crawl records its span tree into its own journal shard and
    /// publishes its transport/cache counters into `obs.metrics`, plus
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
        let crawled = run_jobs(
            &self.jobs(&corpus, agegate_top),
            obs,
            Job::weight,
            Job::shard,
            |job, tracer, registry| match *job {
                Job::Sweep(_, spec, domains) => {
                    let (record, timing) = OpenWpmCrawler::new(world, spec.config.clone())
                        .with_net(spec.net.clone())
                        .crawl_observed(domains, tracer, registry);
                    (Crawled::Sweep(record), timing)
                }
                Job::Interaction(_, spec, domains) => {
                    let (records, timing) = SeleniumCrawler::new(world, spec.country)
                        .with_net(spec.net.clone())
                        .crawl_observed(domains, tracer, registry);
                    (Crawled::Interactions(records), timing)
                }
            },
        );

        let mut db = MeasurementDb::new(corpus, rank_histories);
        let mut timings = Vec::with_capacity(crawled.len());
        for (crawl, timing) in crawled {
            publish_timing(obs, &timing);
            timings.push(timing);
            match crawl {
                Crawled::Sweep(record) => db.push_crawl(record),
                Crawled::Interactions(records) => db.push_interactions(records),
            }
        }
        (db, timings)
    }

    /// Every planned crawl as a pool job, in plan order: the sweeps, then
    /// the interaction crawls, each with its domain list resolved.
    fn jobs<'p>(&'p self, corpus: &'p CorpusReport, agegate_top: &'p [String]) -> Vec<Job<'p>> {
        let resolve = |sel: DomainSel| match sel {
            DomainSel::Porn => &corpus.sanitized[..],
            DomainSel::Regular => &corpus.reference_regular[..],
            DomainSel::AgeGateTop => agegate_top,
        };
        let sweeps = self
            .openwpm
            .iter()
            .enumerate()
            .map(|(i, spec)| Job::Sweep(i, spec, resolve(spec.domains)));
        let interactions = self
            .interactions
            .iter()
            .enumerate()
            .map(|(i, spec)| Job::Interaction(i, spec, resolve(spec.domains)));
        sweeps.chain(interactions).collect()
    }
}

/// One planned crawl as the pool runs it: its spec, its index among the
/// plan's crawls of its kind, and the domains it visits.
enum Job<'p> {
    Sweep(usize, &'p CrawlSpec, &'p [String]),
    Interaction(usize, &'p InteractionSpec, &'p [String]),
}

impl Job<'_> {
    /// The pool's queue key, heaviest first: the domain list's length,
    /// then an interaction crawl before a sweep, since its visit does a
    /// sweep's landing-page load plus the gate, policy and premium
    /// fetches.
    fn weight(&self) -> (usize, bool) {
        match *self {
            Job::Sweep(_, _, domains) => (domains.len(), false),
            Job::Interaction(_, _, domains) => (domains.len(), true),
        }
    }

    /// The job's journal shard, named by its kind and plan index.
    fn shard(&self) -> String {
        match *self {
            Job::Sweep(i, spec, _) => format!(
                "collect/openwpm.{i:02}.{}.{}",
                spec.config.country.code().to_ascii_lowercase(),
                corpus_slug(spec.config.corpus),
            ),
            Job::Interaction(i, spec, _) => format!(
                "collect/selenium.{i:02}.{}",
                spec.country.code().to_ascii_lowercase()
            ),
        }
    }
}

/// What one job recorded.
enum Crawled {
    Sweep(CrawlRecord),
    Interactions(Vec<InteractionRecord>),
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
    use redlight_obs::{Registry, Trace};
    use redlight_websim::WorldConfig;

    /// Telemetry that drops spans and counts into a throwaway registry.
    fn no_obs() -> CrawlObs {
        CrawlObs {
            trace: Trace::disabled(),
            metrics: Registry::new(),
            parent: None,
        }
    }

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
        let (db, timings) = plan.execute(&world, corpus, BTreeMap::new(), &top, &no_obs());

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
            let failed = crawl.visits.len() - crawl.success_count();
            assert_eq!(t.failures, failed as u64);
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
        // across entry points and threads). The interaction crawl is
        // longer than every sweep, so the pool starts it first, ahead of
        // its plan position.
        let world = World::build(WorldConfig::tiny(82));
        let corpus = CorpusCompiler::new(&world).compile();
        let long: Vec<String> = corpus
            .sanitized
            .iter()
            .chain(&corpus.reference_regular)
            .cloned()
            .collect();
        assert!(long.len() > corpus.sanitized.len());
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
            interactions: vec![InteractionSpec {
                country: Country::Uk,
                domains: DomainSel::AgeGateTop,
                net: NetProfile::default(),
            }],
        };
        let (db, timings) = plan.execute(&world, corpus.clone(), BTreeMap::new(), &long, &no_obs());
        assert_eq!(timings.len(), 4);
        let direct = OpenWpmCrawler::new(&world, config(Country::Usa)).crawl(&corpus.sanitized);
        let planned = db.crawl(Country::Usa, CorpusLabel::Porn).unwrap();
        assert_eq!(planned.client_ip, direct.client_ip);
        assert_eq!(planned.visits.len(), direct.visits.len());
        for (a, b) in planned.visits.iter().zip(&direct.visits) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.visit.success, b.visit.success);
            assert_eq!(a.visit.requests.len(), b.visit.requests.len());
            assert_eq!(a.visit.dom_html, b.visit.dom_html);
        }

        let direct = SeleniumCrawler::new(&world, Country::Uk).crawl(&long);
        let planned: Vec<_> = db.interactions_in(Country::Uk).collect();
        assert_eq!(planned.len(), long.len());
        assert_eq!(planned.len(), direct.len());
        for (a, b) in planned.into_iter().zip(&direct) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.country, b.country);
            assert_eq!(a.reachable, b.reachable);
            assert_eq!(a.age_gate_detected, b.age_gate_detected);
            assert_eq!(a.age_gate_bypassed, b.age_gate_bypassed);
            assert_eq!(a.social_login_gate, b.social_login_gate);
            assert_eq!(a.policy_url, b.policy_url);
            assert_eq!(a.policy_text, b.policy_text);
            assert_eq!(a.premium_signal, b.premium_signal);
            assert_eq!(a.premium_page, b.premium_page);
        }
    }

    #[test]
    fn pool_queue_takes_the_longest_list_first_and_interactions_at_ties() {
        let list = |n: usize| (0..n).map(|i| format!("site{i}.com")).collect::<Vec<_>>();
        let corpus = CorpusReport {
            sanitized: list(5),
            reference_regular: list(7),
            ..CorpusReport::default()
        };
        let top = list(2);
        let sweep = |country, corpus, domains| CrawlSpec {
            config: CrawlConfig {
                country,
                corpus,
                store_dom: false,
            },
            domains,
            net: NetProfile::default(),
        };
        let interaction = |country, domains| InteractionSpec {
            country,
            domains,
            net: NetProfile::default(),
        };
        let plan = CrawlPlan {
            openwpm: vec![
                sweep(Country::Spain, CorpusLabel::Porn, DomainSel::Porn),
                sweep(Country::Spain, CorpusLabel::Regular, DomainSel::Regular),
                sweep(Country::Usa, CorpusLabel::Porn, DomainSel::Porn),
                sweep(Country::Russia, CorpusLabel::Porn, DomainSel::Porn),
            ],
            interactions: vec![
                interaction(Country::Uk, DomainSel::AgeGateTop),
                interaction(Country::Spain, DomainSel::Porn),
                interaction(Country::Russia, DomainSel::AgeGateTop),
            ],
        };
        let jobs = plan.jobs(&corpus, &top);
        let queue: Vec<String> = crate::parallel::longest_first(&jobs, Job::weight)
            .into_iter()
            .map(|i| jobs[i].shard())
            .collect();
        assert_eq!(
            queue,
            [
                "collect/openwpm.01.es.regular",
                "collect/selenium.01.es",
                "collect/openwpm.00.es.porn",
                "collect/openwpm.02.us.porn",
                "collect/openwpm.03.ru.porn",
                "collect/selenium.00.gb",
                "collect/selenium.02.ru",
            ]
        );
    }
}
