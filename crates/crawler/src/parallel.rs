//! Parallel crawl execution.
//!
//! Crawls are independent browser sessions, so they parallelize cleanly
//! across a crossbeam scoped-thread pool; **within** one crawl the visits
//! stay sequential because the paper keeps a single browser session alive to
//! observe cookie syncing (§3.1) — which also keeps each session's transport
//! stack (meters, fault injectors) deterministic regardless of thread
//! interleaving. Two job shapes exist: [`CrawlJob`] for OpenWPM-style sweeps
//! (heterogeneous country × corpus × store-DOM configurations) and
//! [`InteractionJob`] for Selenium-style interaction crawls. Both report
//! per-job wall times and transport counters for the stage report.

use std::time::{Duration, Instant};

use redlight_net::geoip::Country;
use redlight_net::transport::{NetProfile, TransportStats};
use redlight_obs::{MetricsSnapshot, Registry, SpanLink, Trace, Tracer};
use redlight_websim::World;

use crate::db::{CrawlRecord, InteractionRecord, VisitRollup};
use crate::openwpm::{corpus_slug, CrawlConfig, OpenWpmCrawler};
use crate::selenium::SeleniumCrawler;

/// The telemetry plumbing a batch of crawl jobs records into: each worker
/// gets its own tracer shard (named by job index, so shard names — and the
/// merged journal — never depend on thread scheduling) and its own scratch
/// [`Registry`], whose snapshot is absorbed into `metrics` in job order
/// after the pool joins.
#[derive(Debug, Clone)]
pub struct CrawlObs {
    /// Span collector shared with the study.
    pub trace: Trace,
    /// Study-wide registry worker snapshots fold into.
    pub metrics: Registry,
    /// Span the per-crawl shards hang under (the study's `collect` span).
    pub parent: Option<SpanLink>,
}

impl CrawlObs {
    /// No-op plumbing: spans are dropped and counters land in a throwaway
    /// registry.
    pub fn disabled() -> Self {
        CrawlObs {
            trace: Trace::disabled(),
            metrics: Registry::new(),
            parent: None,
        }
    }
}

/// One OpenWPM-style crawl job: a full crawler configuration plus the
/// domain list it sweeps and the network it runs over.
#[derive(Debug, Clone)]
pub struct CrawlJob<'d> {
    /// Crawler configuration.
    pub config: CrawlConfig,
    /// Domains to sweep.
    pub domains: &'d [String],
    /// Network profile (transport stack + retry policy).
    pub net: NetProfile,
}

/// One executed job's output with its instrumentation.
#[derive(Debug)]
pub struct JobOutcome<R> {
    /// The crawl's records.
    pub output: R,
    /// Wall-clock duration of the whole job.
    pub wall: Duration,
    /// Transport counters, when the job's profile meters.
    pub transport: Option<TransportStats>,
    /// Attempt, retry and failure totals across the job's sites (for
    /// interaction jobs, failures are unreachable sites).
    pub rollup: VisitRollup,
}

/// Runs heterogeneous OpenWPM-style crawl jobs concurrently, returning each
/// record with its instrumentation, in job order. Worker `i` records into
/// the `collect/openwpm.II.<country>.<corpus>` journal shard.
pub fn run_crawl_jobs(
    world: &World,
    jobs: &[CrawlJob<'_>],
    obs: &CrawlObs,
) -> Vec<JobOutcome<CrawlRecord>> {
    run_jobs(
        jobs,
        obs,
        |i, job| {
            format!(
                "collect/openwpm.{i:02}.{}.{}",
                job.config.country.code().to_ascii_lowercase(),
                corpus_slug(job.config.corpus),
            )
        },
        |job, tracer, registry| {
            let (record, transport) = OpenWpmCrawler::new(world, job.config.clone())
                .with_net(job.net.clone())
                .crawl_observed(job.domains, tracer, registry);
            // One pass over the visit column for all three totals.
            let rollup = record.rollup();
            (record, transport, rollup)
        },
    )
}

/// One Selenium-style interaction crawl job.
#[derive(Debug, Clone)]
pub struct InteractionJob<'d> {
    /// Vantage point.
    pub country: Country,
    /// Domains to interact with.
    pub domains: &'d [String],
    /// Network profile (transport stack + retry policy).
    pub net: NetProfile,
}

/// Runs interaction crawl jobs concurrently, returning each country's
/// records with the job's instrumentation, in job order. Worker `i`
/// records into the `collect/selenium.II.<country>` journal shard.
pub fn run_interaction_jobs(
    world: &World,
    jobs: &[InteractionJob<'_>],
    obs: &CrawlObs,
) -> Vec<JobOutcome<Vec<InteractionRecord>>> {
    run_jobs(
        jobs,
        obs,
        |i, job| {
            format!(
                "collect/selenium.{i:02}.{}",
                job.country.code().to_ascii_lowercase()
            )
        },
        |job, tracer, registry| {
            let crawl = SeleniumCrawler::new(world, job.country)
                .with_net(job.net.clone())
                .crawl_observed(job.domains, tracer, registry);
            let rollup = VisitRollup {
                attempts: crawl.attempts,
                retries: crawl.retries,
                failures: crawl.records.iter().filter(|r| !r.reachable).count() as u64,
            };
            (crawl.records, crawl.transport, rollup)
        },
    )
}

/// The job runner behind both job shapes: one scoped thread per job,
/// worker `i` recording into the journal shard `shard(i, job)` and its own
/// registry as [`CrawlObs`] describes. Outcomes return in job order.
fn run_jobs<J: Sync, R: Send>(
    jobs: &[J],
    obs: &CrawlObs,
    shard: impl Fn(usize, &J) -> String + Sync,
    crawl: impl Fn(&J, &mut Tracer, &Registry) -> (R, Option<TransportStats>, VisitRollup) + Sync,
) -> Vec<JobOutcome<R>> {
    let (shard, crawl) = (&shard, &crawl);
    let finished: Vec<(JobOutcome<R>, MetricsSnapshot)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                scope.spawn(move |_| {
                    let name = shard(i, job);
                    let mut tracer = match obs.parent.clone() {
                        Some(parent) => obs.trace.tracer_under(&name, parent),
                        None => obs.trace.tracer(&name),
                    };
                    let registry = Registry::new();
                    let start = Instant::now();
                    let (output, transport, rollup) = crawl(job, &mut tracer, &registry);
                    tracer.finish();
                    let outcome = JobOutcome {
                        output,
                        wall: start.elapsed(),
                        transport,
                        rollup,
                    };
                    (outcome, registry.snapshot())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("crawl thread panicked"))
            .collect()
    })
    .expect("crossbeam scope");

    finished
        .into_iter()
        .map(|(outcome, snapshot)| {
            obs.metrics.absorb(&snapshot);
            outcome
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusCompiler;
    use crate::db::CorpusLabel;
    use redlight_websim::WorldConfig;

    /// One OpenWPM-style crawl per country over a default network, records
    /// in `countries` order; DOM kept only for `store_dom_for`.
    fn crawl_countries(
        world: &World,
        domains: &[String],
        countries: &[Country],
        corpus: CorpusLabel,
        store_dom_for: &[Country],
    ) -> Vec<CrawlRecord> {
        let jobs: Vec<CrawlJob<'_>> = countries
            .iter()
            .map(|&country| CrawlJob {
                config: CrawlConfig {
                    country,
                    corpus,
                    store_dom: store_dom_for.contains(&country),
                },
                domains,
                net: NetProfile::default(),
            })
            .collect();
        run_crawl_jobs(world, &jobs, &CrawlObs::disabled())
            .into_iter()
            .map(|job| job.output)
            .collect()
    }

    #[test]
    fn parallel_crawls_match_sequential() {
        let world = World::build(WorldConfig::tiny(61));
        let corpus = CorpusCompiler::new(&world).compile();
        let domains: Vec<String> = corpus.sanitized.iter().take(12).cloned().collect();
        let countries = [Country::Spain, Country::Usa, Country::Russia];

        let parallel = crawl_countries(
            &world,
            &domains,
            &countries,
            CorpusLabel::Porn,
            &[Country::Spain],
        );
        assert_eq!(parallel.len(), 3);
        assert_eq!(parallel[0].country, Country::Spain);

        // Sequential rerun of one country must agree request-for-request.
        let sequential = OpenWpmCrawler::new(
            &world,
            CrawlConfig {
                country: Country::Usa,
                corpus: CorpusLabel::Porn,
                store_dom: false,
            },
        )
        .crawl(&domains);
        let par_usa = &parallel[1];
        assert_eq!(par_usa.visits.len(), sequential.visits.len());
        for (a, b) in par_usa.visits.iter().zip(&sequential.visits) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.visit.requests.len(), b.visit.requests.len());
            assert_eq!(a.visit.success, b.visit.success);
        }
    }

    #[test]
    fn dom_retention_respects_country_list() {
        let world = World::build(WorldConfig::tiny(62));
        let corpus = CorpusCompiler::new(&world).compile();
        let domains: Vec<String> = corpus.sanitized.iter().take(6).cloned().collect();
        let records = crawl_countries(
            &world,
            &domains,
            &[Country::Spain, Country::India],
            CorpusLabel::Porn,
            &[Country::Spain],
        );
        assert!(records[0]
            .visits
            .iter()
            .any(|v| !v.visit.dom_html.is_empty()));
        assert!(records[1]
            .visits
            .iter()
            .all(|v| v.visit.dom_html.is_empty()));
    }

    #[test]
    fn heterogeneous_jobs_keep_order_and_report_timings() {
        let world = World::build(WorldConfig::tiny(63));
        let corpus = CorpusCompiler::new(&world).compile();
        let porn: Vec<String> = corpus.sanitized.iter().take(5).cloned().collect();
        let regular: Vec<String> = corpus.reference_regular.iter().take(5).cloned().collect();

        let jobs = [
            CrawlJob {
                config: CrawlConfig {
                    country: Country::Spain,
                    corpus: CorpusLabel::Porn,
                    store_dom: true,
                },
                domains: &porn,
                net: NetProfile::default(),
            },
            CrawlJob {
                config: CrawlConfig {
                    country: Country::Spain,
                    corpus: CorpusLabel::Regular,
                    store_dom: false,
                },
                domains: &regular,
                net: NetProfile::default(),
            },
        ];
        let results = run_crawl_jobs(&world, &jobs, &CrawlObs::disabled());
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].output.corpus, CorpusLabel::Porn);
        assert_eq!(results[1].output.corpus, CorpusLabel::Regular);
        assert_eq!(results[0].output.visits.len(), porn.len());
        assert_eq!(results[1].output.visits.len(), regular.len());
        assert!(results.iter().all(|job| job.wall > Duration::ZERO));
        // The default profile meters: the transport saw every request the
        // visits recorded (and the redirect hops inside them).
        for job in &results {
            let stats = job.transport.as_ref().expect("default profile meters");
            let recorded: u64 = job
                .output
                .visits
                .iter()
                .map(|v| v.visit.requests.len() as u64)
                .sum();
            assert_eq!(stats.requests, recorded);
            assert_eq!(job.rollup.attempts, job.output.visits.len() as u64);
            assert_eq!(job.rollup.retries, 0);
        }

        let interactions = run_interaction_jobs(
            &world,
            &[InteractionJob {
                country: Country::Usa,
                domains: &porn,
                net: NetProfile::default(),
            }],
            &CrawlObs::disabled(),
        );
        assert_eq!(interactions.len(), 1);
        assert_eq!(interactions[0].output.len(), porn.len());
        assert!(interactions[0]
            .output
            .iter()
            .all(|r| r.country == Country::Usa));
        assert!(interactions[0].transport.as_ref().unwrap().requests > 0);
    }
}
