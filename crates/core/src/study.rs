//! The end-to-end pipeline driver: plan the crawls, collect the
//! measurement database, run the analysis stages, assemble the results.
//!
//! The pipeline has three layers:
//!
//! 1. **Collection** — `StudyConfig::crawl_plan` derives a
//!    [`CrawlPlan`] (countries × corpora × store-DOM flags plus the
//!    Selenium interaction crawls) and [`Study::collect_db`] executes it,
//!    recording *every* crawl into a [`MeasurementDb`].
//! 2. **Analysis** — [`crate::stages`] derives the shared
//!    [`AnalysisContext`](crate::stages::AnalysisContext) and runs the
//!    named stages over the DB, independent stages concurrently.
//! 3. **Reporting** — per-crawl and per-stage timings land in a
//!    [`StageReport`](crate::results::StageReport) inside
//!    [`StudyResults`].
//!
//! [`Study::collect_db`] is the literal first half of [`Study::run_on`]:
//! downstream consumers that only want the raw tables call it and stop.

use std::collections::{BTreeMap, BTreeSet};

use redlight_crawler::corpus::CorpusCompiler;
use redlight_crawler::db::{CorpusLabel, MeasurementDb};
use redlight_crawler::openwpm::CrawlConfig;
use redlight_crawler::parallel::CrawlObs;
use redlight_crawler::plan::{CrawlPlan, CrawlSpec, CrawlTiming, DomainSel, InteractionSpec};
use redlight_net::geoip::Country;
use redlight_net::transport::NetProfile;
use redlight_obs::ObsContext;
use redlight_rankings::RankHistory;
use redlight_websim::{World, WorldConfig};

use crate::results::{StageReport, StudyResults};
use crate::stages::{self, AnalysisContext, StageObs, StageOutputs, GATE_COUNTRIES};

/// Study parameters.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// World.
    pub world: WorldConfig,
    /// Countries to crawl (Spain is mandatory; the paper uses six).
    pub countries: Vec<Country>,
    /// Size of the manually studied most-popular subset for age gates
    /// (50 in the paper; scaled for smaller worlds).
    pub(crate) agegate_top_n: usize,
    /// Sampling target for the §7.3 similarity sweep: every
    /// `⌊pairs / max_policy_pairs⌋`-th policy pair is examined. The floored
    /// stride makes it a target, not a cap: all pairs are examined below
    /// twice this many, so a sweep can examine nearly twice the target.
    pub(crate) max_policy_pairs: usize,
    /// Network profile every crawl runs over: transport stack (metered,
    /// optionally fault-injecting) plus the visit retry policy. The default
    /// injects nothing, so results stay byte-identical to a direct run.
    pub net: NetProfile,
}

impl StudyConfig {
    /// Paper-scale study (slow: six full crawls).
    pub fn paper_scale(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::paper_scale(seed),
            countries: Country::ALL.to_vec(),
            agegate_top_n: 50,
            max_policy_pairs: 1_300_000,
            net: NetProfile::default(),
        }
    }

    /// A ~20× smaller study for tests, examples and benches.
    pub fn small(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::small(seed),
            countries: Country::ALL.to_vec(),
            agegate_top_n: 12,
            max_policy_pairs: 40_000,
            net: NetProfile::default(),
        }
    }

    /// Tiny smoke-test study.
    pub fn tiny(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::tiny(seed),
            countries: vec![Country::Spain, Country::Usa, Country::Russia],
            agegate_top_n: 8,
            max_policy_pairs: 5_000,
            net: NetProfile::default(),
        }
    }

    /// Every crawl the study performs, as data.
    ///
    /// * OpenWPM: the main Spanish porn crawl (DOM retained for banner
    ///   analysis) + the Spanish regular reference crawl, then one porn
    ///   crawl per remaining geo-sweep country — the USA keeps its DOM
    ///   for Table 8's EU-vs-USA comparison, the rest are summary-only.
    /// * Selenium: the full-corpus Spanish interaction crawl (§7.3/§4.1)
    ///   plus the §7.2 age-gate crawls of the top-N set from the other
    ///   [`GATE_COUNTRIES`].
    pub(crate) fn crawl_plan(&self) -> CrawlPlan {
        let mut openwpm = vec![
            CrawlSpec {
                config: CrawlConfig {
                    country: Country::Spain,
                    corpus: CorpusLabel::Porn,
                    store_dom: true,
                },
                domains: DomainSel::Porn,
                net: self.net.clone(),
            },
            CrawlSpec {
                config: CrawlConfig {
                    country: Country::Spain,
                    corpus: CorpusLabel::Regular,
                    store_dom: false,
                },
                domains: DomainSel::Regular,
                net: self.net.clone(),
            },
        ];
        for &country in self.countries.iter().filter(|c| **c != Country::Spain) {
            openwpm.push(CrawlSpec {
                config: CrawlConfig {
                    country,
                    corpus: CorpusLabel::Porn,
                    store_dom: country == Country::Usa,
                },
                domains: DomainSel::Porn,
                net: self.net.clone(),
            });
        }

        let mut interactions = vec![InteractionSpec {
            country: Country::Spain,
            domains: DomainSel::Porn,
            net: self.net.clone(),
        }];
        for country in GATE_COUNTRIES {
            if country != Country::Spain {
                interactions.push(InteractionSpec {
                    country,
                    domains: DomainSel::AgeGateTop,
                    net: self.net.clone(),
                });
            }
        }

        CrawlPlan {
            openwpm,
            interactions,
        }
    }
}

/// The study driver.
pub struct Study;

impl Study {
    /// The collection layer: compiles the corpus, derives the crawl plan
    /// and executes it, recording every OpenWPM and Selenium crawl (the
    /// OpenWPM-SQLite stand-in) with per-crawl wall times, next to the
    /// corpus and its rank histories. This is the literal first half of
    /// [`Study::run_on`]; downstream consumers that want to run their own
    /// analyses call it and read the tables.
    pub fn collect_db(world: &World, config: &StudyConfig) -> (MeasurementDb, Vec<CrawlTiming>) {
        Self::collect_db_observed(world, config, &ObsContext::disabled())
    }

    /// [`collect_db`](Self::collect_db) with telemetry: records a `collect`
    /// root span (one `corpus.compile` child, then per-crawl subtrees in
    /// per-crawl shards) into `obs.trace` and publishes every transport
    /// and crawl counter into `obs.metrics`. The db and timings are
    /// byte-identical to the unobserved path.
    pub fn collect_db_observed(
        world: &World,
        config: &StudyConfig,
        obs: &ObsContext,
    ) -> (MeasurementDb, Vec<CrawlTiming>) {
        let mut tracer = obs.trace.tracer("collect");
        tracer.open("collect");

        tracer.open("corpus.compile");
        let corpus = CorpusCompiler::new(world).compile();
        let mut histories = world.rank_histories();
        let rank_histories: BTreeMap<String, RankHistory> = corpus
            .sanitized
            .iter()
            .filter_map(|d| histories.remove_entry(d))
            .collect();
        let (_, ranked) = stages::rank_by_best(&rank_histories, &corpus.sanitized);
        let top: Vec<String> = ranked.into_iter().take(config.agegate_top_n).collect();
        tracer.attr("candidates", corpus.candidates.len());
        tracer.attr("sanitized", corpus.sanitized.len());
        tracer.close();

        let crawl_obs = CrawlObs {
            trace: obs.trace.clone(),
            metrics: obs.metrics.clone(),
            parent: tracer.link(),
        };
        let plan = config.crawl_plan();
        let (db, timings) = plan.execute(world, corpus, rank_histories, &top, &crawl_obs);
        tracer.attr("crawls", timings.len());
        tracer.close();
        tracer.finish();
        (db, timings)
    }

    /// Runs the full pipeline and returns every table/figure.
    pub fn run(config: StudyConfig) -> StudyResults {
        let world = World::build(config.world.clone());
        Self::run_on(&world, &config)
    }

    /// Runs the pipeline on an existing world (lets callers keep the world
    /// for validation against ground truth).
    pub fn run_on(world: &World, config: &StudyConfig) -> StudyResults {
        Self::run_on_observed(world, config, &ObsContext::disabled())
    }

    /// [`run_on`](Self::run_on) with telemetry: the collection layer
    /// journals under a `collect` root span, the analysis layer under an
    /// `analyze` root (see [`analyze`](Self::analyze)), and every
    /// transport/cache/stage counter lands in `obs.metrics`. Results are
    /// byte-identical to [`run_on`](Self::run_on).
    pub fn run_on_observed(world: &World, config: &StudyConfig, obs: &ObsContext) -> StudyResults {
        // Layer 1: collect every crawl into the measurement DB.
        let (db, crawl_timings) = Self::collect_db_observed(world, config, obs);
        // Layer 2: derive shared artifacts, then run all analysis stages.
        let (outputs, mut report, best_ranks) =
            Self::analyze(world, config, &db, &stages::all_stages(), obs);
        // Layer 3: assemble results with the instrumentation report.
        report.crawls = crawl_timings;
        outputs.into_results(best_ranks, report)
    }

    /// The analysis layer over a collected DB: derives the shared
    /// [`AnalysisContext`] and runs the `selected` stages. Journals an
    /// `analyze` root span with one `context.build` child and one
    /// `stage.<name>` span per selected stage, and publishes every cache and
    /// stage counter into `obs.metrics`.
    ///
    /// Returns the stage outputs, a [`StageReport`] with the stage timings
    /// (its `crawls` left empty for the caller), and the best-rank map
    /// [`StageOutputs::into_results`] takes.
    pub fn analyze(
        world: &World,
        config: &StudyConfig,
        db: &MeasurementDb,
        selected: &BTreeSet<&'static str>,
        obs: &ObsContext,
    ) -> (StageOutputs, StageReport, BTreeMap<String, u32>) {
        let mut tracer = obs.trace.tracer("analyze");
        tracer.open("analyze");
        tracer.open("context.build");
        let ctx = AnalysisContext::build_sharded_in(world, config, db, &obs.metrics, 1);
        tracer.attr("corpus_sanitized", ctx.corpus.sanitized.len());
        tracer.close();
        let stage_obs = StageObs {
            trace: &obs.trace,
            metrics: &obs.metrics,
            parent: tracer.link(),
        };
        let (outputs, stage_timings) = stages::run_observed(db, &ctx, selected, &stage_obs);
        tracer.attr("stages", stage_timings.len());
        tracer.close();
        tracer.finish();

        let report = StageReport {
            crawls: Vec::new(),
            stages: stage_timings,
        };
        (outputs, report, ctx.best_ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_db_gathers_every_planned_crawl() {
        let world = World::build(WorldConfig::tiny(5));
        let config = StudyConfig::tiny(5);
        let (db, timings) = Study::collect_db(&world, &config);

        // tiny plan: Spain porn+regular, USA porn, Russia porn.
        assert_eq!(db.crawls().len(), 4);
        assert_eq!(
            db.countries(),
            vec![Country::Usa, Country::Spain, Country::Russia]
        );
        assert!(db
            .crawl(Country::Spain, CorpusLabel::Porn)
            .is_some_and(|c| c.success_count() > 0 && !c.visits[0].visit.dom_html.is_empty()));
        assert!(db
            .crawl(Country::Spain, CorpusLabel::Regular)
            .is_some_and(|c| c.success_count() > 0));
        assert!(db
            .crawl(Country::Russia, CorpusLabel::Porn)
            .is_some_and(|c| c.visits[0].visit.dom_html.is_empty()));

        // Interaction crawls: Spain full corpus + the other gate countries.
        assert!(!db.interactions().is_empty());
        for country in GATE_COUNTRIES {
            assert!(
                db.interactions_in(country).count() > 0,
                "{country:?} gate crawl recorded"
            );
        }

        // One timing per crawl: 4 OpenWPM + 4 Selenium.
        assert_eq!(timings.len(), 8);
        assert!(timings.iter().all(|t| t.sites > 0));
    }

    #[test]
    fn tiny_study_runs_end_to_end() {
        let results = Study::run(StudyConfig::tiny(2024));
        assert!(results.corpus.sanitized > 0);
        assert!(results.table2.porn_third_party > 0);
        assert!(!results.fig3_porn.is_empty());
        assert!(results.cookie_stats.total_cookies > 0);
        assert_eq!(results.table7.rows.len(), 3);
        assert!(results.policies.with_policy > 0);
        // The instrumentation rides along: every crawl and stage timed.
        assert_eq!(results.stage_report.crawls.len(), 8);
        assert_eq!(results.stage_report.stages.len(), stages::STAGES.len());
    }
}
