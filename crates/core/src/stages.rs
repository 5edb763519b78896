//! The analysis layer: named stages over the measurement database.
//!
//! Every analysis of the paper is a *stage* — a named unit that consumes
//! only the [`MeasurementDb`] plus the shared [`AnalysisContext`] and
//! produces one table/figure bundle. Stages with no dependency on another
//! stage's output run concurrently on a crossbeam scope (wave A); the
//! three dependent stages run in two follow-up waves:
//!
//! * `fingerprinting` needs `webrtc` (Table 5 merges both script sets);
//! * `ownership` needs `policies` (it clusters the policy texts with the
//!   TF-IDF model `policies` fitted);
//! * `disclosure` needs `fingerprinting` + `policies` (the Polisis pass
//!   ranks sites by observed tracking and reads their policies).
//!
//! Each stage reports wall time and input/output record counts through a
//! [`StageTiming`], and a subset of stages can be run with
//! [`run`] + [`expand_selection`] (dependencies are pulled in
//! automatically) — this is what `reproduce --stage <name>` drives.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::time::Instant;

use crossbeam::thread::ScopedJoinHandle;
use redlight_analysis::agegate::AgeGateComparison;
use redlight_analysis::ats::AtsClassifier;
use redlight_analysis::consent::BannerBreakdown;
use redlight_analysis::cookies::{CookieRow, CookieStats, Table4Row};
use redlight_analysis::fingerprint::{FingerprintReport, Table5Row};
use redlight_analysis::geo::{GeoMalware, Table7};
use redlight_analysis::https::HttpsReport;
use redlight_analysis::malware::MalwareReport;
use redlight_analysis::monetization::MonetizationReport;
use redlight_analysis::orgs::{AttributionStats, CertHarvest, OrgPrevalence};
use redlight_analysis::owners::OwnershipReport;
use redlight_analysis::policies::{PolicyDoc, PolicyReport};
use redlight_analysis::popularity::{Fig1, Table3};
use redlight_analysis::sync::{SyncOptions, SyncReport};
use redlight_analysis::thirdparty::ThirdPartyExtract;
use redlight_analysis::util::reg;
use redlight_analysis::webrtc::WebRtcReport;
use redlight_analysis::{
    agegate, ats, consent, cookies, fingerprint, geo, https, malware, monetization, orgs, owners,
    policies, popularity, sync, thirdparty, webrtc,
};
use redlight_crawler::corpus::CorpusReport;
use redlight_crawler::db::{CorpusLabel, CrawlRecord, InteractionRecord, MeasurementDb};
use redlight_net::geoip::Country;
use redlight_obs::{Registry, SpanLink, Trace};
use redlight_rankings::{PopularityTier, RankHistory};
use redlight_text::tfidf::TfIdfModel;
use redlight_websim::oracle::InspectionOracle;
use redlight_websim::World;

use crate::results::{CacheCounter, CorpusSummary, StageReport, StageTiming, StudyResults};
use crate::study::StudyConfig;
use crate::WorldThreatFeed;

/// §3 corpus-compilation summary.
pub const CORPUS_SUMMARY: &str = "corpus-summary";
/// Fig. 1 + Table 3 (rank stability and tier presence).
pub const POPULARITY: &str = "popularity";
/// Table 2 (first/third-party domains).
pub const THIRD_PARTIES: &str = "third-parties";
/// Fig. 3 + §4.2(3) attribution.
pub const ORGANIZATIONS: &str = "organizations";
/// §5.1.1 + Table 4.
pub const COOKIES: &str = "cookies";
/// §5.1.2 / Fig. 4.
pub const COOKIE_SYNC: &str = "cookie-sync";
/// §5.1.4.
pub const WEBRTC: &str = "webrtc";
/// §5.1.3 + Table 5.
pub const FINGERPRINTING: &str = "fingerprinting";
/// §5.2 / Table 6.
pub const HTTPS: &str = "https";
/// §5.3.
pub const MALWARE: &str = "malware";
/// §6 / Table 7 (geo sweep comparison).
pub const GEO: &str = "geo";
/// §7.1 / Table 8.
pub const CONSENT_BANNERS: &str = "consent-banners";
/// §7.3 policy collection + similarity sweep.
pub const POLICIES: &str = "policies";
/// §4.1 / Table 1.
pub const OWNERSHIP: &str = "ownership";
/// §4.1 monetization.
pub const MONETIZATION: &str = "monetization";
/// §7.2 age verification.
pub const AGE_GATES: &str = "age-gates";
/// §7.3 Polisis-style disclosure check.
pub const DISCLOSURE: &str = "disclosure";

/// Every stage, in paper order.
pub const STAGES: [&str; 17] = [
    CORPUS_SUMMARY,
    POPULARITY,
    THIRD_PARTIES,
    ORGANIZATIONS,
    COOKIES,
    COOKIE_SYNC,
    WEBRTC,
    FINGERPRINTING,
    HTTPS,
    MALWARE,
    GEO,
    CONSENT_BANNERS,
    POLICIES,
    OWNERSHIP,
    MONETIZATION,
    AGE_GATES,
    DISCLOSURE,
];

/// The countries whose interaction crawls feed the §7.2 age-gate
/// comparison (fixed by the paper, independent of the geo-sweep list).
pub const GATE_COUNTRIES: [Country; 4] =
    [Country::Usa, Country::Uk, Country::Spain, Country::Russia];

/// Stages whose outputs `stage` consumes.
pub fn dependencies(stage: &str) -> &'static [&'static str] {
    match stage {
        FINGERPRINTING => &[WEBRTC],
        OWNERSHIP => &[POLICIES],
        DISCLOSURE => &[FINGERPRINTING, POLICIES],
        _ => &[],
    }
}

/// Resolves user-requested stage names to the closed set including every
/// transitive dependency. Errors on unknown names.
pub fn expand_selection(requested: &[String]) -> Result<BTreeSet<&'static str>, String> {
    let mut queue: Vec<&'static str> = Vec::new();
    for name in requested {
        let canon = STAGES.iter().copied().find(|s| s == name).ok_or_else(|| {
            format!(
                "unknown stage '{name}'; expected one of: {}",
                STAGES.join(", ")
            )
        })?;
        queue.push(canon);
    }
    let mut selected = BTreeSet::new();
    while let Some(stage) = queue.pop() {
        if selected.insert(stage) {
            queue.extend(dependencies(stage));
        }
    }
    Ok(selected)
}

/// The full stage set.
pub fn all_stages() -> BTreeSet<&'static str> {
    STAGES.iter().copied().collect()
}

/// Each ranked domain's best 2018 rank, and `sanitized` sorted by it
/// (domains never ranked go last, in corpus order).
pub(crate) fn rank_by_best(
    histories: &BTreeMap<String, RankHistory>,
    sanitized: &[String],
) -> (BTreeMap<String, u32>, Vec<String>) {
    let best_ranks: BTreeMap<String, u32> = histories
        .iter()
        .filter_map(|(d, h)| h.best().map(|b| (d.clone(), b)))
        .collect();
    let mut ranked: Vec<String> = sanitized.to_vec();
    ranked.sort_by_key(|d| best_ranks.get(d).copied().unwrap_or(u32::MAX));
    (best_ranks, ranked)
}

/// Shared derived artifacts every stage can read. Built once per run from
/// the world and the measurement DB; stages receive `(&MeasurementDb,
/// &AnalysisContext)` and nothing else.
pub struct AnalysisContext<'a> {
    /// The simulated web (ground-truth oracles, blocklists, WHOIS…).
    pub world: &'a World,
    /// Geo-sweep countries, Spain first (Table 7 row order).
    pub countries: Vec<Country>,
    /// Size of the §7.2 manually studied most-popular subset.
    pub agegate_top_n: usize,
    /// Sampling target for the §7.3 policy pairs
    /// ([`StudyConfig::max_policy_pairs`]).
    pub max_policy_pairs: usize,
    /// §3 corpus compilation, as collection recorded it in the DB.
    pub corpus: &'a CorpusReport,
    /// Rank histories of the sanitized corpus, from the DB.
    pub porn_histories: &'a BTreeMap<String, RankHistory>,
    /// Per-domain popularity tier.
    pub tier_of: BTreeMap<String, PopularityTier>,
    /// Per-domain best 2018 rank.
    pub best_ranks: BTreeMap<String, u32>,
    /// The sanitized corpus sorted by best rank.
    pub ranked: Vec<String>,
    /// The top-N most popular porn sites (§7.2 subset).
    pub top: Vec<String>,
    /// EasyList + EasyPrivacy classifier. Stages classify on demand; the
    /// context build classifies nothing.
    pub classifier: AtsClassifier,
    /// Certificates harvested once from the main crawls (plus the
    /// out-of-band TLS probe), shared by the organizations stage.
    pub cert_harvest: CertHarvest,
    /// The main Spanish porn crawl.
    pub porn_es: &'a CrawlRecord,
    /// The Spanish regular-corpus reference crawl.
    pub regular_es: &'a CrawlRecord,
    /// Third-party extraction of the Spanish porn crawl.
    pub porn_extract: ThirdPartyExtract,
    /// Third-party extraction of the regular reference crawl.
    pub regular_extract: ThirdPartyExtract,
    /// All cookie rows of the Spanish porn crawl.
    pub cookie_rows: Vec<CookieRow>,
    /// The Spanish interaction crawl (full corpus).
    pub interactions_es: Vec<InteractionRecord>,
    /// The Spanish vantage point's public IP, as recorded by the crawl —
    /// what server-side trackers embed in cookies.
    pub client_ip: Ipv4Addr,
}

impl<'a> AnalysisContext<'a> {
    /// Derives the shared artifacts from a collected DB. Each artifact that
    /// reads a crawl (third-party extracts, cookie rows, cert harvest) is
    /// one whole-crawl scan, as is every stage's own read of a crawl.
    ///
    /// `shards` is accepted and ignored. The benchmark of record
    /// (`perfbench/`) is the only caller that passes more than 1, and the
    /// argument goes when that benchmark changes.
    ///
    /// Panics if the DB lacks the Spanish porn/regular crawls — the plan
    /// produced by [`StudyConfig::crawl_plan`] always records them.
    pub fn build_sharded(
        world: &'a World,
        config: &StudyConfig,
        db: &'a MeasurementDb,
        shards: usize,
    ) -> Self {
        Self::build_sharded_in(world, config, db, &Registry::new(), shards)
    }

    /// [`build_sharded`](Self::build_sharded) with the cert harvest
    /// publishing its hit/miss counters as `cache.cert-harvest.{hits,misses}`
    /// into `registry`. The corpus and its rank histories are the DB's own:
    /// the build compiles nothing, and scans each crawl it reads once.
    /// `_shards` is ignored, as in [`build_sharded`](Self::build_sharded).
    pub fn build_sharded_in(
        world: &'a World,
        config: &StudyConfig,
        db: &'a MeasurementDb,
        registry: &Registry,
        _shards: usize,
    ) -> Self {
        let corpus = db.corpus();
        let porn_histories = db.rank_histories();
        let (best_ranks, ranked) = rank_by_best(porn_histories, &corpus.sanitized);
        let tier_of = popularity::tiers_from_histories(porn_histories);
        let top: Vec<String> = ranked.iter().take(config.agegate_top_n).cloned().collect();

        let porn_es = db
            .crawl(Country::Spain, CorpusLabel::Porn)
            .expect("Spanish porn crawl recorded");
        let regular_es = db
            .crawl(Country::Spain, CorpusLabel::Regular)
            .expect("Spanish regular crawl recorded");
        let classifier = AtsClassifier::from_lists(&world.easylist, &world.easyprivacy);
        // Out-of-band TLS probe: connect to port 443 of any contacted FQDN
        // and read its certificate (what the paper's §4.2(3) pipeline did).
        let probe = |host: &str| -> Option<redlight_net::tls::CertSummary> {
            world.resolve_host(host)?;
            Some((&world.cert_for_host(host)).into())
        };
        // The four whole-crawl passes read only the DB and the world, so
        // they run concurrently, one scan per crawl.
        let (porn_extract, regular_extract, cookie_rows, cert_harvest) =
            crossbeam::thread::scope(|s| {
                let porn = s.spawn(|_| thirdparty::extract(porn_es, true));
                let regular = s.spawn(|_| thirdparty::extract(regular_es, true));
                let rows = s.spawn(|_| cookies::collect(porn_es));
                let certs = CertHarvest::collect_in(&[porn_es, regular_es], Some(&probe), registry);
                (
                    porn.join().expect("porn extract thread"),
                    regular.join().expect("regular extract thread"),
                    rows.join().expect("cookie rows thread"),
                    certs,
                )
            })
            .expect("context build scope");
        let interactions_es: Vec<InteractionRecord> =
            db.interactions_in(Country::Spain).cloned().collect();
        let client_ip = porn_es.client_ip;

        AnalysisContext {
            world,
            countries: config.countries.clone(),
            agegate_top_n: config.agegate_top_n,
            max_policy_pairs: config.max_policy_pairs,
            corpus,
            porn_histories,
            tier_of,
            best_ranks,
            ranked,
            top,
            classifier,
            cert_harvest,
            porn_es,
            regular_es,
            porn_extract,
            regular_extract,
            cookie_rows,
            interactions_es,
            client_ip,
        }
    }

    /// Hit/miss counters of the context's shared caches. It keeps none, so
    /// the list is empty. The benchmark of record (`perfbench/`) is its
    /// only caller and reads it for its `cache.<name>.hit_ratio` rows.
    pub fn cache_counters(&self) -> Vec<CacheCounter> {
        Vec::new()
    }
}

/// Stage outputs, one optional slot per stage — `None` when the stage was
/// not selected. A full run fills every slot.
#[derive(Debug, Default)]
pub struct StageOutputs {
    /// [`CORPUS_SUMMARY`].
    pub corpus_summary: Option<CorpusSummary>,
    /// [`POPULARITY`]: Fig. 1 + Table 3.
    pub popularity: Option<(Fig1, Table3)>,
    /// [`THIRD_PARTIES`]: Table 2.
    pub third_parties: Option<ats::Table2>,
    /// [`ORGANIZATIONS`]: attribution coverage + both Fig. 3 sides.
    pub organizations: Option<(AttributionStats, Vec<OrgPrevalence>, Vec<OrgPrevalence>)>,
    /// [`COOKIES`]: §5.1.1 stats + Table 4.
    pub cookies: Option<(CookieStats, Vec<Table4Row>)>,
    /// [`COOKIE_SYNC`].
    pub cookie_sync: Option<SyncReport>,
    /// [`WEBRTC`].
    pub webrtc: Option<WebRtcReport>,
    /// [`FINGERPRINTING`]: §5.1.3 report + Table 5.
    pub fingerprinting: Option<(FingerprintReport, Vec<Table5Row>)>,
    /// [`HTTPS`]: Table 6.
    pub https: Option<HttpsReport>,
    /// [`MALWARE`].
    pub malware: Option<MalwareReport>,
    /// [`GEO`]: Table 7 + §6.2 malware comparison.
    pub geo: Option<(Table7, GeoMalware)>,
    /// [`CONSENT_BANNERS`]: EU and USA breakdowns.
    pub consent_banners: Option<(BannerBreakdown, BannerBreakdown)>,
    /// [`POLICIES`]: fetched docs, the TF-IDF model fitted on them (which
    /// [`OWNERSHIP`] clusters with) + §7.3 report.
    pub policies: Option<(Vec<PolicyDoc>, TfIdfModel, PolicyReport)>,
    /// [`OWNERSHIP`]: Table 1.
    pub ownership: Option<OwnershipReport>,
    /// [`MONETIZATION`].
    pub monetization: Option<MonetizationReport>,
    /// [`AGE_GATES`].
    pub age_gates: Option<AgeGateComparison>,
    /// [`DISCLOSURE`]: `(checked, disclosing, full list)`.
    pub disclosure: Option<(usize, usize, usize)>,
}

impl StageOutputs {
    /// Assembles a full run into [`StudyResults`]. Panics if any stage was
    /// skipped — only call after running [`all_stages`].
    pub fn into_results(
        self,
        best_ranks: BTreeMap<String, u32>,
        stage_report: StageReport,
    ) -> StudyResults {
        let (fig1, table3) = self.popularity.expect("popularity stage ran");
        let (attribution, fig3_porn, fig3_regular) =
            self.organizations.expect("organizations stage ran");
        let (cookie_stats, table4) = self.cookies.expect("cookies stage ran");
        let (fingerprint, table5) = self.fingerprinting.expect("fingerprinting stage ran");
        let (table7, geo_malware) = self.geo.expect("geo stage ran");
        let (banners_eu, banners_usa) = self.consent_banners.expect("consent-banners stage ran");
        let (_docs, _model, policy_report) = self.policies.expect("policies stage ran");
        StudyResults {
            corpus: self.corpus_summary.expect("corpus-summary stage ran"),
            fig1,
            ownership: self.ownership.expect("ownership stage ran"),
            monetization: self.monetization.expect("monetization stage ran"),
            table2: self.third_parties.expect("third-parties stage ran"),
            table3,
            fig3_porn,
            fig3_regular,
            attribution,
            cookie_stats,
            table4,
            sync: self.cookie_sync.expect("cookie-sync stage ran"),
            fingerprint,
            webrtc: self.webrtc.expect("webrtc stage ran"),
            table5,
            https: self.https.expect("https stage ran"),
            malware: self.malware.expect("malware stage ran"),
            table7,
            geo_malware,
            banners_eu,
            banners_usa,
            agegates: self.age_gates.expect("age-gates stage ran"),
            policies: policy_report,
            disclosure_check: self.disclosure.expect("disclosure stage ran"),
            best_ranks,
            stage_report,
        }
    }

    /// One-line summaries of every stage that ran, in paper order (what
    /// `reproduce --stage` prints).
    pub fn summaries(&self) -> Vec<(&'static str, String)> {
        let mut out = Vec::new();
        if let Some(c) = &self.corpus_summary {
            out.push((
                CORPUS_SUMMARY,
                format!("{} sanitized of {} candidates", c.sanitized, c.candidates),
            ));
        }
        if let Some((fig1, t3)) = &self.popularity {
            out.push((
                POPULARITY,
                format!(
                    "{} fig. 1 points, {} tier rows",
                    fig1.points.len(),
                    t3.rows.len()
                ),
            ));
        }
        if let Some(t2) = &self.third_parties {
            out.push((
                THIRD_PARTIES,
                format!(
                    "{} porn / {} regular third parties",
                    t2.porn_third_party, t2.regular_third_party
                ),
            ));
        }
        if let Some((stats, porn, _)) = &self.organizations {
            out.push((
                ORGANIZATIONS,
                format!(
                    "{} organizations, {} prevalence rows",
                    stats.companies,
                    porn.len()
                ),
            ));
        }
        if let Some((stats, t4)) = &self.cookies {
            out.push((
                COOKIES,
                format!("{} cookies, {} Table 4 rows", stats.total_cookies, t4.len()),
            ));
        }
        if let Some(s) = &self.cookie_sync {
            out.push((
                COOKIE_SYNC,
                format!("{} pairs on {} sites", s.pairs.len(), s.sites_with_sync),
            ));
        }
        if let Some(r) = &self.webrtc {
            out.push((
                WEBRTC,
                format!("{} scripts on {} sites", r.scripts.len(), r.sites.len()),
            ));
        }
        if let Some((fp, t5)) = &self.fingerprinting {
            out.push((
                FINGERPRINTING,
                format!(
                    "{} canvas scripts on {} sites, {} Table 5 rows",
                    fp.canvas_scripts.len(),
                    fp.canvas_sites.len(),
                    t5.len()
                ),
            ));
        }
        if let Some(h) = &self.https {
            out.push((
                HTTPS,
                format!("{} sites not fully HTTPS", h.not_fully_https),
            ));
        }
        if let Some(m) = &self.malware {
            out.push((
                MALWARE,
                format!(
                    "{} flagged sites, {} mining sites",
                    m.flagged_sites.len(),
                    m.mining_sites.len()
                ),
            ));
        }
        if let Some((t7, gm)) = &self.geo {
            out.push((
                GEO,
                format!(
                    "{} countries, {} stable malicious domains",
                    t7.rows.len(),
                    gm.stable_domains
                ),
            ));
        }
        if let Some((eu, usa)) = &self.consent_banners {
            out.push((
                CONSENT_BANNERS,
                format!(
                    "EU {:.1}% / USA {:.1}% bannered",
                    eu.total_pct, usa.total_pct
                ),
            ));
        }
        if let Some((docs, _, report)) = &self.policies {
            out.push((
                POLICIES,
                format!(
                    "{} policies fetched ({:.1}% of corpus)",
                    docs.len(),
                    report.with_policy_pct
                ),
            ));
        }
        if let Some(o) = &self.ownership {
            out.push((
                OWNERSHIP,
                format!(
                    "{} companies over {} sites",
                    o.companies, o.attributed_sites
                ),
            ));
        }
        if let Some(m) = &self.monetization {
            out.push((
                MONETIZATION,
                format!(
                    "{:.1}% with subscriptions, {:.1}% paid",
                    m.with_subscription_pct, m.paid_pct
                ),
            ));
        }
        if let Some(a) = &self.age_gates {
            out.push((
                AGE_GATES,
                format!("{} countries compared", a.per_country.len()),
            ));
        }
        if let Some((checked, disclosing, full)) = &self.disclosure {
            out.push((
                DISCLOSURE,
                format!("{disclosing}/{checked} disclosing, {full} with full list"),
            ));
        }
        out
    }
}

/// Telemetry sinks for an analysis run: stage spans go into `trace` (one
/// `analyze/<stage>` shard per stage, so concurrent wave-A stages never
/// contend), stage counters into `metrics`.
pub struct StageObs<'t> {
    /// Journal the per-stage spans are recorded into.
    pub trace: &'t Trace,
    /// Registry the per-stage record counters are published into.
    pub metrics: &'t Registry,
    /// Parent span every stage span hangs under (the `analyze` span).
    pub parent: Option<SpanLink>,
}

/// Times one stage body, which returns `(output, inputs, outputs)`, and
/// records a `stage.<name>` span in a dedicated `analyze/<name>` shard plus
/// `stage.<name>.{input,output}_records` counters. Safe to call
/// concurrently from wave threads: each stage owns its shard, and the
/// registry is lock-protected.
fn observed<T>(
    obs: &StageObs<'_>,
    name: &'static str,
    body: impl FnOnce() -> (T, usize, usize),
) -> (T, StageTiming) {
    let shard = format!("analyze/{name}");
    let mut tracer = match &obs.parent {
        Some(link) => obs.trace.tracer_under(&shard, link.clone()),
        None => obs.trace.tracer(&shard),
    };
    tracer.open(&format!("stage.{name}"));
    let start = Instant::now();
    let (out, input_records, output_records) = body();
    let timing = StageTiming {
        name,
        wall: start.elapsed(),
        input_records,
        output_records,
    };
    tracer.attr("input_records", timing.input_records);
    tracer.attr("output_records", timing.output_records);
    tracer.close();
    tracer.finish();
    obs.metrics
        .counter(&format!("stage.{name}.input_records"))
        .add(timing.input_records as u64);
    obs.metrics
        .counter(&format!("stage.{name}.output_records"))
        .add(timing.output_records as u64);
    obs.metrics
        .histogram("stage.output_records")
        .record(timing.output_records as u64);
    (out, timing)
}

/// Runs the selected stages (a set produced by [`expand_selection`] or
/// [`all_stages`]) in dependency waves, independent stages concurrently.
/// Returns the outputs plus one timing per executed stage, in paper order.
pub fn run(
    db: &MeasurementDb,
    ctx: &AnalysisContext<'_>,
    selected: &BTreeSet<&'static str>,
) -> (StageOutputs, Vec<StageTiming>) {
    run_observed(
        db,
        ctx,
        selected,
        &StageObs {
            trace: &Trace::disabled(),
            metrics: &Registry::new(),
            parent: None,
        },
    )
}

/// [`run`] with telemetry: every executed stage records a `stage.<name>`
/// span (with record-count attributes) and publishes
/// `stage.<name>.{input,output}_records` counters plus a shared
/// `stage.output_records` histogram. Outputs and timings are identical to
/// [`run`].
pub fn run_observed(
    db: &MeasurementDb,
    ctx: &AnalysisContext<'_>,
    selected: &BTreeSet<&'static str>,
    obs: &StageObs<'_>,
) -> (StageOutputs, Vec<StageTiming>) {
    let mut outputs = StageOutputs::default();
    let mut timings: Vec<StageTiming> = Vec::new();
    let want = |name: &'static str| selected.contains(name);

    // ---- Wave A: the 14 independent stages. ----
    crossbeam::thread::scope(|s| {
        let h_corpus = want(CORPUS_SUMMARY)
            .then(|| s.spawn(|_| observed(obs, CORPUS_SUMMARY, || stage_corpus_summary(ctx))));
        let h_popularity = want(POPULARITY)
            .then(|| s.spawn(|_| observed(obs, POPULARITY, || stage_popularity(ctx))));
        let h_third = want(THIRD_PARTIES)
            .then(|| s.spawn(|_| observed(obs, THIRD_PARTIES, || stage_third_parties(ctx))));
        let h_orgs = want(ORGANIZATIONS)
            .then(|| s.spawn(|_| observed(obs, ORGANIZATIONS, || stage_organizations(ctx))));
        let h_cookies =
            want(COOKIES).then(|| s.spawn(|_| observed(obs, COOKIES, || stage_cookies(ctx))));
        let h_sync = want(COOKIE_SYNC)
            .then(|| s.spawn(|_| observed(obs, COOKIE_SYNC, || stage_cookie_sync(ctx))));
        let h_webrtc =
            want(WEBRTC).then(|| s.spawn(|_| observed(obs, WEBRTC, || stage_webrtc(ctx))));
        let h_https = want(HTTPS).then(|| s.spawn(|_| observed(obs, HTTPS, || stage_https(ctx))));
        let h_malware =
            want(MALWARE).then(|| s.spawn(|_| observed(obs, MALWARE, || stage_malware(ctx))));
        let h_geo = want(GEO).then(|| s.spawn(|_| observed(obs, GEO, || stage_geo(db, ctx))));
        let h_banners = want(CONSENT_BANNERS).then(|| {
            s.spawn(|_| observed(obs, CONSENT_BANNERS, || stage_consent_banners(db, ctx)))
        });
        let h_policies =
            want(POLICIES).then(|| s.spawn(|_| observed(obs, POLICIES, || stage_policies(ctx))));
        let h_monetization = want(MONETIZATION)
            .then(|| s.spawn(|_| observed(obs, MONETIZATION, || stage_monetization(ctx))));
        let h_gates = want(AGE_GATES)
            .then(|| s.spawn(|_| observed(obs, AGE_GATES, || stage_age_gates(db, ctx))));

        join(h_corpus, &mut outputs.corpus_summary, &mut timings);
        join(h_popularity, &mut outputs.popularity, &mut timings);
        join(h_third, &mut outputs.third_parties, &mut timings);
        join(h_orgs, &mut outputs.organizations, &mut timings);
        join(h_cookies, &mut outputs.cookies, &mut timings);
        join(h_sync, &mut outputs.cookie_sync, &mut timings);
        join(h_webrtc, &mut outputs.webrtc, &mut timings);
        join(h_https, &mut outputs.https, &mut timings);
        join(h_malware, &mut outputs.malware, &mut timings);
        join(h_geo, &mut outputs.geo, &mut timings);
        join(h_banners, &mut outputs.consent_banners, &mut timings);
        join(h_policies, &mut outputs.policies, &mut timings);
        join(h_monetization, &mut outputs.monetization, &mut timings);
        join(h_gates, &mut outputs.age_gates, &mut timings);
    })
    .expect("crossbeam scope");

    // ---- Wave B: stages reading wave-A outputs. ----
    crossbeam::thread::scope(|s| {
        let rtc = &outputs.webrtc;
        let docs = &outputs.policies;
        let h_fp = want(FINGERPRINTING).then(|| {
            s.spawn(move |_| {
                let rtc = rtc.as_ref().expect("webrtc ran (dependency)");
                observed(obs, FINGERPRINTING, || stage_fingerprinting(ctx, rtc))
            })
        });
        let h_owners = want(OWNERSHIP).then(|| {
            s.spawn(move |_| {
                let (docs, model, _) = docs.as_ref().expect("policies ran (dependency)");
                observed(obs, OWNERSHIP, || stage_ownership(ctx, docs, model))
            })
        });
        join(h_fp, &mut outputs.fingerprinting, &mut timings);
        join(h_owners, &mut outputs.ownership, &mut timings);
    })
    .expect("crossbeam scope");

    // ---- Wave C: the disclosure check (needs fingerprinting + policies). ----
    if want(DISCLOSURE) {
        let (fp, _) = outputs.fingerprinting.as_ref().expect("fingerprinting ran");
        let (docs, _, _) = outputs.policies.as_ref().expect("policies ran");
        let (out, t) = observed(obs, DISCLOSURE, || stage_disclosure(ctx, fp, docs));
        outputs.disclosure = Some(out);
        timings.push(t);
    }

    // Report timings in paper order regardless of join order.
    timings.sort_by_key(|t| STAGES.iter().position(|s| *s == t.name));
    (outputs, timings)
}

/// Joins one wave thread (when its stage was selected) into its output slot
/// and the timing list.
fn join<T>(
    handle: Option<ScopedJoinHandle<'_, (T, StageTiming)>>,
    slot: &mut Option<T>,
    timings: &mut Vec<StageTiming>,
) {
    if let Some(handle) = handle {
        let (out, timing) = handle.join().expect("stage thread panicked");
        *slot = Some(out);
        timings.push(timing);
    }
}

// ---- Stage bodies. Each returns (output, input records, output records). ----

fn stage_corpus_summary(ctx: &AnalysisContext<'_>) -> (CorpusSummary, usize, usize) {
    let c = &ctx.corpus;
    let summary = CorpusSummary {
        from_directories: c.from_directories.len(),
        from_adult_category: c.from_adult_category.len(),
        from_keywords: c.from_keywords.len(),
        candidates: c.candidates.len(),
        false_positives: c.false_positives.len(),
        sanitized: c.sanitized.len(),
        regular_reference: c.reference_regular.len(),
        manual_inspections: c.manual_inspections,
    };
    (summary, c.candidates.len(), c.sanitized.len())
}

fn stage_popularity(ctx: &AnalysisContext<'_>) -> ((Fig1, Table3), usize, usize) {
    let fig1 = popularity::fig1(ctx.porn_histories);
    let table3 = popularity::table3(&ctx.porn_extract, &ctx.tier_of);
    let produced = fig1.points.len() + table3.rows.len();
    ((fig1, table3), ctx.porn_histories.len(), produced)
}

fn stage_third_parties(ctx: &AnalysisContext<'_>) -> (ats::Table2, usize, usize) {
    let table2 = ats::table2(
        ctx.porn_es,
        &ctx.porn_extract,
        ctx.regular_es,
        &ctx.regular_extract,
        &ctx.classifier,
    );
    let input = ctx.porn_es.visits.len() + ctx.regular_es.visits.len();
    let produced = table2.porn_third_party + table2.regular_third_party;
    (table2, input, produced)
}

fn stage_organizations(
    ctx: &AnalysisContext<'_>,
) -> (
    (AttributionStats, Vec<OrgPrevalence>, Vec<OrgPrevalence>),
    usize,
    usize,
) {
    // The cert harvest (crawl traffic + out-of-band TLS probe) is collected
    // once in `AnalysisContext::build_sharded_in` and borrowed here.
    let attributor = orgs::OrgAttributor::from_harvest(&ctx.world.disconnect, &ctx.cert_harvest);
    let attribution = attributor.coverage(&ctx.porn_extract);
    let fig3_porn = attributor.prevalence(&ctx.porn_extract, ctx.porn_es.success_count());
    let fig3_regular = attributor.prevalence(&ctx.regular_extract, ctx.regular_es.success_count());
    let input = ctx.porn_extract.third_party_fqdns.len();
    let produced = fig3_porn.len() + fig3_regular.len();
    ((attribution, fig3_porn, fig3_regular), input, produced)
}

fn stage_cookies(ctx: &AnalysisContext<'_>) -> ((CookieStats, Vec<Table4Row>), usize, usize) {
    let stats = cookies::stats(ctx.porn_es, &ctx.cookie_rows, ctx.client_ip);
    let table4 = cookies::table4(
        ctx.porn_es,
        &ctx.cookie_rows,
        &ctx.classifier,
        &ctx.regular_extract.third_party_fqdns,
        ctx.client_ip,
        5,
    );
    let produced = table4.len();
    ((stats, table4), ctx.cookie_rows.len(), produced)
}

fn stage_cookie_sync(ctx: &AnalysisContext<'_>) -> (SyncReport, usize, usize) {
    let top_k = 100.min(ctx.ranked.len());
    let report = sync::detect(ctx.porn_es, &ctx.ranked, top_k, SyncOptions::default());
    let produced = report.pairs.len();
    (report, ctx.porn_es.success_count(), produced)
}

fn stage_webrtc(ctx: &AnalysisContext<'_>) -> (WebRtcReport, usize, usize) {
    let report = webrtc::detect(ctx.porn_es, &ctx.classifier);
    let produced = report.scripts.len();
    (report, ctx.porn_es.success_count(), produced)
}

fn stage_fingerprinting(
    ctx: &AnalysisContext<'_>,
    rtc: &WebRtcReport,
) -> ((FingerprintReport, Vec<Table5Row>), usize, usize) {
    let fp = fingerprint::detect(ctx.porn_es, &ctx.classifier);
    let table5 = fingerprint::table5(
        &fp,
        rtc,
        &ctx.porn_extract,
        &ctx.regular_extract,
        &ctx.classifier,
        10,
    );
    let produced = fp.canvas_scripts.len() + table5.len();
    ((fp, table5), ctx.porn_es.success_count(), produced)
}

fn stage_https(ctx: &AnalysisContext<'_>) -> (HttpsReport, usize, usize) {
    let report = https::report(ctx.porn_es, &ctx.tier_of, ctx.client_ip);
    let produced = report.rows.len();
    (report, ctx.porn_es.visits.len(), produced)
}

fn stage_malware(ctx: &AnalysisContext<'_>) -> (MalwareReport, usize, usize) {
    let report = malware::detect(ctx.porn_es, &WorldThreatFeed(ctx.world));
    let produced = report.flagged_sites.len() + report.mining_sites.len();
    (report, ctx.porn_es.success_count(), produced)
}

fn stage_geo(
    db: &MeasurementDb,
    ctx: &AnalysisContext<'_>,
) -> ((Table7, GeoMalware), usize, usize) {
    let threat = WorldThreatFeed(ctx.world);
    let mut order = vec![Country::Spain];
    order.extend(
        ctx.countries
            .iter()
            .copied()
            .filter(|c| *c != Country::Spain),
    );
    let mut input = 0usize;
    let summaries: Vec<geo::GeoSummary> = order
        .iter()
        .map(|&country| {
            let crawl = db
                .crawl(country, CorpusLabel::Porn)
                .expect("per-country porn crawl recorded");
            input += crawl.visits.len();
            let parties = thirdparty::extract(crawl, false);
            geo::summarize_extracted(crawl, &parties, &ctx.classifier, &threat)
        })
        .collect();
    let table7 = geo::table7(&summaries, &ctx.regular_extract.third_party_fqdns);
    let geo_malware = geo::geo_malware(&summaries);
    let produced = table7.rows.len();
    ((table7, geo_malware), input, produced)
}

fn stage_consent_banners(
    db: &MeasurementDb,
    ctx: &AnalysisContext<'_>,
) -> ((BannerBreakdown, BannerBreakdown), usize, usize) {
    let oracle = InspectionOracle::new(&ctx.world.sites);
    let verify = |domain: &str| oracle.confirm_banner(domain);
    let (banners_eu, _) = consent::breakdown(ctx.porn_es, &verify);
    // The paper's Table 8 contrasts the EU with the USA; without a USA
    // crawl the comparison degrades to EU-vs-EU.
    let usa_crawl = db
        .crawl(Country::Usa, CorpusLabel::Porn)
        .unwrap_or(ctx.porn_es);
    let (banners_usa, _) = consent::breakdown(usa_crawl, &verify);
    let input = ctx.porn_es.success_count() + usa_crawl.success_count();
    ((banners_eu, banners_usa), input, 2)
}

fn stage_policies(
    ctx: &AnalysisContext<'_>,
) -> ((Vec<PolicyDoc>, TfIdfModel, PolicyReport), usize, usize) {
    let (docs, sanitized_out) = policies::collect(&ctx.interactions_es);
    let model = policies::fit(&docs);
    let report = policies::report(
        &docs,
        &model,
        sanitized_out,
        ctx.corpus.sanitized.len(),
        ctx.max_policy_pairs,
    );
    let produced = docs.len();
    ((docs, model, report), ctx.interactions_es.len(), produced)
}

fn stage_ownership(
    ctx: &AnalysisContext<'_>,
    docs: &[PolicyDoc],
    model: &TfIdfModel,
) -> (OwnershipReport, usize, usize) {
    let report = owners::discover(
        docs,
        model,
        ctx.porn_es,
        &ctx.world.whois,
        ctx.porn_histories,
        ctx.corpus.sanitized.len(),
    );
    let input = docs.len() + ctx.porn_es.success_count();
    let produced = report.clusters.len();
    (report, input, produced)
}

fn stage_monetization(ctx: &AnalysisContext<'_>) -> (MonetizationReport, usize, usize) {
    let oracle = InspectionOracle::new(&ctx.world.sites);
    let label = |domain: &str| {
        oracle.label_subscription(domain).map(|l| match l {
            redlight_websim::oracle::SubscriptionLabel::Free => monetization::Subscription::Free,
            redlight_websim::oracle::SubscriptionLabel::Paid => monetization::Subscription::Paid,
        })
    };
    let report = monetization::report(&ctx.interactions_es, Some(&label));
    (report, ctx.interactions_es.len(), 1)
}

fn stage_age_gates(
    db: &MeasurementDb,
    ctx: &AnalysisContext<'_>,
) -> (AgeGateComparison, usize, usize) {
    let mut per_country = Vec::with_capacity(GATE_COUNTRIES.len());
    let mut input = 0usize;
    for country in GATE_COUNTRIES {
        // Spain's records come from the full-corpus interaction crawl,
        // filtered to the §7.2 top set; the other countries were crawled on
        // the top set directly.
        let records: Vec<InteractionRecord> = db
            .interactions_in(country)
            .filter(|r| ctx.top.contains(&r.domain))
            .cloned()
            .collect();
        input += records.len();
        per_country.push(records);
    }
    let comparison = agegate::compare(&per_country);
    let produced = comparison.per_country.len();
    (comparison, input, produced)
}

/// §7.3's Polisis pass: over the `top_n` porn sites with the heaviest
/// observed tracking (canvas fingerprinting weighs heaviest, then
/// third-party ID cookies), how many carry a policy disclosing cookies +
/// data types + third parties, and how many name the complete embedded
/// third-party list. Returns `(checked, disclosing, full list)`.
fn stage_disclosure(
    ctx: &AnalysisContext<'_>,
    fp: &FingerprintReport,
    docs: &[PolicyDoc],
) -> ((usize, usize, usize), usize, usize) {
    const TOP_N: usize = 25;
    let mut score: BTreeMap<&str, usize> = BTreeMap::new();
    for row in ctx
        .cookie_rows
        .iter()
        .filter(|r| r.third_party && cookies::is_id_cookie(r))
    {
        *score.entry(row.site.as_str()).or_default() += 1;
    }
    for site in &fp.canvas_sites {
        *score.entry(site.as_str()).or_default() += 50;
    }
    let mut ranked: Vec<(&str, usize)> = score.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));

    let checked = ranked.len().min(TOP_N);
    let mut disclosing = 0usize;
    let mut full_list = 0usize;
    for (site, _) in ranked.into_iter().take(TOP_N) {
        let Some(doc) = docs.iter().find(|d| d.site == site) else {
            continue; // no policy at all: counted as non-disclosing
        };
        let ann = policies::annotate(&doc.text);
        if ann.discloses_cookies && ann.discloses_data_types && ann.discloses_third_parties {
            disclosing += 1;
        }
        let observed: Vec<String> = ctx
            .porn_extract
            .per_site
            .get(site)
            .map(|p| p.third.iter().map(|f| reg(f).to_string()).collect())
            .unwrap_or_default();
        if policies::discloses_full_list(&doc.text, &observed) {
            full_list += 1;
        }
    }
    let input = ctx.cookie_rows.len() + fp.canvas_sites.len();
    ((checked, disclosing, full_list), input, checked)
}
