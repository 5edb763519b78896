//! The analysis layer: named stages over the measurement database.
//!
//! Every analysis of the paper is a *stage* — a named unit that consumes
//! only the [`MeasurementDb`] plus the shared [`AnalysisContext`] and
//! produces one table/figure bundle. The private stage table, `TABLE`,
//! declares each stage once: its name, the stages whose outputs it reads
//! and its body. [`STAGES`], [`expand_selection`] and the schedule are read
//! off it: [`run`] runs the selected stages in waves, each wave every
//! stage whose dependencies ran in an earlier one, concurrently on scoped
//! threads.
//!
//! Each stage reports wall time and input/output record counts through a
//! [`StageTiming`], and a subset of stages can be run with
//! [`run`] + [`expand_selection`] (dependencies are pulled in
//! automatically) — this is what `reproduce --stage <name>` drives.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::OnceLock;
use std::time::Instant;

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

/// One row of the stage table.
struct Stage {
    /// The registered name: `reproduce --stage <name>`, span `stage.<name>`.
    name: &'static str,
    /// The stages whose outputs the body reads, each a row above this one.
    deps: &'static [&'static str],
    /// Computes the stage and stores its output in its [`StageOutputs`] slot.
    body: Body,
}

/// A stage body: reads the DB, the context and its dependencies' slots.
type Body = fn(&MeasurementDb, &AnalysisContext<'_>, &StageOutputs) -> Ran;

/// What a stage body reports: `(input records, output records, summary line)`.
type Ran = (usize, usize, String);

/// A row of the stage table.
const fn stage(name: &'static str, deps: &'static [&'static str], body: Body) -> Stage {
    Stage { name, deps, body }
}

/// Every stage, in paper order. Table 5 merges the canvas and WebRTC
/// script sets, ownership clusters the policy texts with the TF-IDF model
/// the policy sweep fitted, and the disclosure check reads both.
const TABLE: &[Stage; 17] = &[
    stage("corpus-summary", &[], stage_corpus_summary),
    stage("popularity", &[], stage_popularity),
    stage("third-parties", &[], stage_third_parties),
    stage("organizations", &[], stage_organizations),
    stage("cookies", &[], stage_cookies),
    stage("cookie-sync", &[], stage_cookie_sync),
    stage("webrtc", &[], stage_webrtc),
    stage("fingerprinting", &["webrtc"], stage_fingerprinting),
    stage("https", &[], stage_https),
    stage("malware", &[], stage_malware),
    stage("geo", &[], stage_geo),
    stage("consent-banners", &[], stage_consent_banners),
    stage("policies", &[], stage_policies),
    stage("ownership", &["policies"], stage_ownership),
    stage("monetization", &[], stage_monetization),
    stage("age-gates", &[], stage_age_gates),
    stage(
        "disclosure",
        &["fingerprinting", "policies"],
        stage_disclosure,
    ),
];

/// Every stage, in paper order.
pub const STAGES: [&str; 17] = {
    let (mut names, mut i) = ([""; 17], 0);
    while i < names.len() {
        names[i] = TABLE[i].name;
        i += 1;
    }
    names
};

/// The countries whose interaction crawls feed the §7.2 age-gate
/// comparison (fixed by the paper, independent of the geo-sweep list).
pub(crate) const GATE_COUNTRIES: [Country; 4] =
    [Country::Usa, Country::Uk, Country::Spain, Country::Russia];

/// Resolves user-requested stage names to the closed set including every
/// transitive dependency. Errors on unknown names.
pub fn expand_selection(requested: &[String]) -> Result<BTreeSet<&'static str>, String> {
    let mut queue: Vec<&'static Stage> = Vec::new();
    for name in requested {
        queue.push(TABLE.iter().find(|s| s.name == name).ok_or_else(|| {
            format!(
                "unknown stage '{name}'; expected one of: {}",
                STAGES.join(", ")
            )
        })?);
    }
    let mut selected = BTreeSet::new();
    while let Some(stage) = queue.pop() {
        if selected.insert(stage.name) {
            queue.extend(TABLE.iter().filter(|s| stage.deps.contains(&s.name)));
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
    /// Sampling target for the §7.3 policy pairs
    /// ([`StudyConfig::max_policy_pairs`]).
    pub(crate) max_policy_pairs: usize,
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
    cert_harvest: CertHarvest,
    /// The main Spanish porn crawl.
    pub porn_es: &'a CrawlRecord,
    /// The Spanish regular-corpus reference crawl.
    regular_es: &'a CrawlRecord,
    /// Third-party extraction of the Spanish porn crawl.
    pub porn_extract: ThirdPartyExtract,
    /// Third-party extraction of the regular reference crawl.
    pub regular_extract: ThirdPartyExtract,
    /// All cookie rows of the Spanish porn crawl.
    cookie_rows: Vec<CookieRow>,
    /// The Spanish interaction crawl (full corpus), borrowed from the DB.
    interactions_es: Vec<&'a InteractionRecord>,
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
    /// produced by `StudyConfig::crawl_plan` always records them.
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
            Some((&*world.cert_for_host(host)).into())
        };
        // The four whole-crawl passes read only the DB and the world, so
        // they run concurrently, one scan per crawl.
        let (porn_extract, regular_extract, cookie_rows, cert_harvest) = std::thread::scope(|s| {
            let porn = s.spawn(|| thirdparty::extract(porn_es, true));
            let regular = s.spawn(|| thirdparty::extract(regular_es, true));
            let rows = s.spawn(|| cookies::collect(porn_es));
            let certs = CertHarvest::collect_in(&[porn_es, regular_es], Some(&probe), registry);
            (
                porn.join().expect("porn extract thread"),
                regular.join().expect("regular extract thread"),
                rows.join().expect("cookie rows thread"),
                certs,
            )
        });
        let interactions_es: Vec<&InteractionRecord> = db.interactions_in(Country::Spain).collect();
        let client_ip = porn_es.client_ip;

        AnalysisContext {
            world,
            countries: config.countries.clone(),
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

/// Stage outputs, one slot per stage, which the stage's body fills — empty
/// when the stage was not selected. A full run fills every slot.
#[derive(Debug, Default)]
pub struct StageOutputs {
    /// `corpus-summary`.
    corpus_summary: OnceLock<CorpusSummary>,
    /// `popularity`: Fig. 1 + Table 3.
    pub popularity: OnceLock<(Fig1, Table3)>,
    /// `third-parties`: Table 2.
    pub third_parties: OnceLock<ats::Table2>,
    /// `organizations`: attribution coverage + both Fig. 3 sides.
    pub organizations: OnceLock<(AttributionStats, Vec<OrgPrevalence>, Vec<OrgPrevalence>)>,
    /// `cookies`: §5.1.1 stats + Table 4.
    pub cookies: OnceLock<(CookieStats, Vec<Table4Row>)>,
    /// `cookie-sync`.
    cookie_sync: OnceLock<SyncReport>,
    /// `webrtc`.
    pub webrtc: OnceLock<WebRtcReport>,
    /// `fingerprinting`: §5.1.3 report + Table 5.
    pub fingerprinting: OnceLock<(FingerprintReport, Vec<Table5Row>)>,
    /// `https`: Table 6.
    pub https: OnceLock<HttpsReport>,
    /// `malware`.
    pub malware: OnceLock<MalwareReport>,
    /// `geo`: Table 7 + §6.2 malware comparison.
    pub geo: OnceLock<(Table7, GeoMalware)>,
    /// `consent-banners`: EU and USA breakdowns.
    consent_banners: OnceLock<(BannerBreakdown, BannerBreakdown)>,
    /// `policies`: fetched docs, their TF-IDF model (`ownership` clusters
    /// with it) + §7.3 report.
    pub policies: OnceLock<(Vec<PolicyDoc>, TfIdfModel, PolicyReport)>,
    /// `ownership`: Table 1.
    pub ownership: OnceLock<OwnershipReport>,
    /// `monetization`.
    pub monetization: OnceLock<MonetizationReport>,
    /// `age-gates`.
    pub age_gates: OnceLock<AgeGateComparison>,
    /// `disclosure`: `(checked, disclosing, full list)`.
    pub disclosure: OnceLock<(usize, usize, usize)>,
    /// The summary line of every stage that ran, in paper order.
    lines: Vec<(&'static str, String)>,
}

impl StageOutputs {
    /// Assembles a full run into [`StudyResults`]. Panics if any stage was
    /// skipped — only call after running [`all_stages`].
    pub fn into_results(
        self,
        best_ranks: BTreeMap<String, u32>,
        stage_report: StageReport,
    ) -> StudyResults {
        let (fig1, table3) = take(self.popularity);
        let (attribution, fig3_porn, fig3_regular) = take(self.organizations);
        let (cookie_stats, table4) = take(self.cookies);
        let (fingerprint, table5) = take(self.fingerprinting);
        let (table7, geo_malware) = take(self.geo);
        let (banners_eu, banners_usa) = take(self.consent_banners);
        let (_docs, _model, policy_report) = take(self.policies);
        StudyResults {
            corpus: take(self.corpus_summary),
            fig1,
            ownership: take(self.ownership),
            monetization: take(self.monetization),
            table2: take(self.third_parties),
            table3,
            fig3_porn,
            fig3_regular,
            attribution,
            cookie_stats,
            table4,
            sync: take(self.cookie_sync),
            fingerprint,
            webrtc: take(self.webrtc),
            table5,
            https: take(self.https),
            malware: take(self.malware),
            table7,
            geo_malware,
            banners_eu,
            banners_usa,
            agegates: take(self.age_gates),
            policies: policy_report,
            disclosure_check: take(self.disclosure),
            best_ranks,
            stage_report,
        }
    }

    /// One-line summaries of every stage that ran, in paper order (what
    /// `reproduce --stage` prints).
    pub fn summaries(&self) -> Vec<(&'static str, String)> {
        self.lines.clone()
    }
}

/// A full run's output of one stage. A stage that did not run panics at
/// the caller's line, which names its slot.
#[track_caller]
fn take<T>(slot: OnceLock<T>) -> T {
    slot.into_inner()
        .expect("into_results needs every stage's output")
}

/// Stores a stage's output in its slot; the scheduler runs each stage once.
fn put<T>(slot: &OnceLock<T>, output: T) {
    assert!(slot.set(output).is_ok(), "a stage ran twice");
}

/// The output of a stage this one reads, which ran in an earlier wave.
fn dep<T>(slot: &OnceLock<T>) -> &T {
    slot.get().expect("dependencies run in an earlier wave")
}

/// Telemetry sinks for an analysis run: stage spans go into `trace` (one
/// `analyze/<stage>` shard per stage, so the stages of a wave never
/// contend), stage counters into `metrics`.
pub struct StageObs<'t> {
    /// Journal the per-stage spans are recorded into.
    pub trace: &'t Trace,
    /// Registry the per-stage record counters are published into.
    pub metrics: &'t Registry,
    /// Parent span every stage span hangs under (the `analyze` span).
    pub parent: Option<SpanLink>,
}

/// Times one stage body, and records a `stage.<name>` span in a dedicated
/// `analyze/<name>` shard plus `stage.<name>.{input,output}_records`
/// counters. Returns the body's summary line and the timing. Safe to call
/// concurrently from wave threads: each stage owns its shard, and the
/// registry is lock-protected.
fn observed(
    obs: &StageObs<'_>,
    name: &'static str,
    body: impl FnOnce() -> Ran,
) -> (String, StageTiming) {
    let shard = format!("analyze/{name}");
    let mut tracer = match &obs.parent {
        Some(link) => obs.trace.tracer_under(&shard, link.clone()),
        None => obs.trace.tracer(&shard),
    };
    tracer.open(&format!("stage.{name}"));
    let start = Instant::now();
    let (input_records, output_records, line) = body();
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
    (line, timing)
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
    let mut done: Vec<(String, StageTiming)> = Vec::new();
    for wave in waves(selected) {
        let out = &outputs;
        std::thread::scope(|s| {
            let threads: Vec<_> = wave
                .iter()
                .map(|stage| {
                    s.spawn(move || observed(obs, stage.name, || (stage.body)(db, ctx, out)))
                })
                .collect();
            for thread in threads {
                done.push(thread.join().expect("stage thread panicked"));
            }
        });
    }
    // Report in paper order regardless of wave order.
    done.sort_by_key(|(_, t)| STAGES.iter().position(|s| *s == t.name));
    let timings;
    (outputs.lines, timings) = done
        .into_iter()
        .map(|(line, t)| ((t.name, line), t))
        .unzip();
    (outputs, timings)
}

/// The schedule of a selection: waves of its stages in table order, each
/// every stage whose dependencies ran in an earlier wave. Panics if a stage
/// reads an unselected one, which [`expand_selection`] never leaves out.
fn waves(selected: &BTreeSet<&'static str>) -> Vec<Vec<&'static Stage>> {
    let mut pending: Vec<&'static Stage> =
        TABLE.iter().filter(|s| selected.contains(s.name)).collect();
    let mut done = BTreeSet::new();
    let mut waves = Vec::new();
    while !pending.is_empty() {
        let (wave, blocked): (Vec<_>, Vec<_>) = pending
            .into_iter()
            .partition(|s| s.deps.iter().all(|d| done.contains(d)));
        assert!(
            !wave.is_empty(),
            "stage {} reads {:?}, which the selection lacks",
            blocked[0].name,
            blocked[0].deps
        );
        done.extend(wave.iter().map(|s| s.name));
        waves.push(wave);
        pending = blocked;
    }
    waves
}

// ---- Stage bodies: each stores its output in its slot and returns `Ran`. ----

/// §3 corpus compilation.
fn stage_corpus_summary(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    let c = &ctx.corpus;
    put(
        &out.corpus_summary,
        CorpusSummary {
            from_directories: c.from_directories.len(),
            from_adult_category: c.from_adult_category.len(),
            from_keywords: c.from_keywords.len(),
            candidates: c.candidates.len(),
            false_positives: c.false_positives.len(),
            sanitized: c.sanitized.len(),
            regular_reference: c.reference_regular.len(),
            manual_inspections: c.manual_inspections,
        },
    );
    let (candidates, sanitized) = (c.candidates.len(), c.sanitized.len());
    let line = format!("{sanitized} sanitized of {candidates} candidates");
    (candidates, sanitized, line)
}

/// Fig. 1 + Table 3: rank stability and tier presence.
fn stage_popularity(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    let fig1 = popularity::fig1(ctx.porn_histories);
    let table3 = popularity::table3(&ctx.porn_extract, &ctx.tier_of);
    let (points, rows) = (fig1.points.len(), table3.rows.len());
    put(&out.popularity, (fig1, table3));
    let line = format!("{points} fig. 1 points, {rows} tier rows");
    (ctx.porn_histories.len(), points + rows, line)
}

/// Table 2: first- and third-party domains.
fn stage_third_parties(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    let table2 = ats::table2(
        ctx.porn_es,
        &ctx.porn_extract,
        ctx.regular_es,
        &ctx.regular_extract,
        &ctx.classifier,
    );
    let (porn, regular) = (table2.porn_third_party, table2.regular_third_party);
    put(&out.third_parties, table2);
    let input = ctx.porn_es.visits.len() + ctx.regular_es.visits.len();
    let line = format!("{porn} porn / {regular} regular third parties");
    (input, porn + regular, line)
}

/// Fig. 3 + §4.2(3) attribution.
fn stage_organizations(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    // The cert harvest (crawl traffic + out-of-band TLS probe) is collected
    // once in `AnalysisContext::build_sharded_in` and borrowed here.
    let attributor = orgs::OrgAttributor::from_harvest(&ctx.world.disconnect, &ctx.cert_harvest);
    let attribution = attributor.coverage(&ctx.porn_extract);
    let fig3_porn = attributor.prevalence(&ctx.porn_extract, ctx.porn_es.success_count());
    let fig3_regular = attributor.prevalence(&ctx.regular_extract, ctx.regular_es.success_count());
    let (companies, rows) = (attribution.companies, fig3_porn.len());
    let line = format!("{companies} organizations, {rows} prevalence rows");
    let produced = rows + fig3_regular.len();
    put(&out.organizations, (attribution, fig3_porn, fig3_regular));
    (ctx.porn_extract.third_party_fqdns.len(), produced, line)
}

/// §5.1.1 + Table 4.
fn stage_cookies(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
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
    let line = format!("{} cookies, {produced} Table 4 rows", stats.total_cookies);
    put(&out.cookies, (stats, table4));
    (ctx.cookie_rows.len(), produced, line)
}

/// §5.1.2 / Fig. 4: cookie synchronization.
fn stage_cookie_sync(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    let top_k = 100.min(ctx.ranked.len());
    let report = sync::detect(ctx.porn_es, &ctx.ranked, top_k, SyncOptions::default());
    let produced = report.pairs.len();
    let line = format!("{produced} pairs on {} sites", report.sites_with_sync);
    put(&out.cookie_sync, report);
    (ctx.porn_es.success_count(), produced, line)
}

/// §5.1.4: WebRTC.
fn stage_webrtc(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    let report = webrtc::detect(ctx.porn_es, &ctx.classifier);
    let produced = report.scripts.len();
    let line = format!("{produced} scripts on {} sites", report.sites.len());
    put(&out.webrtc, report);
    (ctx.porn_es.success_count(), produced, line)
}

/// §5.1.3 + Table 5, which merges the canvas scripts with `webrtc`'s.
fn stage_fingerprinting(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    let fp = fingerprint::detect(ctx.porn_es, &ctx.classifier);
    let table5 = fingerprint::table5(
        &fp,
        dep(&out.webrtc),
        &ctx.porn_extract,
        &ctx.regular_extract,
        &ctx.classifier,
        10,
    );
    let (scripts, rows) = (fp.canvas_scripts.len(), table5.len());
    let sites = fp.canvas_sites.len();
    let line = format!("{scripts} canvas scripts on {sites} sites, {rows} Table 5 rows");
    let produced = scripts + rows;
    put(&out.fingerprinting, (fp, table5));
    (ctx.porn_es.success_count(), produced, line)
}

/// §5.2 / Table 6.
fn stage_https(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    let report = https::report(ctx.porn_es, &ctx.tier_of, ctx.client_ip);
    let produced = report.rows.len();
    let line = format!("{} sites not fully HTTPS", report.not_fully_https);
    put(&out.https, report);
    (ctx.porn_es.visits.len(), produced, line)
}

/// §5.3.
fn stage_malware(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    let report = malware::detect(ctx.porn_es, &WorldThreatFeed(ctx.world));
    let (flagged, mining) = (report.flagged_sites.len(), report.mining_sites.len());
    put(&out.malware, report);
    let line = format!("{flagged} flagged sites, {mining} mining sites");
    (ctx.porn_es.success_count(), flagged + mining, line)
}

/// §6 / Table 7: the geo sweep comparison.
fn stage_geo(db: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
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
    let stable = geo_malware.stable_domains;
    let line = format!("{produced} countries, {stable} stable malicious domains");
    put(&out.geo, (table7, geo_malware));
    (input, produced, line)
}

/// §7.1 / Table 8: consent banners.
fn stage_consent_banners(db: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
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
    let (eu, usa) = (banners_eu.total_pct, banners_usa.total_pct);
    let line = format!("EU {eu:.1}% / USA {usa:.1}% bannered");
    put(&out.consent_banners, (banners_eu, banners_usa));
    (input, 2, line)
}

/// §7.3 policy collection + similarity sweep.
fn stage_policies(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
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
    let pct = report.with_policy_pct;
    let line = format!("{produced} policies fetched ({pct:.1}% of corpus)");
    put(&out.policies, (docs, model, report));
    (ctx.interactions_es.len(), produced, line)
}

/// §4.1 / Table 1: owners, found by clustering the policy texts with the
/// TF-IDF model `policies` fitted.
fn stage_ownership(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    let (docs, model, _) = dep(&out.policies);
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
    let (companies, sites) = (report.companies, report.attributed_sites);
    let line = format!("{companies} companies over {sites} sites");
    put(&out.ownership, report);
    (input, produced, line)
}

/// §4.1 monetization.
fn stage_monetization(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    let oracle = InspectionOracle::new(&ctx.world.sites);
    let label = |domain: &str| {
        oracle.label_subscription(domain).map(|l| match l {
            redlight_websim::oracle::SubscriptionLabel::Free => monetization::Subscription::Free,
            redlight_websim::oracle::SubscriptionLabel::Paid => monetization::Subscription::Paid,
        })
    };
    let report = monetization::report(&ctx.interactions_es, Some(&label));
    let (subscriptions, paid) = (report.with_subscription_pct, report.paid_pct);
    let line = format!("{subscriptions:.1}% with subscriptions, {paid:.1}% paid");
    put(&out.monetization, report);
    (ctx.interactions_es.len(), 1, line)
}

/// §7.2 age verification.
fn stage_age_gates(db: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    let mut per_country = Vec::with_capacity(GATE_COUNTRIES.len());
    let mut input = 0usize;
    for country in GATE_COUNTRIES {
        // Spain's records come from the full-corpus interaction crawl,
        // filtered to the §7.2 top set; the other countries were crawled on
        // the top set directly.
        let records: Vec<&InteractionRecord> = db
            .interactions_in(country)
            .filter(|r| ctx.top.contains(&r.domain))
            .collect();
        input += records.len();
        per_country.push(records);
    }
    let comparison = agegate::compare(&per_country);
    let produced = comparison.per_country.len();
    put(&out.age_gates, comparison);
    (input, produced, format!("{produced} countries compared"))
}

/// §7.3's Polisis pass: over the `top_n` porn sites with the heaviest
/// observed tracking (canvas fingerprinting weighs heaviest, then
/// third-party ID cookies), how many carry a policy disclosing cookies +
/// data types + third parties, and how many name the complete embedded
/// third-party list. Stores `(checked, disclosing, full list)`.
fn stage_disclosure(_: &MeasurementDb, ctx: &AnalysisContext<'_>, out: &StageOutputs) -> Ran {
    const TOP_N: usize = 25;
    let ((fp, _), (docs, _, _)) = (dep(&out.fingerprinting), dep(&out.policies));
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
    put(&out.disclosure, (checked, disclosing, full_list));
    let input = ctx.cookie_rows.len() + fp.canvas_sites.len();
    let line = format!("{disclosing}/{checked} disclosing, {full_list} with full list");
    (input, checked, line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::Study;

    #[test]
    fn the_full_set_runs_in_three_waves() {
        let names: Vec<Vec<&str>> = waves(&all_stages())
            .iter()
            .map(|wave| wave.iter().map(|s| s.name).collect())
            .collect();
        let later = ["fingerprinting", "ownership", "disclosure"];
        let first: Vec<&str> = STAGES.into_iter().filter(|s| !later.contains(s)).collect();
        assert_eq!((first.len(), names.len()), (14, 3));
        assert_eq!(names[0], first);
        assert_eq!(names[1], ["fingerprinting", "ownership"]);
        assert_eq!(names[2], ["disclosure"]);
    }

    #[test]
    fn every_dependency_is_a_row_listed_before_it() {
        for (at, stage) in TABLE.iter().enumerate() {
            for dep in stage.deps {
                assert!(
                    STAGES[..at].contains(dep),
                    "{} reads {dep}, which is no row above it",
                    stage.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "stage disclosure reads [\"fingerprinting\", \"policies\"]")]
    fn a_selection_without_its_dependencies_panics() {
        let config = StudyConfig::tiny(5);
        let world = World::build(config.world.clone());
        let (db, _) = Study::collect_db(&world, &config);
        let ctx = AnalysisContext::build_sharded(&world, &config, &db, 1);
        run(&db, &ctx, &BTreeSet::from(["disclosure"]));
    }
}
