//! The assembled outputs of one study run: every table and figure of the
//! paper, in structured form.

use std::collections::BTreeMap;
use std::time::Duration;

use redlight_analysis::agegate::AgeGateComparison;
use redlight_analysis::ats::Table2;
use redlight_analysis::consent::BannerBreakdown;
use redlight_analysis::cookies::{CookieStats, Table4Row};
use redlight_analysis::fingerprint::{FingerprintReport, Table5Row};
use redlight_analysis::geo::{GeoMalware, Table7};
use redlight_analysis::https::HttpsReport;
use redlight_analysis::malware::MalwareReport;
use redlight_analysis::monetization::MonetizationReport;
use redlight_analysis::orgs::{AttributionStats, OrgPrevalence};
use redlight_analysis::owners::OwnershipReport;
use redlight_analysis::policies::PolicyReport;
use redlight_analysis::popularity::{Fig1, Table3};
use redlight_analysis::sync::SyncReport;
use redlight_analysis::webrtc::WebRtcReport;
use redlight_crawler::plan::CrawlTiming;

/// Wall time and record counts for one named analysis stage.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// The stage's registered name (one of [`crate::stages::STAGES`]).
    pub name: &'static str,
    /// Wall-clock duration of the stage.
    pub wall: Duration,
    /// Records the stage read (visits, cookie rows, interaction records…).
    pub input_records: usize,
    /// Records the stage produced (table rows, detections, clusters…).
    pub(crate) output_records: usize,
}

/// Final hit/miss counters of one shared analysis cache, as
/// [`AnalysisContext::cache_counters`](crate::stages::AnalysisContext::cache_counters)
/// reports them.
#[derive(Debug, Clone)]
pub struct CacheCounter {
    /// Cache name.
    pub name: &'static str,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups the cache could not answer.
    pub misses: u64,
}

/// Instrumentation for one pipeline run: every crawl's wall time plus every
/// analysis stage's wall time and record counts. Carried by
/// [`StudyResults`] and rendered by
/// [`render_timings`](StudyResults::render_timings).
#[derive(Debug, Clone, Default)]
pub struct StageReport {
    /// Collection-layer timings, one per executed crawl.
    pub crawls: Vec<CrawlTiming>,
    /// Analysis-layer timings, one per stage that ran.
    pub stages: Vec<StageTiming>,
}

/// Corpus-compilation outcome (stringified from the crawler report).
#[derive(Debug, Clone)]
pub struct CorpusSummary {
    /// Domains found via the porn-directory aggregators (§3 source 1).
    pub from_directories: usize,
    /// Domains from the Alexa-style Adult category (§3 source 2).
    pub from_adult_category: usize,
    /// Domains matching the keyword bag in the 2018 top-1M (§3 source 3).
    pub from_keywords: usize,
    /// Union of the three sources (the paper's 8,099).
    pub candidates: usize,
    /// Candidates removed by sanitization (the paper's 1,256).
    pub false_positives: usize,
    /// The sanitized porn corpus (the paper's 6,843).
    pub sanitized: usize,
    /// The popular non-porn reference corpus (the paper's 9,688).
    pub regular_reference: usize,
    /// Oracle queries consumed (the stand-in for human review effort).
    pub manual_inspections: usize,
}

/// Everything one study run produces.
#[derive(Debug, Clone)]
pub struct StudyResults {
    /// §3 corpus compilation outcome.
    pub corpus: CorpusSummary,
    /// Fig. 1: rank stability of the porn corpus.
    pub fig1: Fig1,
    /// Table 1 + §4.1 headline ownership numbers.
    pub ownership: OwnershipReport,
    /// §4.1 monetization.
    pub monetization: MonetizationReport,
    /// Table 2.
    pub table2: Table2,
    /// Table 3 + §4.2.2 extras.
    pub table3: Table3,
    /// Fig. 3 organization prevalence (porn side).
    pub fig3_porn: Vec<OrgPrevalence>,
    /// Fig. 3 organization prevalence (regular side, for comparison).
    pub(crate) fig3_regular: Vec<OrgPrevalence>,
    /// §4.2(3) attribution coverage.
    pub attribution: AttributionStats,
    /// §5.1.1 cookies.
    pub cookie_stats: CookieStats,
    /// Table 4.
    pub table4: Vec<Table4Row>,
    /// §5.1.2 / Fig. 4.
    pub sync: SyncReport,
    /// §5.1.3.
    pub fingerprint: FingerprintReport,
    /// §5.1.4.
    pub webrtc: WebRtcReport,
    /// Table 5.
    pub table5: Vec<Table5Row>,
    /// §5.2 / Table 6.
    pub https: HttpsReport,
    /// §5.3 malware (Spain crawl).
    pub malware: MalwareReport,
    /// §6 / Table 7.
    pub table7: Table7,
    /// §6.2.
    pub geo_malware: GeoMalware,
    /// Table 8: Spain (EU) and USA breakdowns.
    pub banners_eu: BannerBreakdown,
    /// Table 8's USA column.
    pub banners_usa: BannerBreakdown,
    /// §7.2.
    pub(crate) agegates: AgeGateComparison,
    /// §7.3.
    pub policies: PolicyReport,
    /// Polisis-style disclosure check over the top tracker-heavy sites:
    /// `(sites checked, sites disclosing cookies+data+third parties,
    /// sites naming the complete third-party list)`.
    pub disclosure_check: (usize, usize, usize),
    /// Per-domain best ranks (for downstream rendering).
    pub best_ranks: BTreeMap<String, u32>,
    /// Pipeline instrumentation: crawl and stage timings with record counts.
    pub stage_report: StageReport,
}
