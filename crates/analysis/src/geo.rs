//! Geographical comparison (§6, Table 7).
//!
//! Per-country crawls are summarized into compact per-country digests so the
//! raw request logs of six crawls never need to coexist in memory; the
//! comparison then computes country-unique sets and the overlap with the
//! regular web. Table 7 deliberately excludes dynamically loaded domains
//! (RTB frame chains), so extraction runs with `include_chained = false`.

use std::collections::BTreeSet;

use redlight_net::geoip::Country;

use crate::ats::AtsClassifier;
use crate::malware::MIN_DETECTIONS;
use crate::thirdparty::ThirdPartyExtract;
use crate::ThreatFeed;
use redlight_crawler::db::CrawlRecord;

/// Per-country digest.
#[derive(Debug, Clone)]
pub struct GeoSummary {
    /// Vantage-point country.
    pub country: Country,
    /// Sites that could be crawled from this country.
    pub crawled_sites: usize,
    /// Sites unreachable from this country (censorship or geo-blocking —
    /// indistinguishable from outside, §3.1).
    pub unreachable_sites: usize,
    /// Directly included FQDNs (frame-chained excluded).
    pub fqdns: BTreeSet<String>,
    /// ATS FQDNs among them (relaxed matching).
    pub ats: BTreeSet<String>,
    /// Malicious FQDNs per the threat feed (at least
    /// [`MIN_DETECTIONS`] detections).
    pub(crate) malicious_fqdns: BTreeSet<String>,
    /// Porn sites carrying at least one malicious domain.
    sites_with_malware: usize,
}

/// Summarizes one country's crawl from its third-party extraction. The
/// `extract` must come from `crawl` with `include_chained = false`.
pub fn summarize_extracted(
    crawl: &CrawlRecord,
    extract: &ThirdPartyExtract,
    ats: &AtsClassifier,
    threat: &dyn ThreatFeed,
) -> GeoSummary {
    let mut fqdns: BTreeSet<String> = BTreeSet::new();
    for parties in extract.per_site.values() {
        fqdns.extend(parties.third.iter().cloned());
        fqdns.extend(parties.first.iter().cloned());
    }
    let ats: BTreeSet<String> = fqdns
        .iter()
        .filter(|f| ats.is_ats_fqdn(f))
        .cloned()
        .collect();
    let malicious: BTreeSet<String> = fqdns
        .iter()
        .filter(|f| threat.detections(f) >= MIN_DETECTIONS)
        .cloned()
        .collect();
    let sites_with_malware = extract
        .per_site
        .values()
        .filter(|p| {
            p.third
                .iter()
                .chain(p.first.iter())
                .any(|f| malicious.contains(f))
        })
        .count();

    GeoSummary {
        country: crawl.country,
        crawled_sites: crawl.success_count(),
        unreachable_sites: crawl
            .visits
            .iter()
            .filter(|v| !v.visit.success && !v.visit.timeout)
            .count(),
        fqdns,
        ats,
        malicious_fqdns: malicious,
        sites_with_malware,
    }
}

/// One Table 7 row.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Vantage-point country of the row.
    pub country: Country,
    /// Distinct FQDNs observed (directly included only).
    pub fqdns: usize,
    /// Share of this country's FQDNs also present in the regular web.
    pub web_ecosystem_pct: f64,
    /// FQDNs seen from this country only.
    pub unique_fqdns: usize,
    /// ATS FQDNs among them.
    pub ats: usize,
    /// ATS seen from this country only.
    pub unique_ats: usize,
}

/// The assembled Table 7.
#[derive(Debug, Clone)]
pub struct Table7 {
    /// Rows.
    pub rows: Vec<Table7Row>,
    /// Union across countries.
    pub total_fqdns: usize,
    /// Total unique.
    pub total_unique: usize,
    /// Total ATS.
    pub total_ats: usize,
    /// Total unique ATS.
    pub total_unique_ats: usize,
}

/// Compares the per-country digests (Table 7). `regular_fqdns` is the
/// third-party set of the regular-web reference crawl.
pub fn table7(summaries: &[GeoSummary], regular_fqdns: &BTreeSet<String>) -> Table7 {
    let count_in = |fqdn: &str| summaries.iter().filter(|s| s.fqdns.contains(fqdn)).count();
    let rows: Vec<Table7Row> = summaries
        .iter()
        .map(|s| {
            let unique = s.fqdns.iter().filter(|f| count_in(f) == 1).count();
            let unique_ats = s.ats.iter().filter(|f| count_in(f) == 1).count();
            let in_regular = s
                .fqdns
                .iter()
                .filter(|f| regular_fqdns.contains(*f))
                .count();
            Table7Row {
                country: s.country,
                fqdns: s.fqdns.len(),
                web_ecosystem_pct: redlight_text::stats::pct(in_regular, s.fqdns.len().max(1)),
                unique_fqdns: unique,
                ats: s.ats.len(),
                unique_ats,
            }
        })
        .collect();

    let mut all: BTreeSet<&str> = BTreeSet::new();
    let mut all_ats: BTreeSet<&str> = BTreeSet::new();
    for s in summaries {
        all.extend(s.fqdns.iter().map(String::as_str));
        all_ats.extend(s.ats.iter().map(String::as_str));
    }
    Table7 {
        total_unique: rows.iter().map(|r| r.unique_fqdns).sum(),
        total_unique_ats: rows.iter().map(|r| r.unique_ats).sum(),
        total_fqdns: all.len(),
        total_ats: all_ats.len(),
        rows,
    }
}

/// §6.2: malicious-domain presence across countries.
#[derive(Debug, Clone)]
pub struct GeoMalware {
    /// Per country: (malicious domains, porn sites with malware).
    pub per_country: Vec<(Country, usize, usize)>,
    /// Malicious domains present from every country.
    pub stable_domains: usize,
    /// Porn sites carrying malware from every country.
    pub stable_sites_lower_bound: usize,
}

/// Compares malware presence across countries.
pub fn geo_malware(summaries: &[GeoSummary]) -> GeoMalware {
    let mut stable: Option<BTreeSet<&str>> = None;
    for s in summaries {
        let set: BTreeSet<&str> = s.malicious_fqdns.iter().map(String::as_str).collect();
        stable = Some(match stable {
            None => set,
            Some(prev) => prev.intersection(&set).copied().collect(),
        });
    }
    GeoMalware {
        per_country: summaries
            .iter()
            .map(|s| (s.country, s.malicious_fqdns.len(), s.sites_with_malware))
            .collect(),
        stable_domains: stable.map(|s| s.len()).unwrap_or(0),
        stable_sites_lower_bound: summaries
            .iter()
            .map(|s| s.sites_with_malware)
            .min()
            .unwrap_or(0),
    }
}
