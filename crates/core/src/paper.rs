//! The paper's findings: the published aggregates of Vallina et al.,
//! IMC'19 (§3–§7), that every run is compared with. Each is one row of
//! [`FINDINGS`], which gives where the paper states it, its value, the
//! tolerance of a "shape holds" verdict and how a run measures it.
//! [`StudyResults::comparisons`] maps over the table, in paper order.

use redlight_analysis::geo::Table7Row;
use redlight_net::geoip::Country;
use redlight_report::paper::Comparison;

use crate::results::StudyResults;

/// How a run measures a finding.
enum Measure {
    /// A count that grows with the world: multiplied by the run's `scale`.
    Count(fn(&StudyResults) -> usize),
    /// A percentage, or a count the catalog bounds, read as is.
    Value(fn(&StudyResults) -> f64),
}

/// One published finding.
struct Finding {
    /// Identifier: the paper's section or table, a dot, then the metric.
    key: &'static str,
    /// Where the paper states it.
    source: &'static str,
    /// The published value.
    paper: f64,
    /// Acceptable relative deviation for a "shape holds" verdict (the
    /// substrate is a simulator, not the authors' testbed).
    tolerance: f64,
    /// The paper states the value as a lower bound ("over 30 %"): any
    /// measurement at or above `paper · (1 − tolerance)` keeps the shape.
    lower_bound: bool,
    measure: Measure,
}

/// A finding measured as a count that scales with the world.
const fn count(
    key: &'static str,
    source: &'static str,
    paper: f64,
    tolerance: f64,
    read: fn(&StudyResults) -> usize,
) -> Finding {
    Finding {
        key,
        source,
        paper,
        tolerance,
        lower_bound: false,
        measure: Measure::Count(read),
    }
}

/// A finding read as is: a percentage, or a count the catalog bounds.
const fn value(
    key: &'static str,
    source: &'static str,
    paper: f64,
    tolerance: f64,
    read: fn(&StudyResults) -> f64,
) -> Finding {
    Finding {
        key,
        source,
        paper,
        tolerance,
        lower_bound: false,
        measure: Measure::Value(read),
    }
}

impl Finding {
    /// The same finding, stated by the paper as a lower bound.
    const fn at_least(self) -> Self {
        Finding {
            lower_bound: true,
            ..self
        }
    }

    /// The comparison row for `measured`. Every paper value is positive, so
    /// the relative deviation is defined.
    fn compare(&self, measured: f64) -> Comparison {
        let within_tolerance = if self.lower_bound {
            measured >= self.paper * (1.0 - self.tolerance)
        } else {
            ((measured - self.paper) / self.paper).abs() <= self.tolerance
        };
        Comparison {
            key: self.key,
            source: self.source,
            paper: self.paper,
            measured,
            within_tolerance,
        }
    }
}

/// Fig. 3: the share of porn sites that embed `organization`, in percent.
fn fig3_pct(r: &StudyResults, organization: &str) -> f64 {
    r.fig3_porn
        .iter()
        .find(|o| o.organization == organization)
        .map_or(0.0, |o| o.fraction * 100.0)
}

/// Table 4: the site and IP-cookie percentages of `domain`.
fn table4(r: &StudyResults, domain: &str) -> (f64, f64) {
    r.table4
        .iter()
        .find(|row| row.domain == domain)
        .map_or((0.0, 0.0), |row| (row.site_pct, row.ip_pct))
}

/// Table 7: the row of `country`, if it was crawled.
fn table7(r: &StudyResults, country: Country) -> Option<&Table7Row> {
    r.table7.rows.iter().find(|row| row.country == country)
}

/// §7.2: the share of the top sites that gate in `country`, in percent.
fn gate_pct(r: &StudyResults, country: Country) -> f64 {
    r.agegates
        .per_country
        .iter()
        .find(|c| c.country == country)
        .map_or(0.0, |c| c.with_gate_pct)
}

/// Every finding, in paper order.
const FINDINGS: &[Finding] = &[
    // §3 corpus compilation.
    count("corpus.candidates", "§3", 8_099.0, 0.02, |r| {
        r.corpus.candidates
    }),
    count("corpus.false_positives", "§3", 1_256.0, 0.02, |r| {
        r.corpus.false_positives
    }),
    count("corpus.sanitized", "§3", 6_843.0, 0.02, |r| {
        r.corpus.sanitized
    }),
    count("corpus.regular_reference", "§3", 9_688.0, 0.10, |r| {
        r.corpus.regular_reference
    }),
    // Fig. 1.
    value("fig1.always_top1m_pct", "Fig. 1 / §3", 16.0, 0.25, |r| {
        r.fig1.always_top1m_pct
    }),
    count("fig1.always_top1k", "§3", 16.0, 0.60, |r| {
        r.fig1.always_top1k
    }),
    // §4.1 ownership and monetization.
    value("owners.companies", "§4.1", 24.0, 0.30, |r| {
        r.ownership.companies as f64
    }),
    count("owners.attributed_sites", "§4.1", 286.0, 0.30, |r| {
        r.ownership.attributed_sites
    }),
    value("owners.unattributed_pct", "§4.1", 96.0, 0.05, |r| {
        r.ownership.unattributed_pct
    }),
    value("monetization.subscription_pct", "§4.1", 14.0, 0.30, |r| {
        r.monetization.with_subscription_pct
    }),
    value("monetization.paid_pct", "§4.1", 23.0, 0.35, |r| {
        r.monetization.paid_pct
    }),
    // Table 2.
    count("table2.porn_crawled", "Table 2", 6_346.0, 0.03, |r| {
        r.table2.porn_corpus_size
    }),
    count("table2.regular_crawled", "Table 2", 8_511.0, 0.06, |r| {
        r.table2.regular_corpus_size
    }),
    count("table2.porn_third_party", "Table 2", 5_457.0, 0.30, |r| {
        r.table2.porn_third_party
    }),
    count(
        "table2.regular_third_party",
        "Table 2",
        21_128.0,
        0.35,
        |r| r.table2.regular_third_party,
    ),
    count("table2.porn_ats", "Table 2", 663.0, 0.30, |r| {
        r.table2.porn_ats
    }),
    count("table2.regular_ats", "Table 2", 196.0, 0.35, |r| {
        r.table2.regular_ats
    }),
    count("table2.ats_intersection", "Table 2", 86.0, 0.60, |r| {
        r.table2.ats_intersection
    }),
    // §4.2(3) attribution and Fig. 3.
    value("orgs.resolved_pct", "§4.2(3)", 74.0, 0.25, |r| {
        100.0 * r.attribution.resolved_fqdns as f64 / r.attribution.total_fqdns.max(1) as f64
    }),
    count("orgs.companies", "§4.2(3)", 1_014.0, 0.90, |r| {
        r.attribution.companies
    }),
    value("fig3.alphabet_pct", "Fig. 3", 74.0, 0.15, |r| {
        fig3_pct(r, "Alphabet")
    }),
    value("fig3.exoclick_pct", "§4.2.1/Fig. 3", 43.0, 0.20, |r| {
        fig3_pct(r, "ExoClick")
    }),
    value("fig3.cloudflare_pct", "Fig. 3", 35.0, 0.25, |r| {
        fig3_pct(r, "Cloudflare")
    }),
    // §5.1.1 cookies and Table 4.
    count("cookies.total", "§5.1.1", 89_009.0, 0.40, |r| {
        r.cookie_stats.total_cookies
    }),
    value("cookies.sites_pct", "§5.1.1", 92.0, 0.10, |r| {
        r.cookie_stats.sites_with_cookies_pct
    }),
    count("cookies.id_cookies", "§5.1.1", 51_648.0, 0.45, |r| {
        r.cookie_stats.id_cookies
    }),
    count("cookies.third_party_id", "§5.1.1", 30_247.0, 0.45, |r| {
        r.cookie_stats.third_party_id_cookies
    }),
    count(
        "cookies.third_party_domains",
        "§5.1.1",
        3_343.0,
        0.30,
        |r| r.cookie_stats.third_party_domains,
    ),
    value(
        "cookies.third_party_sites_pct",
        "§5.1.1",
        72.0,
        0.15,
        |r| r.cookie_stats.sites_with_third_party_pct,
    ),
    count("cookies.ip_cookies", "§5.1.1", 2_183.0, 0.45, |r| {
        r.cookie_stats.ip_cookies
    }),
    value("cookies.ip_top_org_pct", "§5.1.1", 97.0, 0.10, |r| {
        r.cookie_stats.ip_cookies_top_org_pct
    }),
    count("cookies.geo_cookies", "§5.1.1", 28.0, 0.60, |r| {
        r.cookie_stats.geo_cookies
    }),
    value("cookies.top100_site_pct", "§5.1.1", 30.0, 0.05, |r| {
        r.cookie_stats.top100_cookie_site_pct
    })
    .at_least(),
    value("table4.exosrv_pct", "Table 4", 21.0, 0.20, |r| {
        table4(r, "exosrv.com").0
    }),
    value("table4.exosrv_ip_pct", "Table 4", 85.0, 0.12, |r| {
        table4(r, "exosrv.com").1
    }),
    value("table4.exoclick_pct", "Table 4", 14.0, 0.25, |r| {
        table4(r, "exoclick.com").0
    }),
    value("table4.exoclick_ip_pct", "Table 4", 29.0, 0.30, |r| {
        table4(r, "exoclick.com").1
    }),
    value("table4.addthis_pct", "Table 4", 17.0, 0.25, |r| {
        table4(r, "addthis.com").0
    }),
    // §5.1.2 syncing.
    count("sync.sites", "§5.1.2", 2_867.0, 0.35, |r| {
        r.sync.sites_with_sync
    }),
    count("sync.pairs", "§5.1.2", 4_675.0, 0.45, |r| {
        r.sync.pairs.len()
    }),
    count("sync.origins", "§5.1.2", 1_120.0, 0.45, |r| r.sync.origins),
    count("sync.destinations", "§5.1.2", 727.0, 0.45, |r| {
        r.sync.destinations
    }),
    value("sync.top100_pct", "§5.1.2", 58.0, 0.30, |r| {
        r.sync.top_sites_with_sync_pct
    }),
    // §5.1.3 fingerprinting.
    count("fp.canvas_scripts", "§5.1.3", 245.0, 0.30, |r| {
        r.fingerprint.canvas_scripts.len()
    }),
    count("fp.canvas_sites", "§5.1.3", 315.0, 0.30, |r| {
        r.fingerprint.canvas_sites.len()
    }),
    value("fp.canvas_services", "§5.1.3", 49.0, 0.30, |r| {
        r.fingerprint.canvas_services.len() as f64
    }),
    value("fp.third_party_script_pct", "§5.1.3", 74.0, 0.15, |r| {
        r.fingerprint.third_party_script_pct
    }),
    value("fp.unindexed_pct", "§5.1.3", 91.0, 0.08, |r| {
        r.fingerprint.unindexed_pct
    }),
    value("fp.font_scripts", "§5.1.3", 1.0, 0.0, |r| {
        r.fingerprint.font_scripts.len() as f64
    }),
    // §5.1.4 WebRTC.
    count("webrtc.scripts", "§5.1.4", 27.0, 0.40, |r| {
        r.webrtc.scripts.len()
    }),
    count("webrtc.sites", "§5.1.4", 177.0, 0.35, |r| {
        r.webrtc.sites.len()
    }),
    value("webrtc.services", "§5.1.4", 13.0, 0.40, |r| {
        r.webrtc.services.len() as f64
    }),
    value("webrtc.ats_services", "§5.1.4", 2.0, 0.55, |r| {
        r.webrtc.ats_services.len() as f64
    }),
    // §5.2 / Table 6. The Top1k stratum is tiny (75 of 6,843 sites at paper
    // scale, ~10 at the reduced test scale), so one site moves the
    // percentage by whole points: the tolerance must cover single-site
    // binomial noise at reduced scale.
    value("table6.top1k_sites_pct", "Table 6", 92.0, 0.15, |r| {
        r.https.rows[0].sites_https_pct
    }),
    value("table6.to10k_sites_pct", "Table 6", 63.0, 0.25, |r| {
        r.https.rows[1].sites_https_pct
    }),
    value("table6.to100k_sites_pct", "Table 6", 32.0, 0.25, |r| {
        r.https.rows[2].sites_https_pct
    }),
    value("table6.beyond_sites_pct", "Table 6", 22.0, 0.30, |r| {
        r.https.rows[3].sites_https_pct
    }),
    value("https.not_fully_pct", "§5.2", 68.0, 0.20, |r| {
        r.https.not_fully_https_pct
    }),
    // §5.3 malware.
    count("malware.flagged_sites", "§5.3", 7.0, 0.60, |r| {
        r.malware.flagged_sites.len()
    }),
    value("malware.flagged_services", "§5.3", 16.0, 0.45, |r| {
        r.malware.flagged_services.len() as f64
    }),
    count("malware.sites_with_flagged", "§5.3", 41.0, 0.50, |r| {
        r.malware.sites_with_flagged_services
    }),
    count("malware.mining_sites", "§5.3", 8.0, 0.50, |r| {
        r.malware.mining_sites.len()
    }),
    value("malware.mining_services", "§5.3", 3.0, 0.35, |r| {
        r.malware.mining_services.len() as f64
    }),
    // §6 / Table 7.
    count("table7.spain_fqdns", "Table 7", 5_494.0, 0.30, |r| {
        table7(r, Country::Spain).map_or(0, |row| row.fqdns)
    }),
    count("table7.russia_fqdns", "Table 7", 4_750.0, 0.30, |r| {
        table7(r, Country::Russia).map_or(0, |row| row.fqdns)
    }),
    count("table7.russia_unique_ats", "Table 7", 27.0, 0.40, |r| {
        table7(r, Country::Russia).map_or(0, |row| row.unique_ats)
    }),
    count("table7.total_ats", "Table 7", 816.0, 0.35, |r| {
        r.table7.total_ats
    }),
    // §7.1 / Table 8.
    value("table8.eu_total_pct", "Table 8", 4.41, 0.30, |r| {
        r.banners_eu.total_pct
    }),
    value("table8.usa_total_pct", "Table 8", 3.76, 0.30, |r| {
        r.banners_usa.total_pct
    }),
    value("table8.no_option_share_pct", "§7.1", 32.0, 0.35, |r| {
        r.banners_eu.no_option_share_pct
    }),
    // §7.2 age verification.
    value("agegate.west_pct", "§7.2", 20.0, 0.30, |r| {
        gate_pct(r, Country::Spain)
    }),
    value("agegate.russia_pct", "§7.2", 14.0, 0.40, |r| {
        gate_pct(r, Country::Russia)
    }),
    value("agegate.russia_only_pct", "§7.2", 8.0, 0.60, |r| {
        r.agegates.russia_only_pct
    }),
    value("agegate.not_in_russia_pct", "§7.2", 12.0, 0.60, |r| {
        r.agegates.not_in_russia_pct
    }),
    // §7.3 policies.
    value("policies.with_policy_pct", "§7.3", 16.0, 0.20, |r| {
        r.policies.with_policy_pct
    }),
    value("policies.gdpr_pct", "§7.3", 20.0, 0.30, |r| {
        r.policies.gdpr_pct
    }),
    value("policies.mean_letters", "§7.3", 17_159.0, 0.40, |r| {
        r.policies.mean_letters
    }),
    value("policies.similar_pairs_pct", "§7.3", 76.0, 0.20, |r| {
        r.policies.similar_pairs_pct
    }),
];

impl StudyResults {
    /// One paper-vs-measured row per finding, in paper order. `scale` is the
    /// paper's world size over this run's: counts that grow with the world
    /// are multiplied by it, percentages and catalog-bound counts are read
    /// as is.
    pub fn comparisons(&self, scale: f64) -> Vec<Comparison> {
        FINDINGS
            .iter()
            .map(|finding| {
                let measured = match finding.measure {
                    Measure::Count(read) => read(self) as f64 * scale,
                    Measure::Value(read) => read(self),
                };
                finding.compare(measured)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holds(key: &str, measured: f64) -> bool {
        FINDINGS
            .iter()
            .find(|f| f.key == key)
            .unwrap_or_else(|| panic!("no finding {key}"))
            .compare(measured)
            .within_tolerance
    }

    #[test]
    fn keys_are_unique_and_paper_values_positive() {
        let mut keys: Vec<&str> = FINDINGS.iter().map(|f| f.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), FINDINGS.len(), "duplicate finding keys");
        for f in FINDINGS {
            assert!(f.paper > 0.0, "{}: the verdict divides by it", f.key);
        }
    }

    #[test]
    fn verdicts_follow_value_tolerance_and_bound() {
        assert!(holds("corpus.sanitized", 6_843.0));
        assert!(!holds("corpus.sanitized", 5_000.0));
        // A lower bound accepts anything at or above its floor.
        assert!(holds("cookies.top100_site_pct", 64.0));
        assert!(holds("cookies.top100_site_pct", 31.0));
        assert!(!holds("cookies.top100_site_pct", 20.0));
        // Tolerance 0: only the paper's value holds.
        assert!(holds("fp.font_scripts", 1.0));
        assert!(!holds("fp.font_scripts", 0.0));
        assert!(!holds("fp.font_scripts", 2.0));
    }
}
