//! Age-verification analysis (§7.2).
//!
//! The paper studies the top-50 most popular porn sites manually across
//! four countries (US, UK, Spain, Russia): which sites gate at all, how the
//! set differs in Russia, and whether any gate is *verifiable* (the crawler
//! failing to bypass it is the bar — "if our automatic crawler manages to
//! bypass the mechanism, a child could do it as well").

use std::collections::BTreeSet;

use redlight_net::geoip::Country;
use redlight_text::stats::pct;

use redlight_crawler::db::{CrawlRecord, InteractionRecord};

/// Per-country gate statistics over the studied site set.
#[derive(Debug, Clone)]
pub struct CountryGates {
    /// Vantage-point country of these records.
    pub country: Country,
    /// Sites studied (the paper's top-50 subset).
    pub studied: usize,
    /// Sites showing an age-verification mechanism.
    pub with_gate: usize,
    /// Share of studied sites with a gate.
    pub with_gate_pct: f64,
    /// Gates the crawler clicked through (trivially bypassable).
    pub bypassed: usize,
    /// Gates requiring a social-network login (verifiable).
    pub social_login: usize,
}

/// Cross-country comparison (the §7.2 narrative numbers).
#[derive(Debug, Clone)]
pub struct AgeGateComparison {
    /// Per country.
    pub per_country: Vec<CountryGates>,
    /// Sites gating in Russia but nowhere else (% of studied).
    pub russia_only_pct: f64,
    /// Sites gating everywhere except Russia (% of studied).
    pub not_in_russia_pct: f64,
    /// Every bypassable gate is unverifiable; this is the share of gates
    /// (outside social-login ones) the crawler defeated.
    pub bypass_rate_pct: f64,
}

/// Summarizes one country's interaction records.
pub fn country_stats(records: &[&InteractionRecord]) -> CountryGates {
    let country = records.first().map(|r| r.country).unwrap_or(Country::Spain);
    let studied = records.len();
    let gated: Vec<&&InteractionRecord> = records.iter().filter(|r| r.age_gate_detected).collect();
    CountryGates {
        country,
        studied,
        with_gate: gated.len(),
        with_gate_pct: pct(gated.len(), studied.max(1)),
        bypassed: gated.iter().filter(|r| r.age_gate_bypassed).count(),
        social_login: gated.iter().filter(|r| r.social_login_gate).count(),
    }
}

/// Compares countries over the same studied domains.
pub fn compare(per_country: &[Vec<InteractionRecord>]) -> AgeGateComparison {
    let stats: Vec<CountryGates> = per_country
        .iter()
        .map(|records| country_stats(&records.iter().collect::<Vec<_>>()))
        .collect();

    let gated_in = |country: Country| -> BTreeSet<&str> {
        per_country
            .iter()
            .flatten()
            .filter(|r| r.country == country && r.age_gate_detected)
            .map(|r| r.domain.as_str())
            .collect()
    };
    let russia = gated_in(Country::Russia);
    let elsewhere: BTreeSet<&str> = [Country::Usa, Country::Uk, Country::Spain]
        .into_iter()
        .flat_map(gated_in)
        .collect();
    let studied = per_country.first().map(|v| v.len()).unwrap_or(0);

    let total_gates: usize = stats.iter().map(|s| s.with_gate).sum();
    let total_social: usize = stats.iter().map(|s| s.social_login).sum();
    let total_bypassed: usize = stats.iter().map(|s| s.bypassed).sum();

    AgeGateComparison {
        russia_only_pct: pct(russia.difference(&elsewhere).count(), studied.max(1)),
        not_in_russia_pct: pct(elsewhere.difference(&russia).count(), studied.max(1)),
        bypass_rate_pct: pct(
            total_bypassed,
            total_gates.saturating_sub(total_social).max(1),
        ),
        per_country: stats,
    }
}

/// RTA (Restricted-To-Adults) label prevalence (§2.1): the ASACP meta tag
/// parents' filters key on. Detected from the crawled markup.
#[derive(Debug, Clone)]
pub struct RtaReport {
    /// Sites checked.
    pub sites_checked: usize,
    /// With rta label.
    pub with_rta_label: usize,
    /// With rta percentage.
    pub with_rta_pct: f64,
}

/// Scans a crawl (with stored DOM) for the RTA meta tag.
pub fn rta_prevalence(crawl: &CrawlRecord) -> RtaReport {
    let mut checked = 0usize;
    let mut with_label = 0usize;
    for record in crawl.successful() {
        if record.visit.dom_html.is_empty() {
            continue;
        }
        checked += 1;
        let doc = redlight_html::parser::parse(&record.visit.dom_html);
        let labeled = redlight_html::query::by_tag(&doc, "meta")
            .into_iter()
            .any(|id| {
                doc.element(id).is_some_and(|e| {
                    e.attr("name")
                        .is_some_and(|n| n.eq_ignore_ascii_case("rating"))
                        && e.attr("content").is_some_and(|c| c.contains("RTA-"))
                })
            });
        if labeled {
            with_label += 1;
        }
    }
    RtaReport {
        sites_checked: checked,
        with_rta_label: with_label,
        with_rta_pct: pct(with_label, checked.max(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        domain: &str,
        country: Country,
        gate: bool,
        bypassed: bool,
        social: bool,
    ) -> InteractionRecord {
        InteractionRecord {
            domain: domain.into(),
            country,
            reachable: true,
            age_gate_detected: gate,
            age_gate_bypassed: bypassed,
            social_login_gate: social,
            policy_url: None,
            policy_text: None,
            login_signal: false,
            premium_signal: false,
            premium_page: None,
        }
    }

    #[test]
    fn comparison_detects_regional_differences() {
        let es = vec![
            rec("a.com", Country::Spain, true, true, false),
            rec("b.com", Country::Spain, true, true, false),
            rec("c.com", Country::Spain, false, false, false),
            rec("d.com", Country::Spain, false, false, false),
        ];
        let ru = vec![
            rec("a.com", Country::Russia, true, false, true), // social login
            rec("b.com", Country::Russia, false, false, false), // gate dropped in RU
            rec("c.com", Country::Russia, true, true, false), // RU-only gate
            rec("d.com", Country::Russia, false, false, false),
        ];
        let cmp = compare(&[es, ru]);
        assert_eq!(cmp.per_country[0].with_gate, 2);
        assert_eq!(cmp.per_country[1].with_gate, 2);
        assert_eq!(cmp.per_country[1].social_login, 1);
        // c.com gates only in Russia; b.com gates everywhere but Russia.
        assert!((cmp.russia_only_pct - 25.0).abs() < 1e-9);
        assert!((cmp.not_in_russia_pct - 25.0).abs() < 1e-9);
        // 4 gates total, 1 social ⇒ 3 bypassable, 3 bypassed.
        assert!((cmp.bypass_rate_pct - 100.0).abs() < 1e-9);
    }
}
