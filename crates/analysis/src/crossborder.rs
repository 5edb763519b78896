//! Cross-border data flows (the paper's §10 future work, after Iordanou et
//! al., IMC'18).
//!
//! For a crawl from an EU vantage point, GDPR Chapter V restricts transfers
//! of personal data to third countries. This analysis geolocates each
//! contacted third-party server (via the geo-IP view the caller supplies)
//! and measures how much identifier-bearing traffic leaves the visitor's
//! jurisdiction. "Identifier-bearing" is approximated session-causally: a
//! request carries identifiers once its registrable domain has set a cookie
//! earlier in the session.

use std::collections::{BTreeMap, BTreeSet};

use redlight_net::geoip::Country;
use redlight_text::stats::pct;

use crate::util::{reg, same_site};
use redlight_crawler::db::CrawlRecord;

/// Geo-IP view of server locations.
pub type HostingResolver<'a> = &'a dyn Fn(&str) -> Country;

/// Cross-border findings for one crawl.
#[derive(Debug, Clone)]
pub struct CrossBorderReport {
    /// Vantage-point country of the crawl.
    pub vantage: Country,
    /// Whether GDPR applies at the vantage point.
    pub gdpr_jurisdiction: bool,
    /// Successful third-party requests, total.
    pub third_party_requests: usize,
    /// Of those, requests to domains already holding an identifier cookie.
    pub identifier_bearing: usize,
    /// Identifier-bearing requests answered outside the jurisdiction
    /// (EU-leaving flows for an EU crawl).
    pub leaving_jurisdiction: usize,
    /// Leaving percentage.
    pub leaving_pct: f64,
    /// Identifier-bearing request volume by hosting country.
    pub by_destination: BTreeMap<Country, usize>,
    /// Distinct third-party domains receiving identifiers abroad.
    pub foreign_identifier_domains: usize,
}

/// Countries forming the GDPR jurisdiction in this model (EU member states
/// — Spain — plus the UK, which transposed the GDPR in 2018).
fn in_gdpr_zone(country: Country) -> bool {
    country.gdpr_applies()
}

/// Runs the analysis over one crawl.
pub fn report(crawl: &CrawlRecord, hosting: HostingResolver<'_>) -> CrossBorderReport {
    let vantage = crawl.country;
    let gdpr = in_gdpr_zone(vantage);

    // Registrable domains that have set a cookie so far in the session.
    let mut cookie_holders: BTreeSet<String> = BTreeSet::new();
    let mut third_party_requests = 0usize;
    let mut identifier_bearing = 0usize;
    let mut leaving = 0usize;
    let mut by_destination: BTreeMap<Country, usize> = BTreeMap::new();
    let mut foreign_domains: BTreeSet<String> = BTreeSet::new();

    for record in crawl.successful() {
        let Some(final_url) = &record.visit.final_url else {
            continue;
        };
        let site_host = final_url.host().as_str().to_string();
        for obs in &record.visit.cookies {
            if obs.accepted {
                cookie_holders.insert(reg(&obs.effective_domain).to_string());
            }
        }
        for req in &record.visit.requests {
            if req.status.is_none() {
                continue;
            }
            let host = req.url.host().as_str();
            if same_site(host, &site_host) {
                continue;
            }
            third_party_requests += 1;
            let domain = reg(host).to_string();
            if !cookie_holders.contains(&domain) {
                continue;
            }
            identifier_bearing += 1;
            let destination = hosting(host);
            *by_destination.entry(destination).or_default() += 1;
            let crosses = if gdpr {
                !in_gdpr_zone(destination)
            } else {
                destination != vantage
            };
            if crosses {
                leaving += 1;
                foreign_domains.insert(domain);
            }
        }
    }

    CrossBorderReport {
        vantage,
        gdpr_jurisdiction: gdpr,
        third_party_requests,
        identifier_bearing,
        leaving_pct: pct(leaving, identifier_bearing.max(1)),
        leaving_jurisdiction: leaving,
        by_destination,
        foreign_identifier_domains: foreign_domains.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gdpr_zone_membership() {
        assert!(in_gdpr_zone(Country::Spain));
        assert!(in_gdpr_zone(Country::Uk));
        assert!(!in_gdpr_zone(Country::Usa));
        assert!(!in_gdpr_zone(Country::Russia));
    }
}
