//! Parent-company attribution of third-party services (§4.2(3), Fig. 3).
//!
//! Disconnect's domain-to-company mapping is known to be incomplete, so the
//! attributor complements it with the organization field of each domain's
//! X.509 certificate (ignoring subjects that merely repeat a domain name).
//! The paper reports Disconnect alone resolving 142 FQDNs vs 4,477 (74 %)
//! with certificates.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use redlight_blocklist::EntityList;
use redlight_net::tls::CertSummary;
use redlight_obs::Registry;

use crate::thirdparty::ThirdPartyExtract;
use redlight_crawler::db::CrawlRecord;

/// An out-of-band TLS probe: host → certificate digest, when one exists.
pub type CertProbe<'a> = &'a dyn Fn(&str) -> Option<CertSummary>;

/// Best certificate digest observed per FQDN, harvested once from crawl
/// traffic (plus the out-of-band probe) and shared by every attributor
/// built over the same crawls — the harvest walks all requests of all
/// crawls, so recomputing it per stage was the organizations stage's
/// dominant cost.
#[derive(Debug, Clone, Default)]
pub struct CertHarvest {
    /// FQDN → certificate digest.
    pub certs: BTreeMap<String, CertSummary>,
}

impl CertHarvest {
    /// Harvests certificates from the crawls, then probes every remaining
    /// contacted FQDN with `probe` (out-of-band TLS handshake; `None` when
    /// the host has no certificate).
    pub fn collect(crawls: &[&CrawlRecord], probe: Option<CertProbe<'_>>) -> Self {
        Self::collect_in(crawls, probe, &Registry::new())
    }

    /// [`CertHarvest::collect`] publishing `cache.cert-harvest.hits`
    /// (hosts whose certificate came from crawl traffic) and
    /// `cache.cert-harvest.misses` (contacted hosts that needed the
    /// out-of-band probe) into `registry`. Harvest contents are identical
    /// to [`CertHarvest::collect`].
    pub fn collect_in(
        crawls: &[&CrawlRecord],
        probe: Option<CertProbe<'_>>,
        registry: &Registry,
    ) -> Self {
        let hits = registry.counter("cache.cert-harvest.hits");
        let misses = registry.counter("cache.cert-harvest.misses");
        let mut certs: BTreeMap<String, CertSummary> = BTreeMap::new();
        let mut contacted: BTreeSet<String> = BTreeSet::new();
        for crawl in crawls {
            for record in crawl.successful() {
                for req in &record.visit.requests {
                    let host = req.url.host().as_str().to_string();
                    if let Some(cert) = &req.cert {
                        certs.entry(host.clone()).or_insert_with(|| cert.clone());
                    }
                    contacted.insert(host);
                }
            }
        }
        hits.add(certs.len() as u64);
        if let Some(probe) = probe {
            for host in contacted {
                if let std::collections::btree_map::Entry::Vacant(e) = certs.entry(host.clone()) {
                    misses.inc();
                    if let Some(cert) = probe(&host) {
                        e.insert(cert);
                    }
                }
            }
        }
        CertHarvest { certs }
    }
}

/// How an FQDN was attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttributionSource {
    /// Resolved through the Disconnect entity list.
    Disconnect,
    /// Resolved through the X.509 subject organization.
    Certificate,
}

/// The attributor.
pub struct OrgAttributor<'a> {
    disconnect: &'a EntityList,
    /// Best certificate digest observed per FQDN — harvested from crawl
    /// traffic and complemented by an out-of-band TLS probe (researchers can
    /// always connect to port 443 of an observed FQDN, even when the site
    /// embedded it over plain HTTP). Owned when built via
    /// [`OrgAttributor::new`], borrowed when a [`CertHarvest`] is shared.
    certs: Cow<'a, BTreeMap<String, CertSummary>>,
}

impl<'a> OrgAttributor<'a> {
    /// Builds the attributor over a private harvest (see
    /// [`CertHarvest::collect`]).
    pub fn new(
        disconnect: &'a EntityList,
        crawls: &[&CrawlRecord],
        probe: Option<CertProbe<'_>>,
    ) -> Self {
        OrgAttributor {
            disconnect,
            certs: Cow::Owned(CertHarvest::collect(crawls, probe).certs),
        }
    }

    /// Builds the attributor over a shared, already-collected harvest
    /// without copying it.
    pub fn from_harvest(disconnect: &'a EntityList, harvest: &'a CertHarvest) -> Self {
        OrgAttributor {
            disconnect,
            certs: Cow::Borrowed(&harvest.certs),
        }
    }

    /// Attributes one FQDN to an organization.
    pub fn attribute(&self, fqdn: &str) -> Option<(String, AttributionSource)> {
        if let Some(owner) = self.disconnect.owner_of(fqdn) {
            return Some((owner.to_string(), AttributionSource::Disconnect));
        }
        self.certs
            .get(fqdn)
            .and_then(|c| c.org.clone())
            .map(|org| (normalize_org(&org), AttributionSource::Certificate))
    }

    /// Attribution coverage over a third-party FQDN set.
    pub fn coverage(&self, extract: &ThirdPartyExtract) -> AttributionStats {
        let mut resolved = 0usize;
        let mut disconnect_only = 0usize;
        let mut companies: BTreeSet<String> = BTreeSet::new();
        for fqdn in &extract.third_party_fqdns {
            if let Some((org, source)) = self.attribute(fqdn) {
                resolved += 1;
                if source == AttributionSource::Disconnect {
                    disconnect_only += 1;
                }
                companies.insert(org);
            }
        }
        AttributionStats {
            total_fqdns: extract.third_party_fqdns.len(),
            resolved_fqdns: resolved,
            resolved_by_disconnect: disconnect_only,
            companies: companies.len(),
        }
    }

    /// Fig. 3: per-organization prevalence — the fraction of successfully
    /// crawled sites embedding at least one of the org's services.
    pub fn prevalence(&self, extract: &ThirdPartyExtract, crawl_size: usize) -> Vec<OrgPrevalence> {
        let mut by_org: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
        for (site, parties) in &extract.per_site {
            for fqdn in &parties.third {
                if let Some((org, _)) = self.attribute(fqdn) {
                    by_org.entry(org).or_default().insert(site.as_str());
                }
            }
        }
        let mut out: Vec<OrgPrevalence> = by_org
            .into_iter()
            .map(|(organization, sites)| OrgPrevalence {
                organization,
                sites: sites.len(),
                fraction: redlight_text::stats::pct(sites.len(), crawl_size) / 100.0,
            })
            .collect();
        out.sort_by(|a, b| {
            b.sites
                .cmp(&a.sites)
                .then(a.organization.cmp(&b.organization))
        });
        out
    }
}

/// Normalizes a certificate organization string to a company label
/// ("ExoClick S.L." → "ExoClick").
fn normalize_org(org: &str) -> String {
    const SUFFIXES: &[&str] = &[
        " inc.",
        " inc",
        " llc",
        " ltd.",
        " ltd",
        " s.l.",
        " sa",
        " bv",
        " corp.",
        " corp",
        " corporation",
        " group",
        " co.",
    ];
    let mut out = org.trim().to_string();
    let lower = out.to_lowercase();
    for suffix in SUFFIXES {
        if lower.ends_with(suffix) {
            out.truncate(out.len() - suffix.len());
            break;
        }
    }
    out.trim_end_matches(',').trim().to_string()
}

/// Coverage numbers (§4.2(3)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionStats {
    /// Total FQDNs.
    pub total_fqdns: usize,
    /// Resolved FQDNs.
    pub resolved_fqdns: usize,
    /// Resolved by disconnect.
    pub resolved_by_disconnect: usize,
    /// Companies.
    pub companies: usize,
}

/// One Fig. 3 bar.
#[derive(Debug, Clone)]
pub struct OrgPrevalence {
    /// Attributed organization label.
    pub organization: String,
    /// Porn sites embedding at least one of the org's services.
    pub sites: usize,
    /// Fraction of crawled sites (0–1).
    pub fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn org_normalization() {
        assert_eq!(normalize_org("ExoClick S.L."), "ExoClick");
        assert_eq!(normalize_org("Oracle Corporation"), "Oracle");
        assert_eq!(normalize_org("Amazon.com, Inc."), "Amazon.com");
        assert_eq!(normalize_org("HProfits Group"), "HProfits");
        assert_eq!(normalize_org("Plain Name"), "Plain Name");
    }
}
