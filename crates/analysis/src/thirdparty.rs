//! First- vs third-party classification and per-crawl extraction (§4.2(1)).
//!
//! For each URL observed while crawling a site, the classifier compares the
//! request's FQDN and X.509 certificate against the host website's; when
//! neither establishes a relationship, the Levenshtein similarity of the two
//! FQDNs decides (≥ 0.7 ⇒ same entity). This groups `doublepimp.com` with
//! `doublepimpssl.com` while separating it from `doubleclick.net`.

use std::collections::{BTreeMap, BTreeSet};

use redlight_browser::Initiator;
use redlight_net::tls::CertSummary;
use redlight_text::levenshtein;

use crate::util::reg;
use redlight_crawler::db::CrawlRecord;

/// Party classification of one observed FQDN relative to a host site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Party {
    /// Same entity as the visited site.
    First,
    /// A different entity.
    Third,
}

/// Classifies `request_host` relative to `site_host` using the paper's three
/// signals in order: registrable-domain match, certificate identity,
/// Levenshtein similarity ≥ 0.7.
pub fn classify(
    site_host: &str,
    site_cert: Option<&CertSummary>,
    request_host: &str,
    request_cert: Option<&CertSummary>,
) -> Party {
    let (site_reg, request_reg) = (reg(site_host), reg(request_host));
    if site_reg == request_reg {
        return Party::First;
    }
    if let (Some(a), Some(b)) = (site_cert, request_cert) {
        if a.same_identity(b) {
            return Party::First;
        }
    }
    if levenshtein::same_entity(site_reg, request_reg) {
        return Party::First;
    }
    Party::Third
}

/// Distinct parties observed on one site.
#[derive(Debug, Clone, Default)]
pub struct SiteParties {
    /// First-party FQDNs other than the site's own hostname.
    pub first: BTreeSet<String>,
    /// Third-party FQDNs.
    pub third: BTreeSet<String>,
}

/// Corpus-wide extraction result.
#[derive(Debug, Clone, Default)]
pub struct ThirdPartyExtract {
    /// Per crawled site (keyed by corpus domain).
    pub per_site: BTreeMap<String, SiteParties>,
    /// All distinct first-party FQDNs (excluding the sites' own hosts).
    pub first_party_fqdns: BTreeSet<String>,
    /// All distinct third-party FQDNs.
    pub third_party_fqdns: BTreeSet<String>,
    /// All FQDNs contacted (including site hosts).
    pub contacted_fqdns: BTreeSet<String>,
}

/// Extracts parties from a crawl. `include_chained` keeps requests caused by
/// embedded frames (RTB inclusion chains); Table 7 excludes them, the main
/// §4.2 analysis includes them.
pub fn extract(crawl: &CrawlRecord, include_chained: bool) -> ThirdPartyExtract {
    let mut out = ThirdPartyExtract::default();
    for record in crawl.successful() {
        let visit = &record.visit;
        let Some(final_url) = &visit.final_url else {
            continue;
        };
        let site_host = final_url.host().as_str();
        // The document response's certificate is the site's certificate.
        let site_cert = visit
            .requests
            .iter()
            .find(|r| r.kind == redlight_net::http::ResourceKind::Document && r.cert.is_some())
            .and_then(|r| r.cert.clone());

        let parties = out
            .per_site
            .entry(crawl.name(record.domain).to_string())
            .or_default();
        for req in &visit.requests {
            if req.status.is_none() {
                continue; // unreachable: nothing was contacted
            }
            if !include_chained {
                if let Initiator::Frame(_) = req.initiator {
                    continue;
                }
            }
            let host = req.url.host().as_str();
            out.contacted_fqdns.insert(host.to_string());
            if host == site_host {
                continue;
            }
            match classify(site_host, site_cert.as_ref(), host, req.cert.as_ref()) {
                Party::First => {
                    parties.first.insert(host.to_string());
                    out.first_party_fqdns.insert(host.to_string());
                }
                Party::Third => {
                    parties.third.insert(host.to_string());
                    out.third_party_fqdns.insert(host.to_string());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use redlight_net::tls::Certificate;

    fn cs(cn: &str, org: Option<&str>, serial: u64) -> CertSummary {
        (&Certificate::leaf(cn, org, vec![], serial)).into()
    }

    #[test]
    fn registrable_match_is_first_party() {
        assert_eq!(
            classify("pornhub.com", None, "cdn.pornhub.com", None),
            Party::First
        );
    }

    #[test]
    fn cert_identity_is_first_party() {
        let site = cs("site-a.com", Some("Acme Networks"), 1);
        let cdn = cs("static-acme.net", Some("Acme Networks"), 2);
        assert_eq!(
            classify("site-a.com", Some(&site), "static-acme.net", Some(&cdn)),
            Party::First
        );
    }

    #[test]
    fn levenshtein_groups_paper_example() {
        assert_eq!(
            classify("doublepimp.com", None, "doublepimpssl.com", None),
            Party::First
        );
        assert_eq!(
            classify("doublepimp.com", None, "doubleclick.net", None),
            Party::Third
        );
    }

    #[test]
    fn unrelated_hosts_are_third_party() {
        assert_eq!(
            classify("somesite.com", None, "exoclick.com", None),
            Party::Third
        );
    }
}
