//! HTTPS posture (§5.2, Table 6).
//!
//! Each site is crawled HTTPS-first with HTTP downgrade, so a site
//! "supports HTTPS" when its document loaded without downgrading. A
//! third-party service supports HTTPS when at least one request to it
//! succeeded over HTTPS. A site is *fully* HTTPS only when the document and
//! every embedded resource travelled encrypted — the paper finds 68 % of
//! porn sites fail that bar, and 8 % of those leak cookies in clear text.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use redlight_net::http::Scheme;
use redlight_rankings::PopularityTier;
use redlight_text::stats::pct;

use crate::cookies::{embeds_geo, embeds_ip};
use redlight_crawler::db::CrawlRecord;

/// One Table 6 band.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Tier.
    pub tier: PopularityTier,
    /// Sites.
    pub sites: usize,
    /// Sites HTTPS percentage.
    pub sites_https_pct: f64,
    /// Third party FQDNs.
    pub third_party_fqdns: usize,
    /// Third party HTTPS percentage.
    pub third_party_https_pct: f64,
}

/// Aggregate §5.2 numbers.
#[derive(Debug, Clone)]
pub struct HttpsReport {
    /// Rows.
    pub rows: Vec<Table6Row>,
    /// Sites that are NOT fully HTTPS (document or any subresource plain).
    pub not_fully_https: usize,
    /// Not fully HTTPS percentage.
    pub not_fully_https_pct: f64,
    /// Of the not-fully-HTTPS sites, those sending cookies over plain HTTP.
    pub clear_cookie_sites: usize,
    /// Clear cookie percentage.
    pub clear_cookie_pct: f64,
}

/// Tallies a crawl's HTTPS posture into the [`HttpsReport`]. `tier_of`
/// maps a crawled domain to its popularity tier (from the rank analysis —
/// observable via the toplist, not ground truth); `client_ip` feeds the
/// sensitive-payload detection for clear-text leaks.
pub fn report(
    crawl: &CrawlRecord,
    tier_of: &BTreeMap<String, PopularityTier>,
    client_ip: Ipv4Addr,
) -> HttpsReport {
    // Per-tier site tallies.
    let mut site_total: BTreeMap<PopularityTier, usize> = BTreeMap::new();
    let mut site_https: BTreeMap<PopularityTier, usize> = BTreeMap::new();
    // Third-party FQDN → (tiers seen on, any https success).
    let mut tp_tiers: BTreeMap<String, BTreeSet<PopularityTier>> = BTreeMap::new();
    let mut tp_https: BTreeMap<String, bool> = BTreeMap::new();
    let mut not_fully = 0usize;
    let mut clear_cookies = 0usize;

    for record in crawl.successful() {
        let Some(final_url) = &record.visit.final_url else {
            continue;
        };
        let tier = tier_of
            .get(crawl.name(record.domain))
            .copied()
            .unwrap_or(PopularityTier::Beyond100k);
        *site_total.entry(tier).or_default() += 1;
        let site_is_https = final_url.scheme() == Scheme::Https && !record.visit.https_downgraded;
        if site_is_https {
            *site_https.entry(tier).or_default() += 1;
        }

        let site_host = final_url.host().as_str();
        let mut all_encrypted = site_is_https;
        let mut plain_with_cookies = false;
        for req in &record.visit.requests {
            let host = req.url.host().as_str().to_string();
            let ok = req.status.is_some();
            let third = crate::util::reg(&host) != crate::util::reg(site_host);
            if third && ok {
                tp_tiers.entry(host.clone()).or_default().insert(tier);
                let https_ok = req.url.scheme() == Scheme::Https;
                let entry = tp_https.entry(host).or_default();
                *entry |= https_ok;
            }
            if ok && req.url.scheme() == Scheme::Http {
                all_encrypted = false;
            }
        }
        // Sensitive data in the clear (§5.2): a cookie whose value carries
        // the client's IP or geolocation was delivered over plain HTTP.
        plain_with_cookies |= record.visit.cookies.iter().any(|c| {
            !c.secure_channel
                && (embeds_ip(&c.cookie.value, client_ip) || embeds_geo(&c.cookie.value))
        });
        if !all_encrypted {
            not_fully += 1;
            if plain_with_cookies {
                clear_cookies += 1;
            }
        }
    }

    let rows = PopularityTier::ALL
        .into_iter()
        .map(|tier| {
            let sites = site_total.get(&tier).copied().unwrap_or(0);
            let https_sites = site_https.get(&tier).copied().unwrap_or(0);
            let tier_fqdns: Vec<&String> = tp_tiers
                .iter()
                .filter(|(_, tiers)| tiers.contains(&tier))
                .map(|(f, _)| f)
                .collect();
            let https_fqdns = tier_fqdns
                .iter()
                .filter(|f| tp_https.get(**f).copied().unwrap_or(false))
                .count();
            Table6Row {
                tier,
                sites,
                sites_https_pct: pct(https_sites, sites.max(1)),
                third_party_fqdns: tier_fqdns.len(),
                third_party_https_pct: pct(https_fqdns, tier_fqdns.len().max(1)),
            }
        })
        .collect();

    HttpsReport {
        rows,
        not_fully_https: not_fully,
        not_fully_https_pct: pct(not_fully, crawl.success_count().max(1)),
        clear_cookie_sites: clear_cookies,
        clear_cookie_pct: pct(clear_cookies, not_fully.max(1)),
    }
}
