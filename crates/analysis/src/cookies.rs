//! The HTTP-cookie pipeline (§5.1.1) and Table 4.
//!
//! Steps, as in the paper: collect every cookie-set event; discard session
//! cookies and values shorter than 6 characters (unlikely to hold unique
//! identifiers); split first- vs third-party by the cookie's effective
//! domain; decode values (base64 and URL encoding) hunting for the client's
//! IP address and geolocation payloads.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use redlight_net::codec;
use redlight_text::stats::pct;

use crate::ats::AtsClassifier;
use crate::util::reg;
use redlight_crawler::db::CrawlRecord;

/// Minimum value length for a cookie to plausibly carry a unique ID.
pub const MIN_ID_LEN: usize = 6;

/// One aggregated cookie observation: `(site, setting domain, name)`.
#[derive(Debug, Clone)]
pub struct CookieRow {
    /// The crawled domain the cookie was observed on.
    pub site: String,
    /// Registrable domain the cookie is scoped to.
    pub domain: String,
    /// Cookie name.
    pub name: String,
    /// Cookie value as delivered.
    pub value: String,
    /// No expiry was set (a session cookie).
    pub session: bool,
    /// The cookie domain differs from the site's registrable domain.
    pub third_party: bool,
}

/// Full §5.1.1 statistics.
#[derive(Debug, Clone)]
pub struct CookieStats {
    /// All distinct (site, domain, name) cookie observations.
    pub total_cookies: usize,
    /// Fraction of crawled sites setting at least one cookie.
    pub sites_with_cookies_pct: f64,
    /// Cookies surviving the ID filter (non-session, len ≥ 6).
    pub id_cookies: usize,
    /// ID cookies longer than 1,000 characters.
    pub long_cookies: usize,
    /// Longest observed value.
    pub max_value_len: usize,
    /// Third-party ID cookies.
    pub third_party_id_cookies: usize,
    /// Distinct third-party domains delivering ID cookies.
    pub third_party_domains: usize,
    /// Fraction of sites with at least one third-party ID cookie.
    pub sites_with_third_party_pct: f64,
    /// Cookies whose decoded value contains the client IP.
    pub ip_cookies: usize,
    /// Fraction of IP cookies delivered by the top IP-embedding registrable
    /// domain's organization family.
    pub ip_cookies_top_org_pct: f64,
    /// Sites where IP-embedding cookies were observed.
    pub ip_cookie_sites: usize,
    /// Cookies carrying geolocation payloads.
    pub geo_cookies: usize,
    /// Sites with geolocation cookies.
    pub geo_cookie_sites: usize,
    /// Domains delivering geolocation cookies.
    pub geo_cookie_domains: Vec<String>,
    /// Share of sites carrying at least one of the 100 most popular
    /// `name=value` cookies (§5.1.1: "the 100 most popular cookies appear
    /// in over 30 % of the total porn websites") — the same browser session
    /// re-receives identical uid cookies across sites.
    pub top100_cookie_site_pct: f64,
}

/// One Table 4 row.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Registrable domain delivering the cookies.
    pub domain: String,
    /// % of crawled porn sites where the domain delivers ID cookies.
    pub site_pct: f64,
    /// Distinct ID-cookie observations for the domain.
    pub cookies: usize,
    /// EasyList/EasyPrivacy flag the domain (relaxed matching).
    pub is_ats: bool,
    /// Also observed in the regular-web reference crawl.
    pub in_web_ecosystem: bool,
    /// % of this domain's cookies embedding the client IP.
    pub ip_pct: f64,
}

/// Collects deduplicated cookie rows from a crawl, in visit order.
pub fn collect(crawl: &CrawlRecord) -> Vec<CookieRow> {
    let mut seen: BTreeSet<(String, String, String)> = BTreeSet::new();
    let mut rows = Vec::new();
    for record in crawl.successful() {
        let Some(final_url) = &record.visit.final_url else {
            continue;
        };
        let site = crawl.name(record.domain);
        let site_reg = reg(final_url.host().as_str()).to_string();
        for obs in &record.visit.cookies {
            if !obs.accepted {
                continue;
            }
            let domain = reg(&obs.effective_domain).to_string();
            let key = (site.to_string(), domain.clone(), obs.cookie.name.clone());
            if !seen.insert(key) {
                continue;
            }
            rows.push(CookieRow {
                site: site.to_string(),
                third_party: domain != site_reg,
                domain,
                name: obs.cookie.name.clone(),
                value: obs.cookie.value.clone(),
                session: obs.cookie.is_session(),
            });
        }
    }
    rows
}

/// `true` when the row survives the ID-cookie filter.
pub fn is_id_cookie(row: &CookieRow) -> bool {
    !row.session && row.value.chars().count() >= MIN_ID_LEN
}

/// Decodes a cookie value looking for the crawler's IP.
pub fn embeds_ip(value: &str, client_ip: Ipv4Addr) -> bool {
    let needle = client_ip.to_string();
    if value.contains(&needle) || codec::percent_decode(value).contains(&needle) {
        return true;
    }
    codec::base64_decode_lossy_text(value).is_some_and(|text| text.contains(&needle))
}

/// Decodes a cookie value looking for coordinates (`lat=…`, `lon=…`).
pub fn embeds_geo(value: &str) -> bool {
    let decoded = codec::percent_decode(value);
    decoded.contains("lat=") && decoded.contains("lon=")
}

/// Whether the geo payload also names the network provider.
pub fn geo_includes_isp(value: &str) -> bool {
    codec::percent_decode(value).contains("isp=")
}

/// Computes the §5.1.1 statistics.
pub fn stats(crawl: &CrawlRecord, rows: &[CookieRow], client_ip: Ipv4Addr) -> CookieStats {
    let crawled = crawl.success_count();
    let sites_with: BTreeSet<&str> = rows.iter().map(|r| r.site.as_str()).collect();
    let id_rows: Vec<&CookieRow> = rows.iter().filter(|r| is_id_cookie(r)).collect();
    let third_id: Vec<&&CookieRow> = id_rows.iter().filter(|r| r.third_party).collect();
    let third_sites: BTreeSet<&str> = third_id.iter().map(|r| r.site.as_str()).collect();
    let third_domains: BTreeSet<&str> = third_id.iter().map(|r| r.domain.as_str()).collect();

    let ip_rows: Vec<&&CookieRow> = id_rows
        .iter()
        .filter(|r| embeds_ip(&r.value, client_ip))
        .collect();
    let ip_sites: BTreeSet<&str> = ip_rows.iter().map(|r| r.site.as_str()).collect();
    // Top IP-embedding registrable family (the ExoClick role in the paper).
    let mut by_domain: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &ip_rows {
        *by_domain.entry(r.domain.as_str()).or_default() += 1;
    }
    // Family = domains sharing the maximal org; approximate by taking the
    // two largest contributors (the exosrv/exoclick split).
    let mut counts: Vec<usize> = by_domain.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let top_family: usize = counts.iter().take(2).sum();
    let ip_top_pct = pct(top_family, ip_rows.len().max(1));

    // Popularity of exact `name=value` pairs across sites.
    let mut by_pair: BTreeMap<(&str, &str), BTreeSet<&str>> = BTreeMap::new();
    for r in rows {
        by_pair
            .entry((r.name.as_str(), r.value.as_str()))
            .or_default()
            .insert(r.site.as_str());
    }
    let mut pair_sites: Vec<&BTreeSet<&str>> = by_pair.values().collect();
    pair_sites.sort_by_key(|sites| std::cmp::Reverse(sites.len()));
    let mut covered: BTreeSet<&str> = BTreeSet::new();
    for sites in pair_sites.iter().take(100) {
        covered.extend(sites.iter());
    }
    let top100_pct = pct(covered.len(), crawled.max(1));

    let geo_rows: Vec<&CookieRow> = rows.iter().filter(|r| embeds_geo(&r.value)).collect();
    let geo_sites: BTreeSet<&str> = geo_rows.iter().map(|r| r.site.as_str()).collect();
    let geo_domains: BTreeSet<String> = geo_rows.iter().map(|r| r.domain.clone()).collect();

    CookieStats {
        total_cookies: rows.len(),
        sites_with_cookies_pct: pct(sites_with.len(), crawled),
        id_cookies: id_rows.len(),
        long_cookies: id_rows
            .iter()
            .filter(|r| r.value.chars().count() > 1_000)
            .count(),
        max_value_len: rows
            .iter()
            .map(|r| r.value.chars().count())
            .max()
            .unwrap_or(0),
        third_party_id_cookies: third_id.len(),
        third_party_domains: third_domains.len(),
        sites_with_third_party_pct: pct(third_sites.len(), crawled),
        ip_cookies: ip_rows.len(),
        ip_cookies_top_org_pct: ip_top_pct,
        ip_cookie_sites: ip_sites.len(),
        geo_cookies: geo_rows.len(),
        geo_cookie_sites: geo_sites.len(),
        geo_cookie_domains: geo_domains.into_iter().collect(),
        top100_cookie_site_pct: top100_pct,
    }
}

/// Builds Table 4: the top third-party ID-cookie-delivering domains. A
/// domain is in the web ecosystem when some regular-crawl third-party FQDN
/// shares its registrable domain.
pub fn table4(
    crawl: &CrawlRecord,
    rows: &[CookieRow],
    ats: &AtsClassifier,
    regular_third_party: &BTreeSet<String>,
    client_ip: Ipv4Addr,
    top_n: usize,
) -> Vec<Table4Row> {
    let crawled = crawl.success_count();
    let regular: BTreeSet<&str> = regular_third_party.iter().map(|f| reg(f)).collect();
    let mut per_domain: BTreeMap<&str, (BTreeSet<&str>, usize, usize)> = BTreeMap::new();
    for row in rows.iter().filter(|r| r.third_party && is_id_cookie(r)) {
        let entry = per_domain.entry(row.domain.as_str()).or_default();
        entry.0.insert(row.site.as_str());
        entry.1 += 1;
        if embeds_ip(&row.value, client_ip) {
            entry.2 += 1;
        }
    }
    let mut table: Vec<Table4Row> = per_domain
        .into_iter()
        .map(|(domain, (sites, cookies, with_ip))| Table4Row {
            site_pct: pct(sites.len(), crawled),
            cookies,
            is_ats: ats.is_ats_fqdn(domain),
            in_web_ecosystem: regular.contains(domain),
            ip_pct: pct(with_ip, cookies.max(1)),
            domain: domain.to_string(),
        })
        .collect();
    table.sort_by(|a, b| {
        b.site_pct
            .partial_cmp(&a.site_pct)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.domain.cmp(&b.domain))
    });
    table.truncate(top_n);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_filter_drops_session_and_short() {
        let mk = |value: &str, session: bool| CookieRow {
            site: "s.com".into(),
            domain: "t.com".into(),
            name: "uid".into(),
            value: value.into(),
            session,
            third_party: true,
        };
        assert!(is_id_cookie(&mk("abcdef0123", false)));
        assert!(!is_id_cookie(&mk("abcdef0123", true)));
        assert!(!is_id_cookie(&mk("abc", false)));
        assert!(is_id_cookie(&mk("abcdef", false)), "boundary: exactly 6");
    }

    #[test]
    fn ip_detection_through_encodings() {
        let ip = Ipv4Addr::new(203, 0, 113, 77);
        assert!(embeds_ip("x203.0.113.77y", ip));
        assert!(embeds_ip(
            &codec::base64_encode(b"ip=203.0.113.77&uid=42"),
            ip
        ));
        assert!(embeds_ip(&codec::percent_encode("ip=203.0.113.77"), ip));
        assert!(!embeds_ip("deadbeefdeadbeef", ip));
        assert!(!embeds_ip(&codec::base64_encode(b"ip=10.9.9.9"), ip));
    }

    #[test]
    fn geo_detection() {
        assert!(embeds_geo(&codec::percent_encode("lat=40.4,lon=-3.7")));
        assert!(geo_includes_isp(&codec::percent_encode(
            "lat=40.4,lon=-3.7,isp=Example Networks"
        )));
        assert!(!embeds_geo("uid=12345678"));
        assert!(!geo_includes_isp(&codec::percent_encode("lat=1,lon=2")));
    }
}
