//! Oracle test for the per-domain lookups of Tables 4 and 5: both tables
//! must match, row for row, the linear per-row scans they replaced.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use proptest::collection::vec;
use proptest::prelude::*;
use redlight_analysis::ats::AtsClassifier;
use redlight_analysis::cookies::{self, CookieRow, Table4Row};
use redlight_analysis::fingerprint::{self, FingerprintReport, ScriptId, Table5Row};
use redlight_analysis::thirdparty::{SiteParties, ThirdPartyExtract};
use redlight_analysis::util::{pct, reg};
use redlight_analysis::webrtc::WebRtcReport;
use redlight_browser::PageVisit;
use redlight_crawler::db::{CorpusLabel, CrawlRecord};
use redlight_net::geoip::Country;
use redlight_net::url::Url;

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 77);

/// Registrable domains the drawn hosts belong to. `porn-only.com` never
/// appears in a regular crawl unless drawn there.
const BASES: [&str; 5] = [
    "exo.com",
    "trk.co.uk",
    "cdn.io",
    "porn-only.com",
    "site0.com",
];

/// Prefixes that put a host on the base itself or under a sub-domain, so
/// several drawn FQDNs share one registrable domain.
const PREFIXES: [&str; 4] = ["", "www.", "img1.", "a.b."];

fn host(i: usize) -> String {
    format!(
        "{}{}",
        PREFIXES[i % PREFIXES.len()],
        BASES[i / PREFIXES.len()]
    )
}

const HOSTS: usize = BASES.len() * PREFIXES.len();

/// Cookie values: too short, a plain ID, and IDs embedding the client IP
/// in clear and behind base64.
const VALUES: [&str; 4] = [
    "abc",
    "abcdef0123",
    "uid=203.0.113.77",
    "aXA9MjAzLjAuMTEzLjc3",
];

/// A crawl with `n` successful visits, the denominator of Table 4's site
/// percentages.
fn crawl_with(n: usize) -> CrawlRecord {
    let mut crawl = CrawlRecord::new(Country::Spain, CorpusLabel::Porn, CLIENT_IP);
    for i in 0..n {
        let url = Url::parse(&format!("https://s{i}.com/")).expect("valid URL");
        let visit = PageVisit {
            success: true,
            ..PageVisit::failed(url, false)
        };
        crawl.push_visit(&format!("s{i}.com"), visit);
    }
    crawl
}

fn classifier() -> AtsClassifier {
    AtsClassifier::from_lists("||exo.com^\n", "||cdn.io^\n")
}

/// Table 4 as it was built with a scan of every regular FQDN per row.
fn linear_table4(
    crawl: &CrawlRecord,
    rows: &[CookieRow],
    ats: &AtsClassifier,
    regular_third_party: &BTreeSet<String>,
    client_ip: Ipv4Addr,
    top_n: usize,
) -> Vec<Table4Row> {
    let crawled = crawl.success_count();
    let mut per_domain: BTreeMap<&str, (BTreeSet<&str>, usize, usize)> = BTreeMap::new();
    for row in rows
        .iter()
        .filter(|r| r.third_party && cookies::is_id_cookie(r))
    {
        let entry = per_domain.entry(row.domain.as_str()).or_default();
        entry.0.insert(row.site.as_str());
        entry.1 += 1;
        if cookies::embeds_ip(&row.value, client_ip) {
            entry.2 += 1;
        }
    }
    let mut table: Vec<Table4Row> = per_domain
        .into_iter()
        .map(|(domain, (sites, cookies, with_ip))| Table4Row {
            site_pct: pct(sites.len(), crawled),
            cookies,
            is_ats: ats.is_ats_fqdn(domain),
            in_web_ecosystem: regular_third_party.iter().any(|f| reg(f) == domain),
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

/// Table 5 as it was built with scans of every script, site and regular
/// FQDN per row.
fn linear_table5(
    fp: &FingerprintReport,
    rtc: &WebRtcReport,
    porn_extract: &ThirdPartyExtract,
    regular_extract: &ThirdPartyExtract,
    ats: &AtsClassifier,
    top_n: usize,
) -> Vec<Table5Row> {
    let presence = |registrable: &str| {
        porn_extract
            .per_site
            .values()
            .filter(|p| p.third.iter().any(|f| reg(f) == registrable))
            .count()
    };
    let mut domains: BTreeSet<String> = BTreeSet::new();
    for s in &fp.canvas_scripts {
        domains.insert(reg(&s.host).to_string());
    }
    for s in &rtc.scripts {
        domains.insert(reg(&s.host).to_string());
    }
    let mut rows: Vec<Table5Row> = domains
        .into_iter()
        .filter(|d| presence(d) > 0)
        .map(|domain| Table5Row {
            presence: presence(&domain),
            is_ats: ats.is_ats_fqdn(&domain),
            in_regular_web: regular_extract
                .third_party_fqdns
                .iter()
                .any(|f| reg(f) == domain),
            canvas_scripts: fp
                .canvas_scripts
                .iter()
                .filter(|s| reg(&s.host) == domain)
                .count(),
            webrtc_scripts: rtc
                .scripts
                .iter()
                .filter(|s| reg(&s.host) == domain)
                .count(),
            domain,
        })
        .collect();
    rows.sort_by(|a, b| b.presence.cmp(&a.presence).then(a.domain.cmp(&b.domain)));
    rows.truncate(top_n);
    rows
}

fn debug_rows<T: std::fmt::Debug>(rows: &[T]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

fn hosts(ids: &[usize]) -> BTreeSet<String> {
    ids.iter().map(|&i| host(i)).collect()
}

/// Script paths per host, so one host can serve several scripts.
const PATHS: usize = 3;

fn scripts(codes: &[usize]) -> BTreeSet<ScriptId> {
    codes
        .iter()
        .map(|&code| ScriptId {
            host: host(code / PATHS),
            path: format!("/fp{}.js", code % PATHS),
        })
        .collect()
}

/// Sites, cookie names and the flag pair `(session, third party)` that a
/// drawn cookie row picks from, with [`BASES`] and [`VALUES`].
const SITES: usize = 6;
const NAMES: usize = 3;
const ROW_CODES: usize = SITES * BASES.len() * NAMES * VALUES.len() * 4;

/// Decodes one drawn code in `0..ROW_CODES` into a cookie row.
fn cookie_row(code: usize) -> CookieRow {
    let mut code = code;
    let mut digit = |n: usize| {
        let d = code % n;
        code /= n;
        d
    };
    let (site, base, name, value, flags) = (
        digit(SITES),
        digit(BASES.len()),
        digit(NAMES),
        digit(VALUES.len()),
        digit(4),
    );
    CookieRow {
        site: format!("s{site}.com"),
        domain: BASES[base].to_string(),
        name: format!("c{name}"),
        value: VALUES[value].to_string(),
        session: flags & 1 == 1,
        third_party: flags & 2 == 2,
    }
}

proptest! {
    #[test]
    fn table4_matches_linear_scans(
        draws in vec(0..ROW_CODES, 0..40),
        regular in vec(0..HOSTS, 0..12),
        crawled in 0..8usize,
        top_n in 0..8usize,
    ) {
        let rows: Vec<CookieRow> = draws.into_iter().map(cookie_row).collect();
        let regular = hosts(&regular);
        let crawl = crawl_with(crawled);
        let ats = classifier();
        let fast = cookies::table4(&crawl, &rows, &ats, &regular, CLIENT_IP, top_n);
        let slow = linear_table4(&crawl, &rows, &ats, &regular, CLIENT_IP, top_n);
        prop_assert_eq!(debug_rows(&fast), debug_rows(&slow));
    }

    #[test]
    fn table5_matches_linear_scans(
        canvas in vec(0..HOSTS * PATHS, 0..12),
        rtc in vec(0..HOSTS * PATHS, 0..12),
        sites in vec(vec(0..HOSTS, 0..6), 0..8),
        regular in vec(0..HOSTS, 0..12),
        top_n in 0..12usize,
    ) {
        let fp = FingerprintReport {
            canvas_scripts: scripts(&canvas),
            ..fingerprint::finalize(Default::default())
        };
        let rtc = WebRtcReport {
            scripts: scripts(&rtc),
            sites: BTreeSet::new(),
            services: BTreeSet::new(),
            ats_services: BTreeSet::new(),
            sites_with_other_tracking: 0,
        };
        let porn_extract = ThirdPartyExtract {
            per_site: sites
                .iter()
                .enumerate()
                .map(|(i, third)| {
                    let parties = SiteParties { first: BTreeSet::new(), third: hosts(third) };
                    (format!("s{i}.com"), parties)
                })
                .collect(),
            ..Default::default()
        };
        let regular_extract = ThirdPartyExtract {
            third_party_fqdns: hosts(&regular),
            ..Default::default()
        };
        let ats = classifier();
        let fast = fingerprint::table5(&fp, &rtc, &porn_extract, &regular_extract, &ats, top_n);
        let slow = linear_table5(&fp, &rtc, &porn_extract, &regular_extract, &ats, top_n);
        prop_assert_eq!(debug_rows(&fast), debug_rows(&slow));
    }
}
