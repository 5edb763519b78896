//! Property test: the token-indexed [`FilterSet`] is verdict-for-verdict
//! equivalent to the retained linear reference matcher.
//!
//! Rules and request URLs are generated from `u64` seeds over a shared pool
//! of domains (including `co.uk`-style public-suffix anchors, the one edge
//! where naive exception bucketing would diverge) and path segments chosen
//! to collide between rules and URLs often enough that every verdict —
//! `Blocked`, `Excepted`, `Clean` — is exercised.

use proptest::collection::vec;
use proptest::prelude::*;

use redlight_blocklist::{FilterSet, LinearFilterSet, RequestContext};
use redlight_net::http::ResourceKind;

/// Domain pool shared by rule anchors, page hosts and request hosts.
/// `co.uk` and `com.ru` are public suffixes; `x.weirdtld` exercises the
/// PSL wildcard fallback.
const DOMAINS: &[&str] = &[
    "exoclick.com",
    "ads.co.uk",
    "co.uk",
    "com.ru",
    "tracker.net",
    "cdn.site.com",
    "pixel.ru",
    "example.co.uk",
    "doubleclick.net",
    "x.weirdtld",
    "porn.site",
];

const SUBDOMAINS: &[&str] = &["", "www.", "sync.", "main.", "a.b."];

const SEGMENTS: &[&str] = &[
    "adserver",
    "banner",
    "track",
    "pixel",
    "img",
    "analytics",
    "allowed",
    "a",
    "content",
    "js",
];

const KINDS: &[ResourceKind] = &[
    ResourceKind::Script,
    ResourceKind::Image,
    ResourceKind::Frame,
    ResourceKind::Xhr,
];

/// SplitMix64 step: derives independent field values from one seed.
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick<'a, T: ?Sized>(seed: &mut u64, pool: &'a [&'a T]) -> &'a T {
    pool[(next(seed) % pool.len() as u64) as usize]
}

/// Renders one rule line from a seed: anchored / path / start-anchored /
/// wildcard bodies, optionally an exception, optionally `$` options
/// (third-party, resource kinds, `domain=` lists).
fn rule_from_seed(mut seed: u64) -> String {
    let s = &mut seed;
    let mut rule = String::new();
    if next(s).is_multiple_of(4) {
        rule.push_str("@@");
    }
    match next(s) % 5 {
        // ||anchor^ or ||anchor/segment
        0 | 1 => {
            rule.push_str("||");
            rule.push_str(pick(s, DOMAINS));
            if next(s).is_multiple_of(2) {
                rule.push('^');
            } else {
                rule.push('/');
                rule.push_str(pick(s, SEGMENTS));
            }
        }
        // /segment/ or /segment/segment
        2 => {
            rule.push('/');
            rule.push_str(pick(s, SEGMENTS));
            rule.push('/');
            if next(s).is_multiple_of(2) {
                rule.push_str(pick(s, SEGMENTS));
            }
        }
        // |https://sub.domain.
        3 => {
            rule.push_str("|https://");
            rule.push_str(pick(s, SUBDOMAINS));
            rule.push_str(pick(s, DOMAINS));
            rule.push('.');
        }
        // Wildcards: /segment/*/segment^ or *segment* (the latter has no
        // safe token and lands in the always-scan list).
        _ => {
            if next(s).is_multiple_of(2) {
                rule.push('/');
                rule.push_str(pick(s, SEGMENTS));
                rule.push_str("/*/");
                rule.push_str(pick(s, SEGMENTS));
                rule.push('^');
            } else {
                rule.push('*');
                rule.push_str(pick(s, SEGMENTS));
                rule.push('*');
            }
        }
    }
    let mut opts: Vec<String> = Vec::new();
    if next(s).is_multiple_of(4) {
        opts.push(if next(s).is_multiple_of(2) {
            "third-party".to_string()
        } else {
            "~third-party".to_string()
        });
    }
    if next(s).is_multiple_of(4) {
        opts.push(pick(s, &["script", "image", "~script", "~image"]).to_string());
    }
    if next(s).is_multiple_of(4) {
        let mut domains = String::from("domain=");
        if next(s).is_multiple_of(2) {
            domains.push('~');
        }
        domains.push_str(pick(s, DOMAINS));
        if next(s).is_multiple_of(2) {
            domains.push('|');
            if next(s).is_multiple_of(2) {
                domains.push('~');
            }
            domains.push_str(pick(s, DOMAINS));
        }
        opts.push(domains);
    }
    if !opts.is_empty() {
        rule.push('$');
        rule.push_str(&opts.join(","));
    }
    rule
}

/// One generated request: URL, page host, request host, resource kind.
fn query_from_seed(mut seed: u64) -> (String, String, String, ResourceKind) {
    let s = &mut seed;
    let request_host = format!("{}{}", pick(s, SUBDOMAINS), pick(s, DOMAINS));
    let mut url = format!("https://{request_host}/{}", pick(s, SEGMENTS));
    if next(s).is_multiple_of(2) {
        url.push('/');
        url.push_str(pick(s, SEGMENTS));
    }
    if next(s).is_multiple_of(3) {
        url.push_str("/img.gif?x=1");
    }
    let page_host = format!("{}{}", pick(s, SUBDOMAINS), pick(s, DOMAINS));
    let kind = KINDS[(next(s) % KINDS.len() as u64) as usize];
    (url, page_host, request_host, kind)
}

proptest! {
    #[test]
    fn indexed_matches_equal_linear_reference(
        rule_seeds in vec(any::<u64>(), 1..40),
        query_seeds in vec(any::<u64>(), 1..60),
    ) {
        let list: String = rule_seeds
            .iter()
            .map(|&s| rule_from_seed(s))
            .collect::<Vec<_>>()
            .join("\n");
        let mut indexed = FilterSet::new();
        let mut linear = LinearFilterSet::new();
        prop_assert_eq!(indexed.add_list(&list), linear.add_list(&list));
        for &qs in &query_seeds {
            let (url, page_host, request_host, kind) = query_from_seed(qs);
            let ctx = RequestContext::new(&page_host, &request_host, kind);
            prop_assert_eq!(
                indexed.matches(&url, &ctx),
                linear.matches(&url, &ctx),
                "url={} page={} kind={:?}\nlist:\n{}",
                url,
                page_host,
                kind,
                list
            );
            prop_assert_eq!(
                indexed.matches_fqdn_relaxed(&request_host),
                linear.matches_fqdn_relaxed(&request_host),
                "fqdn={}\nlist:\n{}",
                request_host,
                list
            );
        }
    }
}
