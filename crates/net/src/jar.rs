//! A browser cookie jar with RFC 6265 domain- and path-matching.
//!
//! The OpenWPM-style crawler keeps **one jar alive for the whole crawl
//! session** (the paper never restarts the browser between visits, §3.1), so
//! cookies set while visiting site A are re-sent to the same trackers when
//! embedded by site B — that is what makes cookie synchronization observable.
//!
//! Cookies are bucketed by registrable domain: a session accumulates tens of
//! thousands of cookies across a corpus crawl, and a cookie can only ever
//! match a request whose host shares its registrable domain, so lookups stay
//! O(cookies-per-site) instead of O(all cookies in the session).

use std::collections::HashMap;

use crate::cookie::Cookie;
use crate::http::Scheme;
use crate::psl;
use crate::url::Url;

/// A cookie as stored in the jar, with its effective domain/path and origin
/// bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredCookie {
    /// Cookie.
    pub cookie: Cookie,
    /// Effective domain the cookie is scoped to.
    pub domain: String,
    /// `true` ⇒ exact host match required (no `Domain` attribute was given).
    pub host_only: bool,
    /// Effective path.
    pub path: String,
    /// Hostname of the response that set the cookie.
    pub set_by: String,
}

impl StoredCookie {
    fn matches_domain(&self, host: &str) -> bool {
        if self.host_only {
            host == self.domain
        } else {
            host == self.domain
                || (host.len() > self.domain.len()
                    && host.ends_with(&self.domain)
                    && host.as_bytes()[host.len() - self.domain.len() - 1] == b'.')
        }
    }

    fn matches_path(&self, path: &str) -> bool {
        if path == self.path {
            return true;
        }
        if path.starts_with(&self.path) {
            return self.path.ends_with('/') || path.as_bytes().get(self.path.len()) == Some(&b'/');
        }
        false
    }
}

/// The jar.
#[derive(Debug, Clone, Default)]
pub struct CookieJar {
    /// registrable domain → cookies scoped within it.
    buckets: HashMap<String, Vec<StoredCookie>>,
    count: usize,
}

/// Default path per RFC 6265 §5.1.4: directory of the request path.
fn default_path(url: &Url) -> String {
    let p = url.path();
    match p.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(idx) => p[..idx].to_string(),
    }
}

impl CookieJar {
    /// Empty jar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `cookie` as set by a response from `origin`.
    ///
    /// Enforces the domain-match rule: a response may only set a cookie for
    /// its own host or a superdomain of it (not an unrelated domain, and not
    /// a bare public suffix). Returns `false` when the cookie was rejected.
    pub fn store(&mut self, cookie: Cookie, origin: &Url) -> bool {
        let host = origin.host().as_str().to_string();
        let (domain, host_only) = match &cookie.domain {
            None => (host.clone(), true),
            Some(d) => {
                let dom_ok = host == *d
                    || (host.len() > d.len()
                        && host.ends_with(d.as_str())
                        && host.as_bytes()[host.len() - d.len() - 1] == b'.');
                if !dom_ok || psl::is_public_suffix(d) {
                    return false;
                }
                (d.clone(), false)
            }
        };
        let path = cookie.path.clone().unwrap_or_else(|| default_path(origin));

        let key = psl::registrable_domain(&domain).to_string();
        let bucket = self.buckets.entry(key).or_default();

        // Replace an existing cookie with the same (name, domain, path).
        let before = bucket.len();
        bucket.retain(|sc| {
            !(sc.cookie.name == cookie.name && sc.domain == domain && sc.path == path)
        });
        self.count -= before - bucket.len();

        // Max-Age <= 0 is a deletion.
        if cookie.max_age.is_some_and(|a| a <= 0) {
            return true;
        }
        bucket.push(StoredCookie {
            cookie,
            domain,
            host_only,
            path,
            set_by: host,
        });
        self.count += 1;
        true
    }

    /// The `(name, value)` pairs to send with a request to `url`, honoring
    /// domain match, path match and the `Secure` flag.
    pub fn cookies_for(&self, url: &Url) -> Vec<(String, String)> {
        let host = url.host().as_str();
        let path = url.path();
        let secure = url.scheme() == Scheme::Https;
        let key = psl::registrable_domain(host);
        let Some(bucket) = self.buckets.get(key) else {
            return Vec::new();
        };
        bucket
            .iter()
            .filter(|sc| sc.matches_domain(host))
            .filter(|sc| sc.matches_path(path))
            .filter(|sc| secure || !sc.cookie.secure)
            .map(|sc| (sc.cookie.name.clone(), sc.cookie.value.clone()))
            .collect()
    }

    /// Iterates over all stored cookies.
    pub fn all(&self) -> impl Iterator<Item = &StoredCookie> {
        self.buckets.values().flatten()
    }

    /// Number of stored cookies.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when the jar is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Drops every cookie (used between independent crawl configurations).
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn host_only_cookie_not_sent_to_subdomain() {
        let mut jar = CookieJar::new();
        jar.store(Cookie::new("sid", "1"), &url("https://example.com/"));
        assert_eq!(jar.cookies_for(&url("https://example.com/x")).len(), 1);
        assert_eq!(jar.cookies_for(&url("https://sub.example.com/")).len(), 0);
    }

    #[test]
    fn domain_cookie_sent_to_subdomains() {
        let mut jar = CookieJar::new();
        jar.store(
            Cookie::new("uid", "x").with_domain("tracker.com"),
            &url("https://sync.tracker.com/"),
        );
        assert_eq!(jar.cookies_for(&url("https://tracker.com/")).len(), 1);
        assert_eq!(jar.cookies_for(&url("https://ads.tracker.com/")).len(), 1);
        assert_eq!(jar.cookies_for(&url("https://nottracker.com/")).len(), 0);
    }

    #[test]
    fn cross_domain_set_is_rejected() {
        let mut jar = CookieJar::new();
        let ok = jar.store(
            Cookie::new("evil", "1").with_domain("victim.com"),
            &url("https://attacker.net/"),
        );
        assert!(!ok);
        assert!(jar.is_empty());
    }

    #[test]
    fn public_suffix_domain_is_rejected() {
        let mut jar = CookieJar::new();
        let ok = jar.store(
            Cookie::new("super", "1").with_domain("com"),
            &url("https://example.com/"),
        );
        assert!(!ok);
    }

    #[test]
    fn secure_cookie_not_sent_over_http() {
        let mut jar = CookieJar::new();
        jar.store(Cookie::new("s", "1").secure(), &url("https://example.com/"));
        assert_eq!(jar.cookies_for(&url("https://example.com/")).len(), 1);
        assert_eq!(jar.cookies_for(&url("http://example.com/")).len(), 0);
    }

    #[test]
    fn path_matching_rules() {
        let mut jar = CookieJar::new();
        jar.store(
            Cookie::new("p", "1").with_path("/videos"),
            &url("https://site.com/videos/page"),
        );
        assert_eq!(jar.cookies_for(&url("https://site.com/videos")).len(), 1);
        assert_eq!(jar.cookies_for(&url("https://site.com/videos/x")).len(), 1);
        assert_eq!(jar.cookies_for(&url("https://site.com/videosX")).len(), 0);
        assert_eq!(jar.cookies_for(&url("https://site.com/other")).len(), 0);
    }

    #[test]
    fn default_path_is_request_directory() {
        let mut jar = CookieJar::new();
        jar.store(
            Cookie::new("d", "1"),
            &url("https://site.com/a/b/page.html"),
        );
        assert_eq!(jar.all().next().unwrap().path, "/a/b");
        let mut jar2 = CookieJar::new();
        jar2.store(Cookie::new("d", "1"), &url("https://site.com/"));
        assert_eq!(jar2.all().next().unwrap().path, "/");
    }

    #[test]
    fn same_name_domain_path_replaces() {
        let mut jar = CookieJar::new();
        jar.store(Cookie::new("uid", "old"), &url("https://t.com/"));
        jar.store(Cookie::new("uid", "new"), &url("https://t.com/"));
        assert_eq!(jar.len(), 1);
        assert_eq!(jar.cookies_for(&url("https://t.com/"))[0].1, "new");
    }

    #[test]
    fn zero_max_age_deletes() {
        let mut jar = CookieJar::new();
        jar.store(Cookie::new("uid", "x"), &url("https://t.com/"));
        jar.store(
            Cookie::new("uid", "x").with_max_age(0),
            &url("https://t.com/"),
        );
        assert!(jar.is_empty());
    }

    #[test]
    fn buckets_isolate_unrelated_domains() {
        let mut jar = CookieJar::new();
        for i in 0..50 {
            jar.store(
                Cookie::new("uid", format!("v{i}")),
                &url(&format!("https://site{i}.com/")),
            );
        }
        assert_eq!(jar.len(), 50);
        // A lookup touches only its own bucket.
        assert_eq!(jar.cookies_for(&url("https://site7.com/")).len(), 1);
        assert_eq!(jar.cookies_for(&url("https://unrelated.net/")).len(), 0);
        assert_eq!(jar.all().count(), 50);
    }
}
