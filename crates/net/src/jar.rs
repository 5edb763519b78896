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

/// A cookie as stored in the jar, with its effective domain and path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredCookie {
    /// Cookie.
    pub cookie: Cookie,
    /// Effective domain the cookie is scoped to.
    pub domain: String,
    /// `true` ⇒ exact host match required (no `Domain` attribute was given).
    host_only: bool,
    /// Effective path.
    pub path: String,
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
        let host = origin.host().as_str();
        let (domain, host_only) = match &cookie.domain {
            None => (host.to_string(), true),
            Some(d) => {
                let dom_ok = host == d
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

        // The bucket key is copied only when it opens a new bucket.
        let key = psl::registrable_domain(&domain);
        if !self.buckets.contains_key(key) {
            self.buckets.insert(key.to_string(), Vec::new());
        }
        let bucket = self.buckets.get_mut(key).expect("bucket just ensured");

        // Replace an existing cookie with the same (name, domain, path).
        bucket.retain(|sc| {
            !(sc.cookie.name == cookie.name && sc.domain == domain && sc.path == path)
        });

        // Max-Age <= 0 is a deletion.
        if cookie.max_age.is_some_and(|a| a <= 0) {
            return true;
        }
        bucket.push(StoredCookie {
            cookie,
            domain,
            host_only,
            path,
        });
        true
    }

    /// The cookies to send with a request to `url`, in storage order,
    /// honoring domain match, path match and the `Secure` flag. Borrows
    /// them from the jar: a caller copies only what it keeps.
    pub fn matching<'a>(&'a self, url: &'a Url) -> impl Iterator<Item = &'a Cookie> + 'a {
        let host = url.host().as_str();
        let path = url.path();
        let secure = url.scheme() == Scheme::Https;
        self.buckets
            .get(psl::registrable_domain(host))
            .into_iter()
            .flatten()
            .filter(move |sc| {
                sc.matches_domain(host) && sc.matches_path(path) && (secure || !sc.cookie.secure)
            })
            .map(|sc| &sc.cookie)
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
        assert_eq!(jar.matching(&url("https://example.com/x")).count(), 1);
        assert_eq!(jar.matching(&url("https://sub.example.com/")).count(), 0);
    }

    #[test]
    fn domain_cookie_sent_to_subdomains() {
        let mut jar = CookieJar::new();
        jar.store(
            Cookie::new("uid", "x").with_domain("tracker.com"),
            &url("https://sync.tracker.com/"),
        );
        assert_eq!(jar.matching(&url("https://tracker.com/")).count(), 1);
        assert_eq!(jar.matching(&url("https://ads.tracker.com/")).count(), 1);
        assert_eq!(jar.matching(&url("https://nottracker.com/")).count(), 0);
    }

    #[test]
    fn cross_domain_set_is_rejected() {
        let mut jar = CookieJar::new();
        let ok = jar.store(
            Cookie::new("evil", "1").with_domain("victim.com"),
            &url("https://attacker.net/"),
        );
        assert!(!ok);
        assert_eq!(jar.matching(&url("https://victim.com/")).count(), 0);
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
        assert_eq!(jar.matching(&url("https://example.com/")).count(), 1);
        assert_eq!(jar.matching(&url("http://example.com/")).count(), 0);
    }

    #[test]
    fn path_matching_rules() {
        let mut jar = CookieJar::new();
        jar.store(
            Cookie::new("p", "1").with_path("/videos"),
            &url("https://site.com/videos/page"),
        );
        assert_eq!(jar.matching(&url("https://site.com/videos")).count(), 1);
        assert_eq!(jar.matching(&url("https://site.com/videos/x")).count(), 1);
        assert_eq!(jar.matching(&url("https://site.com/videosX")).count(), 0);
        assert_eq!(jar.matching(&url("https://site.com/other")).count(), 0);
    }

    #[test]
    fn default_path_is_request_directory() {
        let mut jar = CookieJar::new();
        jar.store(
            Cookie::new("d", "1"),
            &url("https://site.com/a/b/page.html"),
        );
        assert_eq!(jar.matching(&url("https://site.com/a/b/x")).count(), 1);
        assert_eq!(jar.matching(&url("https://site.com/a/c")).count(), 0);
        let mut jar2 = CookieJar::new();
        jar2.store(Cookie::new("d", "1"), &url("https://site.com/"));
        assert_eq!(jar2.matching(&url("https://site.com/x/y")).count(), 1);
    }

    #[test]
    fn same_name_domain_path_replaces() {
        let mut jar = CookieJar::new();
        jar.store(Cookie::new("uid", "old"), &url("https://t.com/"));
        jar.store(Cookie::new("uid", "new"), &url("https://t.com/"));
        let t = url("https://t.com/");
        let sent: Vec<&str> = jar.matching(&t).map(|c| c.value.as_str()).collect();
        assert_eq!(sent, ["new"]);
    }

    #[test]
    fn zero_max_age_deletes() {
        let mut jar = CookieJar::new();
        jar.store(Cookie::new("uid", "x"), &url("https://t.com/"));
        jar.store(
            Cookie::new("uid", "x").with_max_age(0),
            &url("https://t.com/"),
        );
        assert_eq!(jar.matching(&url("https://t.com/")).count(), 0);
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
        // A lookup touches only its own bucket.
        for i in 0..50 {
            let site = url(&format!("https://site{i}.com/"));
            assert_eq!(jar.matching(&site).count(), 1);
        }
        assert_eq!(jar.matching(&url("https://unrelated.net/")).count(), 0);
    }
}
