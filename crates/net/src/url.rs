//! URL parsing and manipulation (the subset browsers and trackers use).
//!
//! Supports `http`/`https` absolute URLs, scheme-relative (`//host/…`) and
//! path-relative resolution against a base, query-parameter access and
//! mutation (needed to build and detect cookie-synchronization redirects).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::codec::{percent_decode, percent_encode};
use crate::error::NetError;
use crate::host::Fqdn;
use crate::http::Scheme;

/// A parsed absolute URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Url {
    scheme: Scheme,
    host: Fqdn,
    port: Option<u16>,
    path: String,
    query: Option<String>,
    fragment: Option<String>,
}

impl Url {
    /// Parses an absolute `http(s)` URL.
    pub fn parse(input: &str) -> Result<Url, NetError> {
        let (scheme, rest) = if let Some(r) = input.strip_prefix("https://") {
            (Scheme::Https, r)
        } else if let Some(r) = input.strip_prefix("http://") {
            (Scheme::Http, r)
        } else {
            return Err(NetError::InvalidUrl(input.to_string()));
        };

        let (authority, after) = match rest.find(['/', '?', '#']) {
            Some(idx) => (&rest[..idx], &rest[idx..]),
            None => (rest, ""),
        };
        if authority.is_empty() {
            return Err(NetError::InvalidUrl(input.to_string()));
        }
        // No userinfo support; trackers don't use it and browsers deprecate it.
        let (host_str, port) = match authority.rsplit_once(':') {
            Some((h, p)) if p.chars().all(|c| c.is_ascii_digit()) && !p.is_empty() => {
                let port: u16 = p
                    .parse()
                    .map_err(|_| NetError::InvalidUrl(input.to_string()))?;
                (h, Some(port))
            }
            _ => (authority, None),
        };
        let host = Fqdn::parse(host_str)?;

        let (before_frag, fragment) = match after.split_once('#') {
            Some((b, f)) => (b, Some(f.to_string())),
            None => (after, None),
        };
        let (path_raw, query) = match before_frag.split_once('?') {
            Some((p, q)) => (p, Some(q.to_string())),
            None => (before_frag, None),
        };
        let path = if path_raw.is_empty() {
            "/".to_string()
        } else {
            path_raw.to_string()
        };

        Ok(Url {
            scheme,
            host,
            port,
            path,
            query,
            fragment,
        })
    }

    /// Resolves `reference` against `self`: absolute URLs pass through,
    /// `//host/path` inherits the scheme, `/path` inherits scheme+host, and
    /// other strings are treated as relative paths.
    pub fn join(&self, reference: &str) -> Result<Url, NetError> {
        if reference.starts_with("http://") || reference.starts_with("https://") {
            return Url::parse(reference);
        }
        if let Some(rest) = reference.strip_prefix("//") {
            return Url::parse(&format!("{}://{}", self.scheme, rest));
        }
        if reference.starts_with('/') {
            return Url::parse(&format!(
                "{}://{}{}",
                self.scheme,
                self.authority(),
                reference
            ));
        }
        // Relative path: replace everything after the final '/'.
        let base = match self.path.rfind('/') {
            Some(idx) => &self.path[..=idx],
            None => "/",
        };
        Url::parse(&format!(
            "{}://{}{}{}",
            self.scheme,
            self.authority(),
            base,
            reference
        ))
    }

    /// The authority (`host` or `host:port`) as a borrowing [`fmt::Display`]
    /// view — no `String` is built until the caller actually formats it,
    /// so hot paths can compare or hash without allocating.
    pub fn authority(&self) -> Authority<'_> {
        Authority {
            host: &self.host,
            port: self.port,
        }
    }

    /// The URL scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Returns a copy with the scheme replaced (used for HTTPS→HTTP
    /// downgrade probing).
    pub fn with_scheme(&self, scheme: Scheme) -> Url {
        let mut u = self.clone();
        u.scheme = scheme;
        u
    }

    /// The host.
    pub fn host(&self) -> &Fqdn {
        &self.host
    }

    /// The path (always begins with `/`).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The raw query string (without `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// The fragment (without `#`), if any.
    pub fn fragment(&self) -> Option<&str> {
        self.fragment.as_deref()
    }

    /// Decoded `(key, value)` query pairs in order.
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        match &self.query {
            None => Vec::new(),
            Some(q) => q
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(kv), String::new()),
                })
                .collect(),
        }
    }

    /// First decoded value for query key `key`.
    pub fn query_param(&self, key: &str) -> Option<String> {
        self.query_pairs()
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Returns a copy with `key=value` appended to the query
    /// (percent-encoding both).
    pub fn with_query_param(&self, key: &str, value: &str) -> Url {
        let pair = format!("{}={}", percent_encode(key), percent_encode(value));
        let mut u = self.clone();
        u.query = Some(match &self.query {
            Some(q) if !q.is_empty() => format!("{q}&{pair}"),
            _ => pair,
        });
        u
    }

    /// Scheme + host + path + query, without the fragment: what a server
    /// (and a blocklist) sees.
    pub fn without_fragment(&self) -> String {
        let mut s = format!("{}://{}{}", self.scheme, self.authority(), self.path);
        if let Some(q) = &self.query {
            s.push('?');
            s.push_str(q);
        }
        s
    }

    /// Returns `true` when both URLs share a registrable domain (same-site in
    /// the cookie sense).
    pub fn same_site(&self, other: &Url) -> bool {
        self.host.registrable() == other.host.registrable()
    }
}

/// Borrowing view of a URL's authority component, created by
/// [`Url::authority`]. Formats as `host` or `host:port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Authority<'a> {
    host: &'a Fqdn,
    port: Option<u16>,
}

impl fmt::Display for Authority<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.port {
            Some(p) => write!(f, "{}:{}", self.host, p),
            None => write!(f, "{}", self.host),
        }
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.without_fragment())?;
        if let Some(frag) = &self.fragment {
            write!(f, "#{frag}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Url {
    type Err = NetError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_url() {
        let u = Url::parse("https://sync.exosrv.com:8443/pixel?uid=abc#frag").unwrap();
        assert_eq!(u.scheme(), Scheme::Https);
        assert_eq!(u.host().as_str(), "sync.exosrv.com");
        assert_eq!(u.path(), "/pixel");
        assert_eq!(u.query(), Some("uid=abc"));
        assert_eq!(u.fragment(), Some("frag"));
        assert_eq!(
            u.to_string(),
            "https://sync.exosrv.com:8443/pixel?uid=abc#frag"
        );
    }

    #[test]
    fn bare_host_gets_root_path() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.to_string(), "http://example.com/");
    }

    #[test]
    fn authority_formats_port_and_no_port_without_owning() {
        let with_port = Url::parse("https://sync.exosrv.com:8443/pixel").unwrap();
        assert_eq!(with_port.authority().to_string(), "sync.exosrv.com:8443");
        let no_port = Url::parse("https://sync.exosrv.com/pixel").unwrap();
        assert_eq!(no_port.authority().to_string(), "sync.exosrv.com");
        // The view is Copy and borrows the URL: formatting twice agrees and
        // composed renderings (without_fragment) keep the same shape.
        let a = no_port.authority();
        let b = a;
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(
            with_port.without_fragment(),
            "https://sync.exosrv.com:8443/pixel"
        );
    }

    #[test]
    fn rejects_bad_urls() {
        assert!(Url::parse("ftp://example.com/").is_err());
        assert!(Url::parse("https:///path").is_err());
        assert!(Url::parse("not a url").is_err());
    }

    #[test]
    fn join_resolves_all_reference_kinds() {
        let base = Url::parse("https://site.com/videos/page.html?x=1").unwrap();
        assert_eq!(
            base.join("https://other.net/a").unwrap().to_string(),
            "https://other.net/a"
        );
        assert_eq!(
            base.join("//cdn.com/lib.js").unwrap().to_string(),
            "https://cdn.com/lib.js"
        );
        assert_eq!(
            base.join("/root.js").unwrap().to_string(),
            "https://site.com/root.js"
        );
        assert_eq!(
            base.join("rel.js").unwrap().to_string(),
            "https://site.com/videos/rel.js"
        );
    }

    #[test]
    fn query_pairs_decode() {
        let u = Url::parse("http://t.co/p?a=1&b=hello%20world&flag").unwrap();
        assert_eq!(
            u.query_pairs(),
            vec![
                ("a".into(), "1".into()),
                ("b".into(), "hello world".into()),
                ("flag".into(), String::new())
            ]
        );
        assert_eq!(u.query_param("b").as_deref(), Some("hello world"));
        assert_eq!(u.query_param("zzz"), None);
    }

    #[test]
    fn with_query_param_appends_encoded() {
        let u = Url::parse("https://sync.net/s").unwrap();
        let u2 = u.with_query_param("sync", "uid=42&x");
        assert_eq!(u2.query(), Some("sync=uid%3D42%26x"));
        assert_eq!(u2.query_param("sync").as_deref(), Some("uid=42&x"));
        let u3 = u2.with_query_param("p", "2");
        assert_eq!(u3.query_pairs().len(), 2);
    }

    #[test]
    fn same_site_uses_registrable_domain() {
        let a = Url::parse("https://www.pornhub.com/").unwrap();
        let b = Url::parse("https://cdn.pornhub.com/x.js").unwrap();
        let c = Url::parse("https://exoclick.com/t").unwrap();
        assert!(a.same_site(&b));
        assert!(!a.same_site(&c));
    }

    #[test]
    fn scheme_swap() {
        let u = Url::parse("https://site.com/a").unwrap();
        assert_eq!(u.with_scheme(Scheme::Http).to_string(), "http://site.com/a");
    }
}
