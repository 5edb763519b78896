//! URL parsing and manipulation (the subset browsers and trackers use).
//!
//! Supports `http`/`https` absolute URLs, scheme-relative (`//host/…`) and
//! path-relative resolution against a base, query-parameter access and
//! mutation (needed to build and detect cookie-synchronization redirects).
//!
//! A [`Url`] keeps its host and the text after the authority in shared
//! buffers, so a clone copies no text: a fetch hop, its request record and
//! every instrumented call of a script share one URL.

use std::fmt;
use std::sync::Arc;

use crate::codec::percent_decode;
use crate::error::NetError;
use crate::host::Fqdn;
use crate::http::Scheme;

/// A parsed absolute URL.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Url {
    scheme: Scheme,
    host: Fqdn,
    port: Option<u16>,
    /// The path, then `?query` and `#fragment` when present.
    tail: Arc<str>,
    /// Byte length of the path at the start of `tail`.
    path_len: u32,
    /// Byte length of the query (after its `?`), when there is one.
    query_len: Option<u32>,
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
        Url::with_tail(scheme, host, port, after)
            .ok_or_else(|| NetError::InvalidUrl(input.to_string()))
    }

    /// Assembles a URL from its authority and the text after it (empty,
    /// or starting with `/`, `?` or `#`). `None` when that text does not
    /// fit the length fields.
    fn with_tail(scheme: Scheme, host: Fqdn, port: Option<u16>, after: &str) -> Option<Url> {
        let before_frag = after.split_once('#').map_or(after, |(b, _)| b);
        let (path_raw, query) = match before_frag.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (before_frag, None),
        };
        let (tail, path_len): (Arc<str>, usize) = if path_raw.is_empty() {
            (format!("/{after}").into(), 1)
        } else {
            (after.into(), path_raw.len())
        };
        u32::try_from(tail.len()).ok()?;
        Some(Url {
            scheme,
            host,
            port,
            tail,
            path_len: path_len as u32,
            query_len: query.map(|q| q.len() as u32),
        })
    }

    /// Resolves `reference` against `self`: absolute URLs pass through,
    /// `//host/path` inherits the scheme, `/path` inherits scheme+host, and
    /// other strings are treated as relative paths. A resolved path shares
    /// the base's host buffer.
    pub fn join(&self, reference: &str) -> Result<Url, NetError> {
        if reference.starts_with("http://") || reference.starts_with("https://") {
            return Url::parse(reference);
        }
        if let Some(rest) = reference.strip_prefix("//") {
            return Url::parse(&format!("{}://{}", self.scheme, rest));
        }
        let joined;
        let after = if reference.starts_with('/') {
            reference
        } else {
            // Relative path: replace everything after the final '/'.
            let path = self.path();
            let base = match path.rfind('/') {
                Some(idx) => &path[..=idx],
                None => "/",
            };
            joined = format!("{base}{reference}");
            &joined
        };
        Url::with_tail(self.scheme, self.host.clone(), self.port, after).ok_or_else(|| {
            NetError::InvalidUrl(format!("{}://{}{}", self.scheme, self.authority(), after))
        })
    }

    /// The authority (`host` or `host:port`) as a borrowing [`fmt::Display`]
    /// view — no `String` is built until the caller actually formats it,
    /// so hot paths can compare or hash without allocating.
    fn authority(&self) -> Authority<'_> {
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
        &self.tail[..self.path_len as usize]
    }

    /// The raw query string (without `?`), if any.
    pub fn query(&self) -> Option<&str> {
        let start = self.path_len as usize + 1;
        self.query_len
            .map(|len| &self.tail[start..start + len as usize])
    }

    /// The fragment (without `#`), if any.
    fn fragment(&self) -> Option<&str> {
        let end = self.without_fragment_len();
        (end < self.tail.len()).then(|| &self.tail[end + 1..])
    }

    /// Byte length of the path and `?query` at the start of `tail`.
    fn without_fragment_len(&self) -> usize {
        self.path_len as usize + self.query_len.map_or(0, |len| len as usize + 1)
    }

    /// Decoded `(key, value)` query pairs in order.
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        match self.query() {
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

    /// First decoded value for query key `key`. Only a key with an escape
    /// is decoded to be compared, and only the matching value is decoded
    /// into a `String`.
    pub fn query_param(&self, key: &str) -> Option<String> {
        self.query()?
            .split('&')
            .filter(|kv| !kv.is_empty())
            .find_map(|kv| {
                let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                let matches = if k.contains(['%', '+']) {
                    percent_decode(k) == key
                } else {
                    k == key
                };
                matches.then(|| percent_decode(v))
            })
    }

    /// Scheme + host + path + query, without the fragment: what a server
    /// (and a blocklist) sees.
    pub fn without_fragment(&self) -> String {
        let mut s =
            String::with_capacity(self.host.as_str().len() + self.without_fragment_len() + 14);
        self.write_to(&mut s, self.without_fragment_len())
            .expect("writing to a String cannot fail");
        s
    }

    /// Writes `scheme://authority` and the first `tail_len` bytes of the
    /// tail.
    fn write_to(&self, out: &mut impl fmt::Write, tail_len: usize) -> fmt::Result {
        write!(out, "{}://{}", self.scheme, self.authority())?;
        out.write_str(&self.tail[..tail_len])
    }
}

impl fmt::Debug for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Url")
            .field("scheme", &self.scheme)
            .field("host", &self.host)
            .field("port", &self.port)
            .field("path", &self.path())
            .field("query", &self.query())
            .field("fragment", &self.fragment())
            .finish()
    }
}

/// Borrowing view of a URL's authority component, created by
/// `Url::authority`. Formats as `host` or `host:port`.
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
        self.write_to(f, self.tail.len())
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
    fn components_round_trip_through_the_shared_tail() {
        let u = Url::parse("http://a.com?x=1").unwrap();
        assert_eq!(
            (u.path(), u.query(), u.fragment()),
            ("/", Some("x=1"), None)
        );
        assert_eq!(u.to_string(), "http://a.com/?x=1");
        let u = Url::parse("https://a.com/p?#").unwrap();
        assert_eq!(
            (u.path(), u.query(), u.fragment()),
            ("/p", Some(""), Some(""))
        );
        let u = Url::parse("https://a.com/p#f?g#h").unwrap();
        assert_eq!(
            (u.path(), u.query(), u.fragment()),
            ("/p", None, Some("f?g#h"))
        );
        assert_eq!(u.without_fragment(), "https://a.com/p");
        assert_ne!(
            Url::parse("https://a.com/p?").unwrap(),
            Url::parse("https://a.com/p").unwrap()
        );
    }

    #[test]
    fn clones_and_reparses_are_interchangeable() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |u: &Url| {
            let mut h = DefaultHasher::new();
            u.hash(&mut h);
            h.finish()
        };
        let base = Url::parse("https://Site.COM:8443/videos/page.html?x=1#top").unwrap();
        for text in [
            "https://Sync.Exosrv.com:8443/pixel?uid=a%20b#frag",
            "http://example.com",
            "http://a.com?x=1",
            "https://a.com/p?#",
            "http://a.com#f?g",
            "https://a.com/x/y.js?",
        ] {
            let parsed = Url::parse(text).unwrap();
            let joined = base.join(text).unwrap();
            for other in [
                parsed.clone(),
                Url::parse(&parsed.to_string()).unwrap(),
                joined,
            ] {
                assert_eq!(other, parsed, "{text}");
                assert_eq!(hash(&other), hash(&parsed), "{text}");
                assert_eq!(other.to_string(), parsed.to_string(), "{text}");
                assert_eq!(
                    other.without_fragment(),
                    parsed.without_fragment(),
                    "{text}"
                );
            }
        }
        // A path reference shares the base's host and reparses equal.
        for reference in ["/a/b?c=d#e", "rel.js?v=2", "?q", "#frag", ""] {
            let joined = base.join(reference).unwrap();
            let reparsed = Url::parse(&joined.to_string()).unwrap();
            assert_eq!(joined, reparsed, "{reference}");
            assert_eq!(hash(&joined), hash(&reparsed), "{reference}");
            assert_eq!(joined.host().as_str(), "site.com");
        }
    }

    #[test]
    fn scheme_swap() {
        let u = Url::parse("https://site.com/a").unwrap();
        assert_eq!(u.with_scheme(Scheme::Http).to_string(), "http://site.com/a");
    }
}
