//! HTTP message model: methods, status codes, headers, requests, responses.
//!
//! This is the wire-object layer the instrumented browser and the synthetic
//! web server exchange. It mirrors what OpenWPM's `http_requests` /
//! `http_responses` tables record: URL, method, referrer, headers,
//! status, content type and body.

use std::fmt;

use bytes::Bytes;

use crate::cookie::Cookie;
use crate::tls::Certificate;
use crate::url::Url;

/// URL scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// Plain HTTP.
    Http,
    /// HTTP over TLS.
    Https,
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        })
    }
}

/// HTTP request method (the subset a page load uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
    /// `HEAD`.
    Head,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        })
    }
}

/// HTTP status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// Ok.
    pub const OK: StatusCode = StatusCode(200);
    /// Found.
    pub const FOUND: StatusCode = StatusCode(302);
    /// Not found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// Gone.
    pub const GONE: StatusCode = StatusCode(410);
    /// Forbidden.
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// Gateway timeout.
    pub const GATEWAY_TIMEOUT: StatusCode = StatusCode(504);

    /// 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// 3xx.
    pub fn is_redirect(self) -> bool {
        (300..400).contains(&self.0)
    }

    /// 4xx or 5xx.
    pub fn is_error(self) -> bool {
        self.0 >= 400
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An ordered, case-insensitive multimap of HTTP headers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    entries: Vec<(String, String)>,
}

impl HeaderMap {
    /// Empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a header (names are stored lowercase).
    pub fn append(&mut self, name: &str, value: impl Into<String>) {
        self.entries.push((name.to_ascii_lowercase(), value.into()));
    }

    /// First value for `name` (case-insensitive; stored names are
    /// lowercase, so no lowercased copy of `name` is needed).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for `name`.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.entries
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Replaces all values of `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        let lower = name.to_ascii_lowercase();
        self.entries.retain(|(n, _)| *n != lower);
        self.entries.push((lower, value.into()));
    }

    /// All `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The resource type a request loads, as a browser would classify it
/// (blocklist rules use this for `$script` / `$image` options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Document.
    Document,
    /// Script.
    Script,
    /// Image.
    Image,
    /// Stylesheet.
    Stylesheet,
    /// Frame.
    Frame,
    /// Xhr.
    Xhr,
    /// Beacon.
    Beacon,
    /// Other.
    Other,
}

impl ResourceKind {
    /// Name used by blocklist options (`$script`, `$image`, …).
    pub fn option_name(self) -> &'static str {
        match self {
            ResourceKind::Document => "document",
            ResourceKind::Script => "script",
            ResourceKind::Image => "image",
            ResourceKind::Stylesheet => "stylesheet",
            ResourceKind::Frame => "subdocument",
            ResourceKind::Xhr => "xmlhttprequest",
            ResourceKind::Beacon => "ping",
            ResourceKind::Other => "other",
        }
    }
}

/// An outgoing HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// URL.
    pub url: Url,
    /// Headers.
    pub headers: HeaderMap,
    /// The `Referer` header as a parsed URL, when present.
    pub referrer: Option<Url>,
    /// What kind of resource the browser is loading.
    pub kind: ResourceKind,
}

impl Request {
    /// A plain GET for `url` with resource kind `kind`.
    pub fn get(url: Url, kind: ResourceKind) -> Request {
        Request {
            method: Method::Get,
            url,
            headers: HeaderMap::new(),
            referrer: None,
            kind,
        }
    }

    /// Sets the referrer (both the typed field and the wire header).
    pub fn with_referrer(mut self, referrer: &Url) -> Request {
        self.headers.set("referer", referrer.without_fragment());
        self.referrer = Some(referrer.clone());
        self
    }

    /// Attaches a `Cookie` header built from `pairs`.
    pub fn with_cookie_header(mut self, pairs: &[(String, String)]) -> Request {
        if !pairs.is_empty() {
            let value = pairs
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join("; ");
            self.headers.set("cookie", value);
        }
        self
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status.
    pub status: StatusCode,
    /// Headers.
    pub headers: HeaderMap,
    /// MIME type (shortcut for the `content-type` header).
    pub content_type: String,
    /// Body.
    pub body: Bytes,
    /// Certificate presented by the server (HTTPS only).
    pub certificate: Option<Certificate>,
}

impl Response {
    /// A 200 response with the given content type and body.
    pub fn ok(content_type: &str, body: impl Into<Bytes>) -> Response {
        let body = body.into();
        let mut headers = HeaderMap::new();
        headers.set("content-type", content_type);
        Response {
            status: StatusCode::OK,
            headers,
            content_type: content_type.to_string(),
            body,
            certificate: None,
        }
    }

    /// A 302 redirect to `location`.
    pub fn redirect(location: &Url) -> Response {
        let mut headers = HeaderMap::new();
        headers.set("location", location.without_fragment());
        Response {
            status: StatusCode::FOUND,
            headers,
            content_type: String::new(),
            body: Bytes::new(),
            certificate: None,
        }
    }

    /// An error response with the given status.
    pub fn error(status: StatusCode) -> Response {
        Response {
            status,
            headers: HeaderMap::new(),
            content_type: "text/html".to_string(),
            body: Bytes::from_static(b"<html><body>error</body></html>"),
            certificate: None,
        }
    }

    /// Appends a `Set-Cookie` header.
    pub fn add_cookie(&mut self, cookie: &Cookie) {
        self.headers.append("set-cookie", cookie.to_set_cookie());
    }

    /// Parses every `Set-Cookie` header into cookies; malformed headers are
    /// skipped (as browsers do).
    pub fn cookies(&self) -> Vec<Cookie> {
        self.headers
            .get_all("set-cookie")
            .filter_map(|v| Cookie::parse_set_cookie(v).ok())
            .collect()
    }

    /// The redirect target, when this is a 3xx with a `Location` header.
    pub fn location(&self) -> Option<&str> {
        if self.status.is_redirect() {
            self.headers.get("location")
        } else {
            None
        }
    }

    /// Body interpreted as UTF-8 text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Sets the presented certificate (builder style).
    pub fn with_certificate(mut self, cert: Certificate) -> Response {
        self.certificate = Some(cert);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_map_is_case_insensitive_multimap() {
        let mut h = HeaderMap::new();
        h.append("Set-Cookie", "a=1");
        h.append("set-cookie", "b=2");
        assert_eq!(h.get("SET-COOKIE"), Some("a=1"));
        assert_eq!(h.get_all("set-cookie").count(), 2);
        h.set("set-cookie", "c=3");
        assert_eq!(h.get_all("set-cookie").count(), 1);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn status_classification() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::FOUND.is_redirect());
        assert!(StatusCode::NOT_FOUND.is_error());
        assert!(!StatusCode::OK.is_error());
    }

    #[test]
    fn request_builders() {
        let url = Url::parse("https://site.com/").unwrap();
        let refr = Url::parse("https://origin.com/page").unwrap();
        let req = Request::get(url, ResourceKind::Script)
            .with_referrer(&refr)
            .with_cookie_header(&[("uid".into(), "42".into()), ("s".into(), "x".into())]);
        assert_eq!(req.headers.get("referer"), Some("https://origin.com/page"));
        assert_eq!(req.headers.get("cookie"), Some("uid=42; s=x"));
        assert_eq!(req.referrer.as_ref().unwrap().host().as_str(), "origin.com");
    }

    #[test]
    fn response_roundtrips_cookies() {
        let mut resp = Response::ok("text/html", "<html></html>");
        let c = Cookie::new("uid", "abc123").with_domain("tracker.com");
        resp.add_cookie(&c);
        let parsed = resp.cookies();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "uid");
        assert_eq!(parsed[0].domain.as_deref(), Some("tracker.com"));
    }

    #[test]
    fn redirect_location() {
        let target = Url::parse("https://sync.partner.com/s?uid=1").unwrap();
        let resp = Response::redirect(&target);
        assert_eq!(resp.location(), Some("https://sync.partner.com/s?uid=1"));
        assert_eq!(Response::ok("text/plain", "x").location(), None);
    }

    #[test]
    fn response_text_and_error_helpers() {
        assert_eq!(Response::ok("text/plain", "hello").text(), "hello");
        let err = Response::error(StatusCode::GATEWAY_TIMEOUT);
        assert!(err.status.is_error());
        assert!(err.cookies().is_empty());
    }
}
