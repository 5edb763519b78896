//! HTTP message model: methods, status codes, headers, requests, responses.
//!
//! This is the wire-object layer the instrumented browser and the synthetic
//! web server exchange. It mirrors what OpenWPM's `http_requests` /
//! `http_responses` tables record: URL, method, headers, status, content
//! type and body (the browser's request record keeps the referrer).

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

pub use bytes::Bytes;

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
    const FOUND: StatusCode = StatusCode(302);
    /// Not found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// Gone.
    pub const GONE: StatusCode = StatusCode(410);
    /// Forbidden.
    pub const FORBIDDEN: StatusCode = StatusCode(403);

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
///
/// Names and values are `Cow<'static, str>`: a literal name that is already
/// lowercase, and a static value such as a content type or a user agent, are
/// stored without a copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    entries: Vec<(Cow<'static, str>, Cow<'static, str>)>,
}

/// `name` in lowercase, copied only when it holds an uppercase letter.
fn lowercase_name(name: impl Into<Cow<'static, str>>) -> Cow<'static, str> {
    let name = name.into();
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        let mut owned = name.into_owned();
        owned.make_ascii_lowercase();
        Cow::Owned(owned)
    } else {
        name
    }
}

impl HeaderMap {
    /// Empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a header (names are stored lowercase).
    pub fn append(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<Cow<'static, str>>,
    ) {
        self.entries.push((lowercase_name(name), value.into()));
    }

    /// First value for `name` (case-insensitive; stored names are
    /// lowercase, so no lowercased copy of `name` is needed).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| &**v)
    }

    /// All values for `name`.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.entries
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| &**v)
    }

    /// Replaces all values of `name` with a single value.
    pub fn set(&mut self, name: impl Into<Cow<'static, str>>, value: impl Into<Cow<'static, str>>) {
        let lower = lowercase_name(name);
        self.entries.retain(|(n, _)| *n != lower);
        self.entries.push((lower, value.into()));
    }

    /// All `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (&**n, &**v))
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
            kind,
        }
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status.
    pub status: StatusCode,
    /// Headers.
    pub headers: HeaderMap,
    /// MIME type (shortcut for the `content-type` header, which holds the
    /// same static string).
    pub content_type: &'static str,
    /// Body.
    pub body: Bytes,
    /// Certificate presented by the server (HTTPS only); a site's or a
    /// service's responses share one.
    pub certificate: Option<Arc<Certificate>>,
}

impl Response {
    /// A 200 response with the given content type and body.
    pub fn ok(content_type: &'static str, body: impl Into<Bytes>) -> Response {
        let body = body.into();
        let mut headers = HeaderMap::new();
        headers.set("content-type", content_type);
        Response {
            status: StatusCode::OK,
            headers,
            content_type,
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
            content_type: "",
            body: Bytes::new(),
            certificate: None,
        }
    }

    /// An error response with the given status.
    pub fn error(status: StatusCode) -> Response {
        Response {
            status,
            headers: HeaderMap::new(),
            content_type: "text/html",
            body: Bytes::from_static(b"<html><body>error</body></html>"),
            certificate: None,
        }
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
    pub fn with_certificate(mut self, cert: Arc<Certificate>) -> Response {
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
        assert_eq!(h.iter().count(), 1);
    }

    #[test]
    fn literal_names_and_static_values_are_stored_without_a_copy() {
        let mut h = HeaderMap::new();
        h.set("user-agent", "Mozilla/5.0");
        h.append("Content-Type", "text/html");
        h.append(String::from("X-Mixed"), String::from("v"));
        let [(ua, ua_value), (ct, ct_value), (mixed, mixed_value)] = &h.entries[..] else {
            panic!("three entries: {h:?}");
        };
        assert!(matches!(ua, Cow::Borrowed("user-agent")));
        assert!(matches!(ua_value, Cow::Borrowed("Mozilla/5.0")));
        // Only a name holding an uppercase letter is lowercased (a copy).
        assert!(matches!(ct, Cow::Owned(n) if n == "content-type"));
        assert!(matches!(ct_value, Cow::Borrowed("text/html")));
        assert!(matches!(mixed, Cow::Owned(n) if n == "x-mixed"));
        assert!(matches!(mixed_value, Cow::Owned(v) if v == "v"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            [
                ("user-agent", "Mozilla/5.0"),
                ("content-type", "text/html"),
                ("x-mixed", "v")
            ]
        );
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
        let req = Request::get(url.clone(), ResourceKind::Script);
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.url, url);
        assert_eq!(req.kind, ResourceKind::Script);
        assert_eq!(req.headers.iter().count(), 0);
    }

    #[test]
    fn response_roundtrips_cookies() {
        let mut resp = Response::ok("text/html", "<html></html>");
        let c = Cookie::new("uid", "abc123").with_domain("tracker.com");
        resp.headers.append("set-cookie", c.to_set_cookie());
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
        let err = Response::error(StatusCode::GONE);
        assert!(err.status.is_error());
        assert!(err.cookies().is_empty());
    }
}
