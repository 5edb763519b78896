//! Instrumentation records — the browser's equivalent of OpenWPM's
//! `http_requests`, `javascript` and `cookies` tables.

use std::borrow::Cow;

use redlight_net::cookie::Cookie;
use redlight_net::http::{Method, ResourceKind, StatusCode};
use redlight_net::tls::CertSummary;
use redlight_net::url::Url;

/// What caused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Initiator {
    /// The top-level document load (or a redirect of it).
    Document,
    /// A `<script>`/`<img>`/`<link>` element on the page.
    Markup,
    /// A running script (beacon/pixel/XHR), identified by its source URL
    /// (`None` for inline scripts).
    Script(Option<Url>),
    /// A subresource of an embedded frame (URL of the frame document).
    Frame(Url),
}

/// One HTTP exchange. The owning [`crate::page::PageVisit`] provides the
/// page context, so records stay compact at crawl scale.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// URL.
    pub url: Url,
    /// Method.
    pub method: Method,
    /// Kind.
    pub kind: ResourceKind,
    /// The referrer: the page or frame that made the request, or the URL
    /// that redirected to it.
    pub referrer: Option<Url>,
    /// Initiator.
    pub initiator: Initiator,
    /// Response status; `None` when the host was unreachable.
    pub status: Option<StatusCode>,
    /// Content type (the server's static string).
    pub content_type: Option<&'static str>,
    /// Digest of the certificate the server presented (HTTPS only).
    pub cert: Option<CertSummary>,
}

/// How a cookie reached the jar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetVia {
    /// A `Set-Cookie` response header.
    HttpHeader,
    /// `document.cookie` from a script.
    Script,
}

/// One observed cookie-set event.
#[derive(Debug, Clone)]
pub struct CookieObservation {
    /// Effective cookie domain after jar rules (the page's host for script
    /// cookies).
    pub effective_domain: String,
    /// Cookie.
    pub cookie: Cookie,
    /// Via.
    pub via: SetVia,
    /// Whether the jar accepted it.
    pub accepted: bool,
    /// The response that set it travelled over HTTPS (always true for
    /// script cookies on HTTPS pages) — §5.2's clear-text-leak signal.
    pub secure_channel: bool,
}

/// One instrumented JavaScript host-API call.
#[derive(Debug, Clone)]
pub struct JsCall {
    /// Source URL of the calling script, shared with the script's other
    /// calls; `None` for inline scripts.
    pub script_url: Option<Url>,
    /// Host function name (`canvas.fillText`, `webrtc.createDataChannel`…):
    /// static for the functions the page implements, owned for unknown
    /// vendor APIs.
    pub api: Cow<'static, str>,
    /// Stringified arguments.
    pub args: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initiator_equality() {
        let u = Url::parse("https://t.co/a.js").unwrap();
        assert_eq!(
            Initiator::Script(Some(u.clone())),
            Initiator::Script(Some(u))
        );
        assert_ne!(Initiator::Document, Initiator::Markup);
    }
}
