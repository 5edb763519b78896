//! The result of one page visit — a visit-scoped slice of what OpenWPM's
//! database holds.

use redlight_net::url::Url;

use crate::canvas::CanvasActivity;
use crate::instrument::{CookieObservation, JsCall, RequestRecord};

/// Everything recorded while loading one landing page.
#[derive(Debug, Clone)]
pub struct PageVisit {
    /// The URL the crawler asked for.
    pub requested_url: Url,
    /// The document URL that finally loaded (after redirects/downgrade).
    pub final_url: Option<Url>,
    /// Document loaded with a 2xx.
    pub success: bool,
    /// The load hit the crawler's page timeout (§3.1: 120 s).
    pub timeout: bool,
    /// HTTPS was attempted but the server only speaks HTTP.
    pub https_downgraded: bool,
    /// Every HTTP exchange, in causal order.
    pub requests: Vec<RequestRecord>,
    /// Every cookie-set event.
    pub cookies: Vec<CookieObservation>,
    /// Every instrumented JS host-API call.
    pub js_calls: Vec<JsCall>,
    /// Canvas activity per executed script (`None` = inline), materialized
    /// from the call stream for the fingerprinting analyses.
    pub canvas: Vec<(Option<Url>, CanvasActivity)>,
    /// The document markup as fetched (the "DOM dump").
    pub dom_html: String,
    /// Device-dependent screenshot stand-in.
    pub screenshot_hash: u64,
}

impl PageVisit {
    /// An empty failed visit.
    pub fn failed(requested_url: Url, timeout: bool) -> PageVisit {
        PageVisit {
            requested_url,
            final_url: None,
            success: false,
            timeout,
            https_downgraded: false,
            requests: Vec::new(),
            cookies: Vec::new(),
            js_calls: Vec::new(),
            canvas: Vec::new(),
            dom_html: String::new(),
            screenshot_hash: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_visit_shape() {
        let v = PageVisit::failed(Url::parse("https://x.com/").unwrap(), true);
        assert!(v.timeout);
        assert!(!v.success);
        assert!(v.final_url.is_none());
    }
}
