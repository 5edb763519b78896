//! The browser proper: fetch pipeline, redirects, subresources, script
//! execution, frame loading.

use redlight_html::{parser, query};
use redlight_net::http::{Method, Request, ResourceKind, Response, Scheme};
use redlight_net::jar::CookieJar;
use redlight_net::transport::{fnv1a, BrowserKind, ClientContext, FetchOutcome, Transport};
use redlight_net::url::Url;
use redlight_websim::server::WebServer;
use redlight_websim::World;

use crate::device::{mix, DeviceProfile};
use crate::engine::PageHost;
use crate::instrument::{CookieObservation, Initiator, RequestRecord, SetVia};
use crate::page::PageVisit;

/// Maximum redirect hops per request (sync chains are short; loops must
/// terminate).
const MAX_REDIRECTS: usize = 8;

/// An instrumented browser session.
pub struct Browser<'w> {
    transport: Box<dyn Transport + 'w>,
    /// Jar.
    pub jar: CookieJar,
    /// Device.
    pub device: DeviceProfile,
    /// Ctx.
    pub ctx: ClientContext,
    /// Optional content blocker (AdBlock-Plus-style): matching subresource
    /// requests are never issued. Used by the anti-tracking-effectiveness
    /// extension (the paper's §10 future work).
    blocker: Option<redlight_blocklist::FilterSet>,
}

impl<'w> Browser<'w> {
    /// Opens a session against `world` from the given vantage point.
    ///
    /// The session nonce (and therefore every tracker uid) derives from the
    /// world seed, country and crawler kind — one session per crawl, exactly
    /// like the paper's single long-lived browser (§3.1).
    pub fn new(world: &'w World, ctx: ClientContext) -> Browser<'w> {
        Browser::with_transport(Box::new(WebServer::new(world)), ctx)
    }

    /// Opens a session over an already-assembled transport stack (a
    /// metered/fault-injecting decorator chain, or any future socket-backed
    /// implementation). [`Browser::new`] is the direct-stack shorthand.
    pub fn with_transport(transport: Box<dyn Transport + 'w>, ctx: ClientContext) -> Browser<'w> {
        let device = match ctx.browser {
            BrowserKind::OpenWpm => DeviceProfile::openwpm_firefox52(),
            BrowserKind::Selenium => DeviceProfile::selenium_chrome(),
        };
        Browser {
            transport,
            jar: CookieJar::new(),
            device,
            ctx,
            blocker: None,
        }
    }

    /// Installs a content blocker for the rest of the session.
    pub fn set_blocker(&mut self, filters: redlight_blocklist::FilterSet) {
        self.blocker = Some(filters);
    }

    /// Convenience: builds the client context for a country/crawler pair.
    pub fn context_for(
        world: &World,
        country: redlight_net::geoip::Country,
        kind: BrowserKind,
    ) -> ClientContext {
        let vp = redlight_net::geoip::VantagePoint::study_default()
            .into_iter()
            .find(|v| v.country == country)
            .expect("all six countries have vantage points");
        ClientContext {
            country,
            client_ip: vp.client_ip,
            session: mix(
                world.config.seed,
                country as u64 ^ ((kind == BrowserKind::Selenium) as u64) << 17,
            ),
            browser: kind,
        }
    }

    /// Loads a landing page (and only the landing page), recording
    /// everything: the document through [`load_document`](Self::load_document),
    /// then its subresources, scripts and frames.
    pub fn visit(&mut self, url: &Url) -> PageVisit {
        let mut visit = self.load_document(url);
        if visit.success {
            self.load_page(&mut visit);
        }
        visit
    }

    /// Loads a landing page's document and nothing it references: the
    /// DOM and screenshot of [`visit`](Self::visit), with the document
    /// chain's requests and cookies, which are a prefix of `visit`'s.
    /// HTTPS is attempted first; an unreachable HTTPS endpoint is retried
    /// over HTTP (the paper's downgrade rule, §5.2).
    pub fn load_document(&mut self, url: &Url) -> PageVisit {
        let mut visit = PageVisit::failed(url.clone(), false);
        let https_url = url.with_scheme(Scheme::Https);

        let (doc_url, response) = match self.fetch_chain(
            &mut visit,
            &https_url,
            ResourceKind::Document,
            None,
            Initiator::Document,
        ) {
            ChainResult::Ok(u, r) => {
                if url.scheme() == Scheme::Http {
                    visit.https_downgraded = false; // caller already knew
                }
                (u, r)
            }
            ChainResult::Timeout => {
                visit.timeout = true;
                return visit;
            }
            ChainResult::Unreachable => {
                // Downgrade to HTTP.
                let http_url = url.with_scheme(Scheme::Http);
                match self.fetch_chain(
                    &mut visit,
                    &http_url,
                    ResourceKind::Document,
                    None,
                    Initiator::Document,
                ) {
                    ChainResult::Ok(u, r) => {
                        visit.https_downgraded = true;
                        (u, r)
                    }
                    ChainResult::Timeout => {
                        visit.timeout = true;
                        return visit;
                    }
                    ChainResult::Unreachable => return visit,
                }
            }
        };

        if !response.status.is_success() {
            return visit;
        }
        visit.final_url = Some(doc_url);
        visit.success = true;
        visit.dom_html = response.text();
        visit.screenshot_hash = mix(fnv1a(visit.dom_html.as_bytes()), self.device.render_quirk);
        visit
    }

    /// Loads what a loaded document references: markup subresources
    /// (scripts fetched and executed in order, frames loaded), then the
    /// inline scripts.
    fn load_page(&mut self, visit: &mut PageVisit) {
        let doc_url = visit.final_url.clone().expect("a loaded document");
        let doc = parser::parse(&visit.dom_html);

        // Markup subresources (scripts are fetched AND executed in order).
        for (tag, src) in query::subresources(&doc) {
            let Ok(sub_url) = doc_url.join(&src) else {
                continue;
            };
            let kind = match tag.as_str() {
                "script" => ResourceKind::Script,
                "img" => ResourceKind::Image,
                "iframe" => ResourceKind::Frame,
                _ => ResourceKind::Stylesheet,
            };
            let fetched =
                self.fetch_chain(visit, &sub_url, kind, Some(&doc_url), Initiator::Markup);
            let ChainResult::Ok(final_sub, resp) = fetched else {
                continue;
            };
            // Bodies are read in place: the script or frame borrows them.
            let body = || String::from_utf8_lossy(&resp.body);
            match kind {
                ResourceKind::Script if resp.content_type.contains("javascript") => {
                    self.execute_script(visit, &doc_url, Some(final_sub), &body());
                }
                ResourceKind::Frame if resp.content_type.contains("html") => {
                    self.load_frame(visit, &doc_url, &final_sub, &body());
                }
                _ => {}
            }
        }

        // Inline scripts.
        for body in query::inline_scripts(&doc) {
            self.execute_script(visit, &doc_url, None, &body);
        }
    }

    /// Runs one script in the instrumented engine.
    fn execute_script(
        &mut self,
        visit: &mut PageVisit,
        page_url: &Url,
        script_url: Option<Url>,
        source: &str,
    ) {
        let mut frames: Vec<Url> = Vec::new();
        {
            let mut host = PageHost::new(self, visit, page_url, script_url.clone(), &mut frames);
            // Script failures are swallowed like a browser console error.
            let _ = redlight_script::run(source, &mut host);
            let activity = host.take_canvas();
            if activity != crate::canvas::CanvasActivity::default() {
                visit.canvas.push((script_url.clone(), activity));
            }
        }
        // Frames created by the script load after it finishes.
        let frames_snapshot = frames;
        for frame_url in frames_snapshot {
            if let ChainResult::Ok(final_url, resp) = self.fetch_chain(
                visit,
                &frame_url,
                ResourceKind::Frame,
                Some(page_url),
                Initiator::Script(script_url.clone()),
            ) {
                if resp.content_type.contains("html") {
                    let html = String::from_utf8_lossy(&resp.body);
                    self.load_frame(visit, page_url, &final_url, &html);
                }
            }
        }
    }

    /// Loads an embedded frame document's subresources; their referrer is
    /// the frame URL — the observable inclusion-chain signal (§3.1).
    fn load_frame(&mut self, visit: &mut PageVisit, _page: &Url, frame_url: &Url, html: &str) {
        let doc = parser::parse(html);
        for (tag, src) in query::subresources(&doc) {
            let Ok(sub) = frame_url.join(&src) else {
                continue;
            };
            let kind = if tag == "script" {
                ResourceKind::Script
            } else {
                ResourceKind::Image
            };
            let _ = self.fetch_chain(
                visit,
                &sub,
                kind,
                Some(frame_url),
                Initiator::Frame(frame_url.clone()),
            );
        }
    }

    /// Issues one request, following redirects, recording every hop and
    /// storing cookies. Public for the interaction crawler (policy fetches).
    pub fn fetch_resource(
        &mut self,
        visit: &mut PageVisit,
        url: &Url,
        kind: ResourceKind,
        referrer: Option<&Url>,
        initiator: Initiator,
    ) -> Option<(Url, Response)> {
        match self.fetch_chain(visit, url, kind, referrer, initiator) {
            ChainResult::Ok(u, r) => Some((u, r)),
            _ => None,
        }
    }

    fn fetch_chain(
        &mut self,
        visit: &mut PageVisit,
        url: &Url,
        kind: ResourceKind,
        referrer: Option<&Url>,
        initiator: Initiator,
    ) -> ChainResult {
        // Active mixed content is blocked, as Firefox 52 did by default: an
        // HTTPS document never executes plain-HTTP scripts/frames/XHR.
        // Passive content (images, beacons) is allowed with a warning.
        let page_is_secure = visit
            .final_url
            .as_ref()
            .is_some_and(|u| u.scheme() == Scheme::Https);
        let active = matches!(
            kind,
            ResourceKind::Script
                | ResourceKind::Frame
                | ResourceKind::Xhr
                | ResourceKind::Stylesheet
        );
        if page_is_secure && active && url.scheme() == Scheme::Http {
            return ChainResult::Unreachable; // blocked before any packet
        }
        let mut current = url.clone();
        let mut referrer = referrer.cloned();
        for _ in 0..MAX_REDIRECTS {
            // Content blocker: matching subresource requests never leave
            // the browser (documents always load — blockers don't block
            // navigation). Checked per redirect hop, as real blockers do —
            // otherwise an unlisted tracker could launder requests to a
            // listed one through a 302.
            if kind != ResourceKind::Document {
                if let Some(filters) = &self.blocker {
                    let page_host = visit
                        .final_url
                        .as_ref()
                        .unwrap_or(&visit.requested_url)
                        .host()
                        .as_str()
                        .to_string();
                    let ctx = redlight_blocklist::RequestContext::new(
                        &page_host,
                        current.host().as_str(),
                        kind,
                    );
                    if filters
                        .matches(&current.without_fragment(), &ctx)
                        .is_blocked()
                    {
                        return ChainResult::Unreachable;
                    }
                }
            }
            let mut req = Request::get(current.clone(), kind);
            if let Some(cookie) = self.cookie_header(&current) {
                req.headers.set("cookie", cookie);
            }
            req.headers.set("user-agent", self.device.user_agent);

            let outcome = self.transport.fetch(&req, &self.ctx);
            let mut record = RequestRecord {
                url: current.clone(),
                method: Method::Get,
                kind,
                referrer: referrer.clone(),
                initiator: initiator.clone(),
                status: None,
                content_type: None,
                cert: None,
            };
            match outcome {
                FetchOutcome::Unreachable => {
                    visit.requests.push(record);
                    return ChainResult::Unreachable;
                }
                FetchOutcome::Timeout => {
                    visit.requests.push(record);
                    return ChainResult::Timeout;
                }
                FetchOutcome::Response(resp) => {
                    record.status = Some(resp.status);
                    record.content_type = Some(resp.content_type);
                    record.cert = resp.certificate.as_deref().map(Into::into);

                    // Store Set-Cookie headers.
                    for cookie in resp.cookies() {
                        let accepted = self.jar.store(cookie.clone(), &current);
                        visit.cookies.push(CookieObservation {
                            effective_domain: cookie
                                .domain
                                .clone()
                                .unwrap_or_else(|| current.host().as_str().to_string()),
                            cookie,
                            via: SetVia::HttpHeader,
                            accepted,
                            secure_channel: current.scheme() == redlight_net::http::Scheme::Https,
                        });
                    }

                    if let Some(location) = resp.location() {
                        if let Ok(next) = current.join(location) {
                            visit.requests.push(record);
                            referrer = Some(current.clone());
                            current = next;
                            continue;
                        }
                    }
                    visit.requests.push(record);
                    return ChainResult::Ok(current, resp);
                }
            }
        }
        ChainResult::Unreachable // redirect loop
    }

    /// The `Cookie` header for a request to `url`: the jar's matching
    /// cookies as `name=value` pairs joined by `"; "`, written into one
    /// buffer sized by a first pass over the matches; `None` when no
    /// cookie matches.
    fn cookie_header(&self, url: &Url) -> Option<String> {
        let len: usize = self
            .jar
            .matching(url)
            .map(|c| c.name.len() + c.value.len() + 3)
            .sum();
        if len == 0 {
            return None;
        }
        let mut header = String::with_capacity(len);
        for cookie in self.jar.matching(url) {
            if !header.is_empty() {
                header.push_str("; ");
            }
            header.push_str(&cookie.name);
            header.push('=');
            header.push_str(&cookie.value);
        }
        Some(header)
    }

    /// The session's client context.
    pub fn client(&self) -> &ClientContext {
        &self.ctx
    }
}

#[allow(clippy::large_enum_variant)] // the Ok variant is the overwhelmingly common case
enum ChainResult {
    Ok(Url, Response),
    Unreachable,
    Timeout,
}

#[cfg(test)]
mod tests {
    use super::*;
    use redlight_net::geoip::Country;
    use redlight_websim::WorldConfig;

    fn world() -> World {
        World::build(WorldConfig::tiny(99))
    }

    fn browser(world: &World) -> Browser<'_> {
        let ctx = Browser::context_for(world, Country::Spain, BrowserKind::OpenWpm);
        Browser::new(world, ctx)
    }

    #[test]
    fn visits_record_requests_and_cookies() {
        let w = world();
        let mut b = browser(&w);
        let site = w
            .sites
            .iter()
            .find(|s| {
                s.is_porn() && !s.unresponsive && !s.openwpm_timeout && !s.deployments.is_empty()
            })
            .unwrap();
        let visit = b.visit(&Url::parse(&w.landing_url(site)).unwrap());
        assert!(visit.success, "visit failed: {:?}", visit.requests.first());
        assert!(visit.requests.len() > 1, "subresources must load");
        assert!(!visit.dom_html.is_empty());
        // First-party cookies from the inline script.
        assert!(
            visit
                .cookies
                .iter()
                .any(|c| c.via == SetVia::Script && c.effective_domain == site.domain),
            "inline script cookies missing"
        );
    }

    #[test]
    fn load_document_agrees_with_visit_on_every_site() {
        // Russia is the vantage some sites block; the world must hold every
        // kind of document failure the sanitization pass has to agree on.
        let w = world();
        let country = Country::Russia;
        assert!(w.sites.iter().any(|s| s.unresponsive));
        assert!(w.sites.iter().any(|s| !s.https && !s.unresponsive));
        assert!(w.sites.iter().any(|s| s.blocked_in.contains(&country)));
        assert!(w.sites.iter().any(|s| s.openwpm_timeout && !s.unresponsive));
        for kind in [BrowserKind::OpenWpm, BrowserKind::Selenium] {
            let ctx = Browser::context_for(&w, country, kind);
            let mut documents = Browser::new(&w, ctx.clone());
            let mut pages = Browser::new(&w, ctx);
            for site in &w.sites {
                let url = Url::parse(&format!("https://{}/", site.domain)).unwrap();
                let doc = documents.load_document(&url);
                let page = pages.visit(&url);
                let tag = format!("{kind:?} {}", site.domain);
                assert_eq!(doc.success, page.success, "{tag}");
                assert_eq!(doc.timeout, page.timeout, "{tag}");
                assert_eq!(doc.https_downgraded, page.https_downgraded, "{tag}");
                assert_eq!(doc.final_url, page.final_url, "{tag}");
                assert_eq!(doc.dom_html, page.dom_html, "{tag}");
                assert_eq!(doc.screenshot_hash, page.screenshot_hash, "{tag}");
                assert!(doc.requests.len() <= page.requests.len(), "{tag}");
                for (a, b) in doc.requests.iter().zip(&page.requests) {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{tag}");
                }
                assert!(doc.cookies.len() <= page.cookies.len(), "{tag}");
                for (a, b) in doc.cookies.iter().zip(&page.cookies) {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{tag}");
                }
                assert!(doc.js_calls.is_empty() && doc.canvas.is_empty(), "{tag}");
            }
        }
    }

    #[test]
    fn cookie_header_joins_the_jar_matches() {
        let w = world();
        let mut b = browser(&w);
        let page = Url::parse("https://tracker.com/p").unwrap();
        assert_eq!(b.cookie_header(&page), None);
        b.jar.store(
            redlight_net::Cookie::new("uid", "42").with_domain("tracker.com"),
            &page,
        );
        b.jar.store(redlight_net::Cookie::new("s", "x"), &page);
        assert_eq!(b.cookie_header(&page).as_deref(), Some("uid=42; s=x"));
        let sub = Url::parse("https://ads.tracker.com/").unwrap();
        assert_eq!(b.cookie_header(&sub).as_deref(), Some("uid=42"));
        let other = Url::parse("https://other.com/").unwrap();
        assert_eq!(b.cookie_header(&other), None);
    }

    #[test]
    fn https_downgrade_is_flagged() {
        let w = world();
        let mut b = browser(&w);
        let site = w
            .sites
            .iter()
            .find(|s| s.is_porn() && !s.https && !s.unresponsive && !s.openwpm_timeout)
            .unwrap();
        let visit = b.visit(&Url::parse(&format!("https://{}/", site.domain)).unwrap());
        assert!(visit.success);
        assert!(visit.https_downgraded);
        assert_eq!(visit.final_url.as_ref().unwrap().scheme(), Scheme::Http);
    }

    #[test]
    fn session_cookies_persist_across_sites_enabling_sync() {
        let w = world();
        let mut b = browser(&w);
        // Visit every porn site that embeds exosrv; after the first visit,
        // the uid cookie rides along and the pixel redirects to a partner.
        let exosrv = w.services.by_fqdn("exosrv.com").unwrap().id;
        let hosts: Vec<String> = w
            .sites
            .iter()
            .filter(|s| {
                s.is_porn()
                    && !s.unresponsive
                    && !s.openwpm_timeout
                    && s.deployments.iter().any(|d| d.service == exosrv)
            })
            .map(|s| w.landing_url(s))
            .collect();
        assert!(hosts.len() >= 2, "need at least two exosrv sites");
        let mut saw_sync = false;
        for h in &hosts {
            let visit = b.visit(&Url::parse(h).unwrap());
            if visit
                .requests
                .iter()
                .any(|r| r.url.path() == "/sync" && r.url.query_param("suid").is_some())
            {
                saw_sync = true;
            }
        }
        assert!(saw_sync, "cookie sync chain never observed");
    }

    #[test]
    fn canvas_activity_is_attributed_to_scripts() {
        let w = world();
        let mut b = browser(&w);
        // Find a site whose landing page actually renders AND executes a
        // canvas-FP script for this vantage. Mirrors the render conditions
        // in websim::content (fp_scripts > 0, canvas-capable non-miner
        // service, serves the crawl country) plus the browser's
        // mixed-content rule: an HTTPS page never runs an HTTP script.
        let site = w
            .sites
            .iter()
            .filter(|s| s.is_porn() && !s.unresponsive && !s.openwpm_timeout)
            .find(|s| {
                s.first_party_canvas
                    || s.deployments.iter().any(|d| {
                        let svc = w.services.get(d.service);
                        d.fp_scripts > 0
                            && svc.fp.canvas
                            && !svc.miner
                            && svc.serves(Country::Spain)
                            && (svc.https || !s.https)
                    })
            });
        let Some(site) = site else { return };
        let visit = b.visit(&Url::parse(&w.landing_url(site)).unwrap());
        assert!(
            visit.canvas.iter().any(|(_, a)| a.to_data_url_calls > 0),
            "canvas readback not recorded"
        );
    }

    #[test]
    fn unreachable_hosts_yield_failed_visits() {
        let w = world();
        let mut b = browser(&w);
        let visit = b.visit(&Url::parse("https://definitely-not-generated.example/").unwrap());
        assert!(!visit.success);
        assert!(!visit.timeout);
    }

    #[test]
    fn timeouts_are_flagged_for_openwpm() {
        let w = world();
        let Some(site) = w
            .sites
            .iter()
            .find(|s| s.openwpm_timeout && !s.unresponsive && s.is_porn())
        else {
            return;
        };
        let mut b = browser(&w);
        let visit = b.visit(&Url::parse(&w.landing_url(site)).unwrap());
        assert!(visit.timeout);
        assert!(!visit.success);
    }

    #[test]
    fn frames_carry_frame_referrers() {
        let w = world();
        let mut b = browser(&w);
        // Visit sites until an RTB bid request shows up.
        let mut saw_chained = false;
        for s in w
            .sites
            .iter()
            .filter(|s| s.is_porn() && !s.unresponsive && !s.openwpm_timeout)
        {
            let visit = b.visit(&Url::parse(&w.landing_url(s)).unwrap());
            for r in &visit.requests {
                if r.url.path() == "/bid" {
                    let refr = r.referrer.as_ref().expect("bids carry referrers");
                    assert_ne!(
                        refr.host().as_str(),
                        s.domain,
                        "bid referrer must be the exchange frame, not the page"
                    );
                    saw_chained = true;
                }
            }
            if saw_chained {
                break;
            }
        }
        assert!(saw_chained, "no RTB chain observed in tiny world");
    }
}
