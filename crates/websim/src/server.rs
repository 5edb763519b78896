//! The simulated web's HTTP surface.
//!
//! `WebServer::handle` is the **only** door between the measurement
//! pipeline and the synthetic internet: it serves landing pages, static
//! assets, tracker scripts, measurement pixels (where `Set-Cookie` happens),
//! cookie-synchronization redirects, RTB auction frames and privacy
//! policies — all deterministically, with per-country behavior.

use std::fmt::Write as _;

use redlight_net::codec;
use redlight_net::geoip::{Country, GeoIpDb};
use redlight_net::http::{Bytes, Request, Response, Scheme, StatusCode};
use redlight_net::psl;
use redlight_net::transport::{fnv1a, Transport};
use redlight_net::url::Url;

// The client-facing vocabulary lives on the transport seam now; re-exported
// here so `websim::server::{BrowserKind, ClientContext, FetchOutcome}` keeps
// working for every existing consumer.
pub use redlight_net::transport::{BrowserKind, ClientContext, FetchOutcome};

use crate::content::{self, mix, RenderCtx};
use crate::scriptgen;
use crate::service::ThirdPartyService;
use crate::sitegen::Site;
use crate::world::{HostEntity, World};

/// The server over a built [`World`]: the canonical [`Transport`]
/// implementation, the in-process synthetic web with no decorators.
pub struct WebServer<'w> {
    world: &'w World,
    geoip: GeoIpDb,
}

impl Transport for WebServer<'_> {
    fn fetch(&self, req: &Request, ctx: &ClientContext) -> FetchOutcome {
        self.handle(req, ctx)
    }
}

impl<'w> WebServer<'w> {
    /// Wraps a world.
    pub fn new(world: &'w World) -> Self {
        WebServer {
            world,
            geoip: GeoIpDb::study_default(),
        }
    }

    /// Handles one request. An HTTPS response presents the certificate of
    /// the entity the host resolved to.
    fn handle(&self, req: &Request, ctx: &ClientContext) -> FetchOutcome {
        let Some(entity) = self.world.resolve_host(req.url.host().as_str()) else {
            return FetchOutcome::Unreachable;
        };
        let outcome = match entity {
            HostEntity::Site(id) => self.handle_site(&self.world.sites[id as usize], req, ctx),
            HostEntity::SiteCdn(id) => {
                let site = &self.world.sites[id as usize];
                if site.unresponsive || site.blocked_in.contains(&ctx.country) {
                    return FetchOutcome::Unreachable;
                }
                ok("image/jpeg", b"\xff\xd8cdn-bytes")
            }
            HostEntity::Service(id) => {
                let svc = self.world.services.get(id);
                self.handle_service(svc, req, ctx)
            }
            HostEntity::CloudHost(_) => ok("application/javascript", b"// static lib\n"),
            HostEntity::Directory(idx) => self.handle_directory(idx as usize),
        };
        match outcome {
            FetchOutcome::Response(resp) if req.url.scheme() == Scheme::Https => {
                let cert = self.world.cert_for(Some(entity), req.url.host().as_str());
                FetchOutcome::Response(resp.with_certificate(cert))
            }
            other => other,
        }
    }

    /// `true` when the host does not speak HTTPS but the request asks for it.
    fn https_mismatch(&self, req: &Request, supports_https: bool) -> bool {
        req.url.scheme() == Scheme::Https && !supports_https
    }

    fn handle_site(&self, site: &Site, req: &Request, ctx: &ClientContext) -> FetchOutcome {
        if site.unresponsive || site.blocked_in.contains(&ctx.country) {
            return FetchOutcome::Unreachable;
        }
        if self.https_mismatch(req, site.https) {
            return FetchOutcome::Unreachable;
        }
        let path = req.url.path();

        // Document requests may time out for the OpenWPM crawl (§3.1's 120 s
        // budget lost 497 porn and ~1.2k regular sites).
        if path == "/" && site.openwpm_timeout && ctx.browser == BrowserKind::OpenWpm {
            return FetchOutcome::Timeout;
        }

        match path {
            "/" => {
                let gate_passed = req.url.query_param("verified").as_deref() == Some("1");
                let ctx2 = RenderCtx {
                    services: &self.world.services,
                    sites: &self.world.sites,
                    owner_name: self.world.owner_name(site),
                };
                let html = content::render_landing(&ctx2, site, ctx.country, gate_passed);
                FetchOutcome::Response(Response::ok("text/html", html))
            }
            "/static/main.css" => ok("text/css", b"body{margin:0}"),
            p if p.starts_with("/static/") || p.starts_with("/embed/") => {
                ok("image/jpeg", b"\xff\xd8img")
            }
            "/own/fp.js" if site.first_party_canvas => FetchOutcome::Response(Response::ok(
                "application/javascript",
                scriptgen::first_party_canvas_script(&site.domain, site.https),
            )),
            "/enter" => {
                let target = Url::parse(&format!(
                    "{}://{}/?verified=1",
                    if site.https { "https" } else { "http" },
                    site.domain
                ))
                .expect("static url");
                FetchOutcome::Response(Response::redirect(&target))
            }
            "/social-login" => FetchOutcome::Response(Response::error(StatusCode::FORBIDDEN)),
            "/login" | "/signup" => ok(
                "text/html",
                b"<html><body><form>Sign Up free</form></body></html>",
            ),
            "/premium" => {
                let body: &'static [u8] = if site.premium_paid {
                    b"<html><body><h1>Premium</h1><p>Checkout: $29.99 / month. \
                      Payment required to unlock full scenes.</p></body></html>"
                } else {
                    b"<html><body><h1>Premium</h1><p>Free registration unlocks all \
                      content after you create an account.</p></body></html>"
                };
                ok("text/html", body)
            }
            p if site.policy.as_ref().is_some_and(|pol| pol.path == p) => {
                let pol = site.policy.as_ref().expect("guarded");
                if pol.broken {
                    return FetchOutcome::Response(Response::error(StatusCode::GONE));
                }
                let parties: Vec<&str> = site
                    .deployments
                    .iter()
                    .map(|d| self.world.services.get(d.service).fqdn.as_str())
                    .collect();
                let mut html = String::from("<html><body><main>");
                crate::policygen::write_policy(
                    &mut html,
                    pol,
                    &site.domain,
                    self.world.owner_name(site),
                    &parties,
                );
                html.push_str("</main></body></html>");
                FetchOutcome::Response(Response::ok("text/html", html))
            }
            "/own-fp" | "/widget-metrics" => ok("image/gif", b"GIF89a"),
            _ => FetchOutcome::Response(Response::error(StatusCode::NOT_FOUND)),
        }
    }

    fn handle_directory(&self, idx: usize) -> FetchOutcome {
        // Each aggregator lists a slice of the directory-listed porn sites.
        let n_dirs = self.world.directory_domains.len().max(1);
        let mut html = String::from("<html><body><h1>Adult site directory</h1><ul>");
        for site in self
            .world
            .sites
            .iter()
            .filter(|s| s.in_directory)
            .filter(|s| (mix(s.id.0 as u64, 0xD1) as usize) % n_dirs == idx)
        {
            let scheme = if site.https { "https" } else { "http" };
            let _ = write!(
                html,
                "<li><a href=\"{scheme}://{}/\">{}</a></li>",
                site.domain, site.domain
            );
        }
        html.push_str("</ul></body></html>");
        FetchOutcome::Response(Response::ok("text/html", html))
    }

    fn handle_service(
        &self,
        svc: &ThirdPartyService,
        req: &Request,
        ctx: &ClientContext,
    ) -> FetchOutcome {
        if !svc.serves(ctx.country) {
            return FetchOutcome::Unreachable;
        }
        if self.https_mismatch(req, svc.https) {
            return FetchOutcome::Unreachable;
        }
        let path = req.url.path();
        let script =
            |body: String| FetchOutcome::Response(Response::ok("application/javascript", body));

        // Script families.
        if let Some(v) = path_variant(path, "/tag/v", ".js") {
            return script(scriptgen::tag_script(svc, v));
        }
        if let Some(v) = path_variant(path, "/js/analytics-v", ".js") {
            return script(scriptgen::analytics_script(svc, v));
        }
        if let Some(v) = path_variant(path, "/fp/v", ".js").or(path_variant(path, "/fpx/v", ".js"))
        {
            return script(scriptgen::canvas_fp_script(svc, v));
        }
        if path == "/font/probe.js" {
            return script(scriptgen::font_fp_script(svc));
        }
        if let Some(v) = path_variant(path, "/rtc/v", ".js") {
            return script(scriptgen::webrtc_script(svc, v));
        }
        if path == "/miner/loader.js" {
            return script(scriptgen::miner_script(svc));
        }

        match path {
            // The measurement pixel: cookies happen here.
            "/px" | "/bid" => {
                let sid = req
                    .url
                    .query_param("sid")
                    .or_else(|| req.url.query_param("pid"));
                let site_hash = fnv1a(sid.as_deref().unwrap_or("unknown").as_bytes());
                // Cookie syncing: a repeat sighting of our own uid cookie
                // triggers a redirect that leaks it to a partner (§5.1.2).
                // Syncing is opportunistic: each service fires the redirect
                // on a per-site share of placements (its sync gate).
                let sync_gate =
                    mix(site_hash, svc.id.0 as u64 ^ 0x517C) % 100 < svc.sync_gate_pct as u64;
                if path == "/px" && !svc.sync_to.is_empty() && sync_gate {
                    if let Some(uid) = request_cookie(req, "uid") {
                        if let Some(target) = self.sync_target(svc, site_hash, ctx.country) {
                            let turl = Url::parse(&format!(
                                "{}://{}/sync?src={}&suid={}",
                                if target.https { "https" } else { "http" },
                                target.fqdn,
                                svc.fqdn,
                                codec::percent_encode(uid),
                            ))
                            .expect("sync url");
                            let mut resp = Response::redirect(&turl);
                            self.set_service_cookies(svc, site_hash, ctx, &mut resp);
                            return FetchOutcome::Response(resp);
                        }
                    }
                }
                let mut resp = Response::ok("image/gif", Bytes::from_static(b"GIF89a"));
                self.set_service_cookies(svc, site_hash, ctx, &mut resp);
                FetchOutcome::Response(resp)
            }
            // Sync destination: the partner records the uid carried in the
            // URL; no new cookie is needed (it already has its own).
            "/sync" => ok("image/gif", b"GIF89a"),
            // RTB auction frame: demand partners are pulled in from inside
            // the frame, so their requests carry the exchange as referrer
            // (the §3.1 inclusion chain).
            "/frame" => {
                let sid = req.url.query_param("sid").unwrap_or_default();
                let site_hash = fnv1a(sid.as_bytes());
                let mut html = String::from("<html><body>");
                let partners = &svc.rtb_partners;
                // Rotate the winning demand partner per site; a second slot
                // fills occasionally. Keeps per-partner RTB reach well below
                // the exchange's own reach (Fig. 3 shape).
                let take = if site_hash.is_multiple_of(3) { 2 } else { 1 };
                for k in 0..take.min(partners.len()) {
                    let pid = partners[(site_hash as usize + k) % partners.len()];
                    let p = self.world.services.get(pid);
                    if !p.serves(ctx.country) {
                        continue;
                    }
                    let s = if p.https { "https" } else { "http" };
                    let _ = write!(
                        html,
                        "<img src=\"{s}://{}/bid?pid={sid}&slot={k}\">",
                        p.fqdn
                    );
                }
                html.push_str("</body></html>");
                FetchOutcome::Response(Response::ok("text/html", html))
            }
            // Beacon sinks.
            "/collect" | "/fp-collect" | "/rtc-collect" | "/font-collect" | "/hashrate" => {
                ok("image/gif", b"GIF89a")
            }
            _ => FetchOutcome::Response(Response::error(StatusCode::NOT_FOUND)),
        }
    }

    /// The session-stable uid a service assigns this browser.
    fn uid_for(&self, svc: &ThirdPartyService, ctx: &ClientContext) -> String {
        let h = mix(svc.id.0 as u64 ^ 0x1D, ctx.session);
        format!("{h:016x}")
    }

    /// Chooses the sync partner for a site, honoring country gating.
    fn sync_target(
        &self,
        svc: &ThirdPartyService,
        site_hash: u64,
        country: Country,
    ) -> Option<&ThirdPartyService> {
        let n = svc.sync_to.len();
        if n == 0 {
            return None;
        }
        (0..n)
            .map(|k| svc.sync_to[(site_hash as usize + k) % n])
            .map(|id| self.world.services.get(id))
            .find(|p| p.serves(country))
    }

    /// Emits this service's `Set-Cookie` headers for a pixel hit, each
    /// written straight into its header value: `name=value; Domain=…;
    /// Path=/`, then `Max-Age` and `Secure` when they apply.
    fn set_service_cookies(
        &self,
        svc: &ThirdPartyService,
        site_hash: u64,
        ctx: &ClientContext,
        resp: &mut Response,
    ) {
        let Some(behavior) = &svc.cookies else { return };
        let uid = self.uid_for(svc, ctx);
        let persistent =
            (mix(svc.id.0 as u64, site_hash) % 1_000) as f64 / 1_000.0 < behavior.id_ratio;
        let domain = psl::registrable_domain(&svc.fqdn).trim_start_matches('.');
        let max_age = if behavior.embed_geo {
            Some(86_400)
        } else if persistent {
            Some(31_536_000)
        } else {
            None
        };
        let secure = svc.https && mix(svc.id.0 as u64, 0x5EC).is_multiple_of(2);

        for i in 0..behavior.cookies_per_visit.max(1) {
            let mut header = String::with_capacity(64 + domain.len());
            if i == 0 {
                header.push_str("uid=");
            } else {
                let _ = write!(header, "x{i}=");
            }
            // Value construction per behavior.
            if behavior.embed_geo {
                let geo = self.geoip.lookup(ctx.client_ip);
                let (lat, lon) = geo.map(|g| (g.latitude, g.longitude)).unwrap_or((0.0, 0.0));
                let mut raw = format!("lat={lat:.1},lon={lon:.1}");
                if behavior.geo_includes_isp {
                    let isp = geo.and_then(|g| g.isp.as_deref()).unwrap_or("unknown");
                    let _ = write!(raw, ",isp={isp}");
                }
                header.push_str(&codec::percent_encode(&raw));
            } else {
                let embeds_ip = (mix(site_hash ^ (i as u64) << 32, svc.id.0 as u64) % 1_000) as f64
                    / 1_000.0
                    < behavior.embed_ip_ratio;
                if embeds_ip {
                    let raw = format!("ip={}&uid={uid}", ctx.client_ip);
                    header.push_str(&codec::base64_encode(raw.as_bytes()));
                } else if behavior.long_value {
                    // >1,000-char payloads, up to ~3,600 (§5.1.1).
                    let reps = 1 + ((mix(site_hash, 0x70) % 6) as usize);
                    for _ in 0..1 + 38 * reps {
                        header.push_str(&uid);
                    }
                } else {
                    // The uid repeated, cut to the service's id length.
                    let len = behavior.id_len.max(2) as usize;
                    let start = header.len();
                    for _ in 0..len / 16 + 1 {
                        header.push_str(&uid);
                    }
                    header.truncate(start + len);
                }
            }
            header.push_str("; Domain=");
            header.extend(domain.chars().map(|c| c.to_ascii_lowercase()));
            header.push_str("; Path=/");
            if let Some(age) = max_age {
                let _ = write!(header, "; Max-Age={age}");
            }
            if secure {
                header.push_str("; Secure");
            }
            resp.headers.append("set-cookie", header);
        }
    }
}

/// A 200 response with a constant body, which it borrows.
fn ok(content_type: &'static str, body: &'static [u8]) -> FetchOutcome {
    FetchOutcome::Response(Response::ok(content_type, Bytes::from_static(body)))
}

/// Parses `/prefix{N}suffix` paths.
fn path_variant(path: &str, prefix: &str, suffix: &str) -> Option<u32> {
    path.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// First value of a named cookie in the request's `Cookie` header.
fn request_cookie<'r>(req: &'r Request, name: &str) -> Option<&'r str> {
    let header = req.headers.get("cookie")?;
    header
        .split("; ")
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use redlight_net::cookie::Cookie;
    use redlight_net::geoip::VantagePoint;
    use redlight_net::http::ResourceKind;
    use std::net::Ipv4Addr;

    fn world() -> World {
        World::build(WorldConfig::tiny(77))
    }

    fn ctx(country: Country) -> ClientContext {
        ClientContext {
            country,
            client_ip: Ipv4Addr::new(203, 0, 113, 77),
            session: 0xBEEF,
            browser: BrowserKind::OpenWpm,
        }
    }

    fn get(url: &str) -> Request {
        Request::get(Url::parse(url).unwrap(), ResourceKind::Document)
    }

    fn expect_response(out: FetchOutcome) -> Response {
        match out {
            FetchOutcome::Response(r) => r,
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn serves_landing_pages_with_certificates() {
        let w = world();
        let server = WebServer::new(&w);
        let site = w
            .sites
            .iter()
            .find(|s| s.is_porn() && s.https && !s.unresponsive && !s.openwpm_timeout)
            .unwrap();
        let resp = expect_response(server.handle(&get(&w.landing_url(site)), &ctx(Country::Spain)));
        assert!(resp.status.is_success());
        assert!(resp.text().contains(&site.domain));
        assert!(resp.certificate.is_some());
    }

    #[test]
    fn https_to_http_only_site_is_unreachable() {
        let w = world();
        let server = WebServer::new(&w);
        let site = w
            .sites
            .iter()
            .find(|s| s.is_porn() && !s.https && !s.unresponsive)
            .unwrap();
        let req = get(&format!("https://{}/", site.domain));
        assert!(matches!(
            server.handle(&req, &ctx(Country::Spain)),
            FetchOutcome::Unreachable
        ));
        let req = get(&format!("http://{}/", site.domain));
        if !site.openwpm_timeout {
            assert!(matches!(
                server.handle(&req, &ctx(Country::Spain)),
                FetchOutcome::Response(_)
            ));
        }
    }

    #[test]
    fn openwpm_timeout_only_hits_openwpm() {
        let w = world();
        let server = WebServer::new(&w);
        let Some(site) = w
            .sites
            .iter()
            .find(|s| s.openwpm_timeout && !s.unresponsive && s.is_porn())
        else {
            return; // tiny worlds may have none
        };
        let req = get(&w.landing_url(site));
        assert!(matches!(
            server.handle(&req, &ctx(Country::Spain)),
            FetchOutcome::Timeout
        ));
        let mut selenium = ctx(Country::Spain);
        selenium.browser = BrowserKind::Selenium;
        assert!(matches!(
            server.handle(&req, &selenium),
            FetchOutcome::Response(_)
        ));
    }

    #[test]
    fn pixel_sets_stable_uid_cookie() {
        let w = world();
        let server = WebServer::new(&w);
        let svc = w.services.by_fqdn("doubleclick.net").unwrap();
        let mut req = get("https://doubleclick.net/px?sid=porn.site");
        req.kind = ResourceKind::Image;
        let c = ctx(Country::Spain);
        let r1 = expect_response(server.handle(&req, &c));
        let r2 = expect_response(server.handle(&req, &c));
        let c1 = r1.cookies();
        assert!(!c1.is_empty());
        assert_eq!(c1[0].name, "uid");
        assert_eq!(c1[0].value, r2.cookies()[0].value, "session-stable uid");
        assert_eq!(c1[0].domain.as_deref(), Some("doubleclick.net"));
        let _ = svc;
    }

    /// The `Set-Cookie` values of a pixel hit as they were produced before
    /// the server wrote them directly: each cookie built as a [`Cookie`]
    /// with its domain, path, max-age and secure rules, then serialized.
    fn set_cookie_reference(
        server: &WebServer<'_>,
        svc: &ThirdPartyService,
        site_hash: u64,
        ctx: &ClientContext,
    ) -> Vec<String> {
        let Some(behavior) = &svc.cookies else {
            return Vec::new();
        };
        let uid = server.uid_for(svc, ctx);
        let persistent =
            (mix(svc.id.0 as u64, site_hash) % 1_000) as f64 / 1_000.0 < behavior.id_ratio;
        let domain = psl::registrable_domain(&svc.fqdn).to_string();
        let mut headers = Vec::new();
        for i in 0..behavior.cookies_per_visit.max(1) {
            let name = if i == 0 {
                "uid".to_string()
            } else {
                format!("x{i}")
            };
            let value = if behavior.embed_geo {
                let geo = server.geoip.lookup(ctx.client_ip);
                let (lat, lon) = geo.map(|g| (g.latitude, g.longitude)).unwrap_or((0.0, 0.0));
                let mut raw = format!("lat={lat:.1},lon={lon:.1}");
                if behavior.geo_includes_isp {
                    let isp = geo
                        .and_then(|g| g.isp.clone())
                        .unwrap_or_else(|| "unknown".into());
                    raw.push_str(&format!(",isp={isp}"));
                }
                codec::percent_encode(&raw)
            } else {
                let embeds_ip = (mix(site_hash ^ (i as u64) << 32, svc.id.0 as u64) % 1_000) as f64
                    / 1_000.0
                    < behavior.embed_ip_ratio;
                if embeds_ip {
                    codec::base64_encode(format!("ip={}&uid={uid}", ctx.client_ip).as_bytes())
                } else if behavior.long_value {
                    let reps = 1 + ((mix(site_hash, 0x70) % 6) as usize);
                    format!("{}{}", uid, uid.repeat(38 * reps))
                } else {
                    let len = behavior.id_len.max(2) as usize;
                    let mut v = uid.repeat(len / 16 + 1);
                    v.truncate(len);
                    v
                }
            };
            let mut cookie = Cookie::new(name, value).with_domain(&domain).with_path("/");
            if persistent && !behavior.embed_geo {
                cookie = cookie.with_max_age(31_536_000);
            } else if behavior.embed_geo {
                cookie = cookie.with_max_age(86_400);
            }
            if svc.https && mix(svc.id.0 as u64, 0x5EC).is_multiple_of(2) {
                cookie = cookie.secure();
            }
            headers.push(cookie.to_set_cookie());
        }
        headers
    }

    #[test]
    fn pixel_set_cookie_headers_match_serialized_cookies() {
        let w = world();
        let server = WebServer::new(&w);
        let vantages: Vec<ClientContext> = VantagePoint::study_default()
            .into_iter()
            .filter(|vp| matches!(vp.country, Country::Spain | Country::Usa))
            .map(|vp| ClientContext {
                country: vp.country,
                client_ip: vp.client_ip,
                session: mix(0x5E55, vp.country as u64),
                browser: BrowserKind::OpenWpm,
            })
            .collect();
        assert_eq!(vantages.len(), 2);
        let (mut geo_isp, mut geo_plain, mut with_ip, mut long, mut short) =
            (false, false, false, false, false);
        let mut compared = 0;
        for svc in w.services.iter().filter(|s| s.cookies.is_some()) {
            let behavior = svc.cookies.as_ref().expect("filtered");
            let scheme = if svc.https { "https" } else { "http" };
            for ctx in &vantages {
                for i in 0..40 {
                    let sid = format!("site{i}.example");
                    let req = get(&format!("{scheme}://{}/px?sid={sid}", svc.fqdn));
                    let FetchOutcome::Response(resp) = server.handle(&req, ctx) else {
                        assert!(!svc.serves(ctx.country), "{} unreachable", svc.fqdn);
                        continue;
                    };
                    let got: Vec<&str> = resp.headers.get_all("set-cookie").collect();
                    let want = set_cookie_reference(&server, svc, fnv1a(sid.as_bytes()), ctx);
                    assert_eq!(got, want, "{} sid {sid} from {:?}", svc.fqdn, ctx.country);
                    compared += got.len();
                    let values = got
                        .iter()
                        .map(|h| h.split_once('=').expect("name=value").1)
                        .map(|h| h.split_once(';').map_or(h, |(v, _)| v));
                    for value in values {
                        geo_isp |= behavior.embed_geo && behavior.geo_includes_isp;
                        geo_plain |= behavior.embed_geo && !behavior.geo_includes_isp;
                        with_ip |= codec::base64_decode_lossy_text(value)
                            .is_some_and(|t| t.starts_with("ip="));
                        long |= behavior.long_value && value.len() > 1_000;
                        short |= behavior.id_len < 8 && value.len() == behavior.id_len as usize;
                    }
                }
            }
        }
        assert!(compared > 1_000, "{compared} headers compared");
        assert!(geo_isp && geo_plain, "geo cookies with and without ISP");
        assert!(with_ip, "IP-embedding cookies");
        assert!(long && short, "long values and short ids");
    }

    #[test]
    fn repeat_pixel_with_cookie_triggers_sync_redirect() {
        let w = world();
        let server = WebServer::new(&w);
        // exosrv has sync partners wired in the catalog; the redirect is
        // gated per site, so probe several site ids until one fires.
        let mut fired = false;
        for i in 0..20 {
            let mut req = get(&format!("https://exosrv.com/px?sid=site{i}.porn"));
            req.kind = ResourceKind::Image;
            req.headers.set("cookie", "uid=deadbeef01");
            let resp = expect_response(server.handle(&req, &ctx(Country::Spain)));
            if resp.status.is_redirect() {
                let loc = resp.location().unwrap();
                assert!(loc.contains("suid=deadbeef01"), "{loc}");
                assert!(loc.contains("/sync?src=exosrv.com"));
                fired = true;
                break;
            }
        }
        assert!(fired, "sync never fired across 20 site ids");
    }

    #[test]
    fn exosrv_cookies_embed_client_ip() {
        let w = world();
        let server = WebServer::new(&w);
        let c = ctx(Country::Spain);
        // Across many sites, ≈85 % of exosrv cookies embed the IP (§5.1.1).
        let mut with_ip = 0;
        let mut total = 0;
        for i in 0..120 {
            let mut req = get(&format!("https://exosrv.com/px?sid=site{i}.com"));
            req.kind = ResourceKind::Image;
            let resp = expect_response(server.handle(&req, &c));
            for cookie in resp.cookies() {
                total += 1;
                if let Some(text) = codec::base64_decode_lossy_text(&cookie.value) {
                    if text.contains(&c.client_ip.to_string()) {
                        with_ip += 1;
                    }
                }
            }
        }
        let frac = with_ip as f64 / total as f64;
        assert!((0.7..0.95).contains(&frac), "ip-embedding fraction {frac}");
    }

    #[test]
    fn country_gated_service_is_unreachable_elsewhere() {
        let w = world();
        let server = WebServer::new(&w);
        let svc = w
            .services
            .iter()
            .find(|s| s.countries.as_deref() == Some(&[Country::Russia][..]))
            .unwrap();
        let scheme = if svc.https { "https" } else { "http" };
        let req = get(&format!("{scheme}://{}/tag/v1.js", svc.fqdn));
        assert!(matches!(
            server.handle(&req, &ctx(Country::Spain)),
            FetchOutcome::Unreachable
        ));
        assert!(matches!(
            server.handle(&req, &ctx(Country::Russia)),
            FetchOutcome::Response(_)
        ));
    }

    #[test]
    fn directory_lists_directory_sites() {
        let w = world();
        let server = WebServer::new(&w);
        let mut found = 0;
        for (i, d) in w.directory_domains.iter().enumerate() {
            let resp = expect_response(
                server.handle(&get(&format!("https://{d}/")), &ctx(Country::Spain)),
            );
            let text = resp.text();
            for s in w.sites.iter().filter(|s| s.in_directory) {
                if text.contains(&s.domain) {
                    found += 1;
                }
            }
            let _ = i;
        }
        let total = w.sites.iter().filter(|s| s.in_directory).count();
        assert_eq!(found, total, "every directory site listed exactly once");
    }

    #[test]
    fn rtb_frame_embeds_partner_bids() {
        let w = world();
        let server = WebServer::new(&w);
        let resp = expect_response(server.handle(
            &get("https://exoclick.com/frame?v=1&sid=porn.site"),
            &ctx(Country::Spain),
        ));
        let text = resp.text();
        assert!(text.contains("/bid?pid=porn.site"), "{text}");
    }

    #[test]
    fn policy_pages_served_and_broken_policies_error() {
        let w = World::build(WorldConfig::small(7));
        let server = WebServer::new(&w);
        let c = ctx(Country::Spain);
        let site = w
            .sites
            .iter()
            .find(|s| {
                s.policy.as_ref().is_some_and(|p| !p.broken) && s.is_porn() && !s.unresponsive
            })
            .unwrap();
        let pol = site.policy.as_ref().unwrap();
        let scheme = if site.https { "https" } else { "http" };
        let resp = expect_response(
            server.handle(&get(&format!("{scheme}://{}{}", site.domain, pol.path)), &c),
        );
        assert!(resp.status.is_success());
        assert!(resp.text().len() > 500);

        if let Some(broken_site) = w
            .sites
            .iter()
            .find(|s| s.policy.as_ref().is_some_and(|p| p.broken) && !s.unresponsive)
        {
            let bp = broken_site.policy.as_ref().unwrap();
            let scheme = if broken_site.https { "https" } else { "http" };
            let resp = expect_response(server.handle(
                &get(&format!("{scheme}://{}{}", broken_site.domain, bp.path)),
                &c,
            ));
            assert!(resp.status.is_error());
        }
    }

    #[test]
    fn unknown_hosts_are_unreachable() {
        let w = world();
        let server = WebServer::new(&w);
        assert!(matches!(
            server.handle(&get("https://not-a-real-host.example/"), &ctx(Country::Usa)),
            FetchOutcome::Unreachable
        ));
    }
}
