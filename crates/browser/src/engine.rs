//! The script host: wires mini-language host-API calls to browser state and
//! the instrumentation log.

use std::borrow::Cow;

use redlight_net::cookie::Cookie;
use redlight_net::http::ResourceKind;
use redlight_net::transport::fnv1a;
use redlight_net::url::Url;
use redlight_script::{HostApi, Value};

use crate::browser::Browser;
use crate::canvas::CanvasActivity;
use crate::device::mix;
use crate::instrument::{CookieObservation, Initiator, JsCall, SetVia};
use crate::page::PageVisit;

/// Every host function [`PageHost`] implements, as a script names it.
/// `PageHost::call` dispatches on these names alone and records a call to
/// one of them without copying its name; any other name is an unknown
/// vendor API.
const HOST_FUNCTIONS: [&str; 28] = [
    "document.setCookie",
    "document.getCookie",
    "http.pixel",
    "http.beacon",
    "http.fetch",
    "dom.createFrame",
    "canvas.create",
    "canvas.fillStyle",
    "canvas.fillRect",
    "canvas.fillText",
    "canvas.toDataURL",
    "canvas.getImageData",
    "canvas.save",
    "canvas.restore",
    "canvas.addEventListener",
    "canvas.setFont",
    "canvas.measureText",
    "webrtc.createConnection",
    "webrtc.createDataChannel",
    "webrtc.candidate",
    "navigator.userAgent",
    "navigator.platform",
    "screen.width",
    "screen.height",
    "page.host",
    "entropy.value",
    "entropy.hash",
    "miner.start",
];

/// Host-API implementation for one script execution on one page.
pub struct PageHost<'a, 'w> {
    browser: &'a mut Browser<'w>,
    visit: &'a mut PageVisit,
    page_url: Url,
    script_url: Option<Url>,
    frames: &'a mut Vec<Url>,
    canvas: CanvasActivity,
    current_font: String,
    entropy_counter: u64,
}

impl<'a, 'w> PageHost<'a, 'w> {
    /// Creates the host for one script run.
    pub(crate) fn new(
        browser: &'a mut Browser<'w>,
        visit: &'a mut PageVisit,
        page_url: &Url,
        script_url: Option<Url>,
        frames: &'a mut Vec<Url>,
    ) -> Self {
        PageHost {
            browser,
            visit,
            page_url: page_url.clone(),
            script_url,
            frames,
            canvas: CanvasActivity::default(),
            current_font: String::new(),
            entropy_counter: 0,
        }
    }

    /// Takes the canvas activity accumulated by this script.
    pub(crate) fn take_canvas(&mut self) -> CanvasActivity {
        std::mem::take(&mut self.canvas)
    }

    fn record(&mut self, api: Cow<'static, str>, args: &[Value]) {
        self.visit.js_calls.push(JsCall {
            script_url: self.script_url.clone(),
            api,
            args: args.iter().map(|v| v.to_string()).collect(),
        });
    }

    /// Argument `i` as text, borrowed when it is a string.
    fn str_arg(args: &[Value], i: usize) -> Cow<'_, str> {
        match args.get(i) {
            Some(Value::Str(s)) => Cow::Borrowed(s),
            Some(v) => Cow::Owned(v.to_string()),
            None => Cow::Borrowed(""),
        }
    }

    fn int_arg(args: &[Value], i: usize) -> i64 {
        args.get(i).and_then(|v| v.as_int()).unwrap_or(0)
    }

    fn issue_request(&mut self, url_str: &str, kind: ResourceKind) {
        let Ok(url) = self.page_url.join(url_str) else {
            return;
        };
        let page = self.page_url.clone();
        let initiator = Initiator::Script(self.script_url.clone());
        let _ = self
            .browser
            .fetch_resource(self.visit, &url, kind, Some(&page), initiator);
    }
}

impl HostApi for PageHost<'_, '_> {
    fn call(&mut self, name: &str, args: &[Value]) -> Value {
        let Some(&api) = HOST_FUNCTIONS.iter().find(|f| **f == name) else {
            // Unknown vendor APIs are recorded and no-op, like a real browser.
            self.record(Cow::Owned(name.to_string()), args);
            return Value::Null;
        };
        self.record(Cow::Borrowed(api), args);
        match api {
            // --- document.cookie: scripts set FIRST-party cookies. ---
            "document.setCookie" => {
                let name = Self::str_arg(args, 0);
                let value = Self::str_arg(args, 1);
                let max_age = Self::int_arg(args, 2);
                if name.is_empty() {
                    return Value::Null;
                }
                let mut cookie = Cookie::new(name, value);
                if max_age > 0 {
                    cookie = cookie.with_max_age(max_age);
                }
                let accepted = self.browser.jar.store(cookie.clone(), &self.page_url);
                self.visit.cookies.push(CookieObservation {
                    effective_domain: self.page_url.host().as_str().to_string(),
                    cookie,
                    via: SetVia::Script,
                    accepted,
                    secure_channel: self.page_url.scheme() == redlight_net::http::Scheme::Https,
                });
                Value::Null
            }
            "document.getCookie" => {
                let wanted = Self::str_arg(args, 0);
                self.browser
                    .jar
                    .matching(&self.page_url)
                    .find(|c| c.name == *wanted)
                    .map(|c| Value::Str(c.value.clone()))
                    .unwrap_or(Value::Null)
            }

            // --- Network. ---
            "http.pixel" => {
                self.issue_request(&Self::str_arg(args, 0), ResourceKind::Image);
                Value::Null
            }
            "http.beacon" => {
                self.issue_request(&Self::str_arg(args, 0), ResourceKind::Beacon);
                Value::Null
            }
            "http.fetch" => {
                self.issue_request(&Self::str_arg(args, 0), ResourceKind::Xhr);
                Value::Null
            }
            "dom.createFrame" => {
                if let Ok(url) = self.page_url.join(&Self::str_arg(args, 0)) {
                    self.frames.push(url);
                }
                Value::Null
            }

            // --- Canvas (the instrumented §5.1.3 surface). ---
            "canvas.create" => {
                self.canvas.width = Self::int_arg(args, 0).max(0) as u32;
                self.canvas.height = Self::int_arg(args, 1).max(0) as u32;
                Value::Null
            }
            "canvas.fillStyle" => {
                let style = Self::str_arg(args, 0);
                self.canvas.fill_style(&style);
                Value::Null
            }
            "canvas.fillRect" => Value::Null,
            "canvas.fillText" => {
                self.canvas.texts.push(Self::str_arg(args, 0).into_owned());
                Value::Null
            }
            "canvas.toDataURL" => {
                self.canvas.to_data_url_calls += 1;
                Value::Str(self.canvas.render_data_url(&self.browser.device))
            }
            "canvas.getImageData" => {
                let w = Self::int_arg(args, 2).max(0) as u32;
                let h = Self::int_arg(args, 3).max(0) as u32;
                self.canvas.get_image_data.push((w, h));
                Value::Str(format!("imagedata:{w}x{h}"))
            }
            "canvas.save" => {
                self.canvas.save_calls += 1;
                Value::Null
            }
            "canvas.restore" => {
                self.canvas.restore_calls += 1;
                Value::Null
            }
            "canvas.addEventListener" => {
                self.canvas.add_event_listener_calls += 1;
                Value::Null
            }
            "canvas.setFont" => {
                self.current_font = Self::str_arg(args, 0).into_owned();
                self.canvas.fonts_set += 1;
                Value::Null
            }
            "canvas.measureText" => {
                let text = Self::str_arg(args, 0).into_owned();
                let width = self.browser.device.measure_text(&self.current_font, &text);
                self.canvas.measured.push((self.current_font.clone(), text));
                Value::Int(width)
            }

            // --- WebRTC (§5.1.4). ---
            "webrtc.createConnection" | "webrtc.createDataChannel" => Value::Null,
            "webrtc.candidate" => Value::Str(self.browser.device.local_ip.to_string()),

            // --- Navigator / screen entropy. ---
            "navigator.userAgent" => Value::Str(self.browser.device.user_agent.to_string()),
            "navigator.platform" => Value::Str(self.browser.device.platform.clone()),
            "screen.width" => Value::Int(self.browser.device.screen_width as i64),
            "screen.height" => Value::Int(self.browser.device.screen_height as i64),

            // --- Page context. ---
            "page.host" => Value::Str(self.page_url.host().as_str().to_string()),

            // --- Deterministic entropy for script-generated ids. ---
            "entropy.value" => {
                self.entropy_counter += 1;
                let v = mix(
                    self.browser.ctx.session,
                    fnv1a(self.page_url.host().as_str().as_bytes()) ^ self.entropy_counter,
                );
                Value::Str(format!("{v:012x}"))
            }
            "entropy.hash" => {
                let v = fnv1a(Self::str_arg(args, 0).as_bytes());
                Value::Str(format!("{v:016x}"))
            }

            // --- Mining is record-only. ---
            "miner.start" => Value::Null,

            _ => unreachable!("host function {api} has no dispatch arm"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redlight_net::geoip::Country;
    use redlight_websim::server::BrowserKind;
    use redlight_websim::{World, WorldConfig};

    fn run_script(source: &str) -> (PageVisit, CanvasActivity) {
        // A throwaway world provides the server; the script here only
        // touches local state.
        let world = Box::leak(Box::new(World::build(WorldConfig::tiny(3))));
        let ctx = Browser::context_for(world, Country::Spain, BrowserKind::OpenWpm);
        let mut browser = Browser::new(world, ctx);
        let page = Url::parse("https://somepage.example/").unwrap();
        let mut visit = PageVisit::failed(page.clone(), false);
        let mut frames = Vec::new();
        let mut host = PageHost::new(&mut browser, &mut visit, &page, None, &mut frames);
        redlight_script::run(source, &mut host).unwrap();
        let canvas = host.take_canvas();
        (visit, canvas)
    }

    #[test]
    fn canvas_calls_accumulate_activity() {
        let (_visit, canvas) = run_script(
            "canvas.create(240, 60);\
             canvas.fillStyle('#f60');\
             canvas.fillStyle('#00a');\
             canvas.fillText('Sphinx of black quartz judge my vow', 2, 15);\
             let d = canvas.toDataURL();",
        );
        assert_eq!(canvas.width, 240);
        assert_eq!(canvas.fill_styles.len(), 2);
        assert_eq!(canvas.to_data_url_calls, 1);
        assert!(canvas.has_rich_text());
    }

    #[test]
    fn measure_text_tracks_font() {
        let (visit, canvas) = run_script(
            "canvas.setFont('probe-font-3');\
             canvas.measureText('mmmm');\
             canvas.setFont('probe-font-4');\
             canvas.measureText('mmmm');",
        );
        assert_eq!(canvas.fonts_set, 2);
        assert_eq!(canvas.measured.len(), 2);
        assert_eq!(canvas.measured[0].0, "probe-font-3");
        assert!(visit.js_calls.iter().any(|c| c.api == "canvas.measureText"));
    }

    #[test]
    fn script_cookies_are_first_party() {
        let (visit, _) = run_script("document.setCookie('u', 'abc123xyz', 3600);");
        assert_eq!(visit.cookies.len(), 1);
        let obs = &visit.cookies[0];
        assert_eq!(obs.via, SetVia::Script);
        assert_eq!(obs.effective_domain, "somepage.example");
        assert!(obs.accepted);
    }

    #[test]
    fn get_cookie_reads_back() {
        let (_, _) = run_script(
            "document.setCookie('k', 'v1', 60);\
             let v = document.getCookie('k');\
             if v != 'v1' { 1 / 0; }",
        );
    }

    #[test]
    fn webrtc_candidate_exposes_local_ip() {
        let (visit, _) =
            run_script("let ip = webrtc.candidate(); http.beacon('https://x.example/l?' + ip);");
        assert!(visit.js_calls.iter().any(|c| c.api == "webrtc.candidate"));
    }

    #[test]
    fn every_host_function_dispatches_under_its_static_name() {
        let source: String = HOST_FUNCTIONS.iter().map(|f| format!("{f}();")).collect();
        let (visit, _) = run_script(&source);
        let recorded: Vec<&str> = visit
            .js_calls
            .iter()
            .map(|c| match &c.api {
                Cow::Borrowed(api) => *api,
                Cow::Owned(api) => panic!("{api} recorded under an owned name"),
            })
            .collect();
        assert_eq!(recorded, HOST_FUNCTIONS);
    }

    #[test]
    fn unknown_api_is_tolerated() {
        let (visit, _) = run_script("vendor.mystery(1, 'two'); miner.start(4);");
        assert_eq!(visit.js_calls.len(), 2);
        assert_eq!(visit.js_calls[0].args, vec!["1", "two"]);
        // Only the unknown vendor API keeps an owned name.
        assert!(matches!(&visit.js_calls[0].api, Cow::Owned(n) if n == "vendor.mystery"));
        assert!(matches!(
            visit.js_calls[1].api,
            Cow::Borrowed("miner.start")
        ));
    }
}
