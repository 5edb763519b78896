//! Tracker-script generation.
//!
//! Every script the synthetic web serves is source text in the
//! `redlight-script` mini-language; the instrumented browser interprets it
//! and records the host-API calls, exactly as OpenWPM records JavaScript
//! calls. Script text is a pure function of `(service fqdn, scheme,
//! variant, behavior)` so identical deployments share bytes and the
//! "distinct scripts" counts of §5.1.3 are meaningful.

use std::fmt::Write as _;

use crate::service::ThirdPartyService;

/// Scheme string for a service.
fn scheme(https: bool) -> &'static str {
    if https {
        "https"
    } else {
        "http"
    }
}

/// The standard ad/analytics tag: fires the measurement pixel (which is
/// where HTTP cookies get set) and, for RTB exchanges, opens the auction
/// frame that pulls demand partners in (the inclusion chain of §3.1).
pub fn tag_script(svc: &ThirdPartyService, variant: u32) -> String {
    let s = scheme(svc.https);
    let fqdn = &svc.fqdn;
    let mut out = String::new();
    out.push_str(&format!(
        "// {label} tag v{variant}\n\
         let ua = navigator.userAgent();\n\
         let w = screen.width();\n\
         http.pixel('{s}://{fqdn}/px?v={variant}&sid=' + page.host() + '&w=' + w);\n",
        label = svc.label,
    ));
    // Auctions are expensive: the exchange opens its RTB frame on roughly a
    // third of placements (keeps demand-partner reach below exchange reach,
    // as Fig. 3 shows).
    if !svc.rtb_partners.is_empty() && variant.is_multiple_of(3) {
        out.push_str(&format!(
            "dom.createFrame('{s}://{fqdn}/frame?v={variant}&sid=' + page.host());\n"
        ));
    }
    out
}

/// Google-Analytics-style first-party measurement: sets a *first-party*
/// cookie via `document.cookie` (scripts run in page context), then beacons.
pub fn analytics_script(svc: &ThirdPartyService, variant: u32) -> String {
    let s = scheme(svc.https);
    let fqdn = &svc.fqdn;
    format!(
        "// {label} analytics v{variant}\n\
         let cid = document.getCookie('_fpid');\n\
         if cid == null || cid == '' {{\n\
           cid = 'fp.' + page.host() + '.{variant}.' + entropy.value();\n\
           document.setCookie('_fpid', cid, 63072000);\n\
         }}\n\
         http.beacon('{s}://{fqdn}/collect?v={variant}&cid=' + substr(cid, 3, len(cid)) + '&dl=' + page.host());\n",
        label = svc.label,
    )
}

/// A canvas-fingerprinting script that satisfies every Englehardt criterion
/// the detector checks (§5.1.3): canvas ≥ 16×16, ≥ 2 fill colors, drawn text
/// with > 10 distinct characters, and a `toDataURL` readback — without ever
/// touching `save`/`restore`/`addEventListener`.
pub fn canvas_fp_script(svc: &ThirdPartyService, variant: u32) -> String {
    let s = scheme(svc.https);
    let fqdn = &svc.fqdn;
    // Pangram-ish payloads keep >10 distinct characters; the variant swaps
    // the exact text and colors so each variant hashes differently.
    let texts = [
        "Cwm fjordbank glyphs vext quiz 08",
        "Sphinx of black quartz judge my vow 19",
        "Pack my box with five dozen liquor jugs 27",
        "How vexingly quick daft zebras jump 35",
    ];
    let text = texts[(variant as usize) % texts.len()];
    let hue = 10 + (variant % 340);
    format!(
        "// cfp {fqdn} v{variant}\n\
         canvas.create(240, 60);\n\
         canvas.fillStyle('#f60');\n\
         canvas.fillRect(0, 0, 240, 60);\n\
         canvas.fillStyle('hsl({hue},80%,40%)');\n\
         canvas.fillText('{text}', 2, 15);\n\
         canvas.fillStyle('rgba(102,204,0,0.7)');\n\
         canvas.fillText('{text}', 4, 17);\n\
         let fp = canvas.toDataURL();\n\
         http.beacon('{s}://{fqdn}/fp-collect?v={variant}&h=' + entropy.hash(fp));\n"
    )
}

/// A canvas-using script that must NOT be counted: small canvas, single
/// color, short text, and `save`/`restore` — a sparkline/UI widget.
pub fn decoy_canvas_script(owner_fqdn: &str, https: bool) -> String {
    let s = scheme(https);
    format!(
        "// ui sparkline widget\n\
         canvas.create(12, 12);\n\
         canvas.save();\n\
         canvas.fillStyle('#ccc');\n\
         canvas.fillText('ok', 1, 9);\n\
         canvas.restore();\n\
         canvas.addEventListener('click');\n\
         let d = canvas.toDataURL();\n\
         http.beacon('{s}://{owner_fqdn}/widget-metrics?l=' + len(d));\n"
    )
}

/// The font-fingerprinting script (online-metrix.net analog): sets the font
/// and measures the same string across ≥ 50 fonts (§5.1.3's strict rule).
pub fn font_fp_script(svc: &ThirdPartyService) -> String {
    let s = scheme(svc.https);
    let fqdn = &svc.fqdn;
    format!(
        "// font probe {fqdn}\n\
         canvas.create(64, 16);\n\
         let acc = 0;\n\
         for i in 0..56 {{\n\
           canvas.setFont('probe-font-' + i);\n\
           let m = canvas.measureText('mmmmmmmmmmlli');\n\
           acc = acc + m;\n\
         }}\n\
         http.beacon('{s}://{fqdn}/font-collect?sum=' + acc);\n"
    )
}

/// A WebRTC address-harvesting script (§5.1.4).
pub fn webrtc_script(svc: &ThirdPartyService, variant: u32) -> String {
    let s = scheme(svc.https);
    let fqdn = &svc.fqdn;
    format!(
        "// rtc probe {fqdn} v{variant}\n\
         webrtc.createConnection();\n\
         webrtc.createDataChannel('probe{variant}');\n\
         let localip = webrtc.candidate();\n\
         http.beacon('{s}://{fqdn}/rtc-collect?v={variant}&l=' + localip);\n"
    )
}

/// A browser cryptominer loader (§5.3).
pub fn miner_script(svc: &ThirdPartyService) -> String {
    let s = scheme(svc.https);
    let fqdn = &svc.fqdn;
    format!(
        "// miner loader {fqdn}\n\
         miner.start(4);\n\
         http.beacon('{s}://{fqdn}/hashrate?w=' + screen.width());\n"
    )
}

/// The first-party site script, appended to `out` (the landing page
/// inlines it): session bookkeeping cookies (some persistent, some
/// session — feeding the §5.1.1 totals).
pub fn first_party_script(out: &mut String, domain: &str, n_persistent: u8, n_session: u8) {
    // Writing into a `String` cannot fail.
    let _ = writeln!(out, "// site core {domain}");
    for i in 0..n_persistent {
        let _ = writeln!(
            out,
            "document.setCookie('pref{i}', 'v' + entropy.value() + 'x{i}', 2592000);"
        );
    }
    for i in 0..n_session {
        let _ = writeln!(
            out,
            "document.setCookie('sess{i}', 's' + entropy.value(), 0);"
        );
    }
}

/// A first-party canvas-fingerprinting script (the ~26 % of §5.1.3 scripts
/// that are not delivered by third parties).
pub fn first_party_canvas_script(domain: &str, https: bool) -> String {
    let s = scheme(https);
    format!(
        "// inhouse cfp {domain}\n\
         canvas.create(200, 40);\n\
         canvas.fillStyle('#123456');\n\
         canvas.fillRect(0, 0, 200, 40);\n\
         canvas.fillStyle('#fedcba');\n\
         canvas.fillText('Grumpy wizards make toxic brew {domain}', 3, 20);\n\
         let fp = canvas.toDataURL();\n\
         http.beacon('{s}://{domain}/own-fp?h=' + entropy.hash(fp));\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::OrgId;
    use crate::service::{
        Adoption, FpBehavior, ListCoverage, ServiceCategory, ServiceId, ThirdPartyService,
    };
    use redlight_script::{parse_program, run, CollectingHost};

    fn svc(fqdn: &str, https: bool) -> ThirdPartyService {
        ThirdPartyService {
            id: ServiceId(0),
            org: OrgId(0),
            label: "Test".into(),
            fqdn: fqdn.into(),
            extra_fqdns: vec![],
            category: ServiceCategory::AdNetwork,
            https,
            adoption: Adoption::none(),
            countries: None,
            cookies: None,
            sync_to: vec![],
            sync_gate_pct: 100,
            rtb_partners: vec![],
            fp: FpBehavior::default(),
            miner: false,
            malicious: false,
            list_coverage: ListCoverage::None,
            in_disconnect: false,
            cert_org: None,
        }
    }

    fn assert_parses(src: &str) {
        parse_program(src).unwrap_or_else(|e| panic!("script fails to parse: {e}\n{src}"));
    }

    #[test]
    fn all_generated_scripts_parse() {
        let s = svc("tracker.net", true);
        assert_parses(&tag_script(&s, 3));
        assert_parses(&analytics_script(&s, 1));
        assert_parses(&canvas_fp_script(&s, 7));
        assert_parses(&decoy_canvas_script("site.com", false));
        assert_parses(&font_fp_script(&s));
        assert_parses(&webrtc_script(&s, 2));
        assert_parses(&miner_script(&s));
        let mut first_party = String::new();
        first_party_script(&mut first_party, "site.com", 4, 2);
        assert_parses(&first_party);
        assert_parses(&first_party_canvas_script("site.com", true));
    }

    #[test]
    fn canvas_variants_differ_textually() {
        let s = svc("fp.party", false);
        assert_ne!(canvas_fp_script(&s, 0), canvas_fp_script(&s, 1));
        assert_eq!(canvas_fp_script(&s, 0), canvas_fp_script(&s, 0));
    }

    #[test]
    fn canvas_script_calls_required_apis() {
        let s = svc("fp.party", true);
        let mut host = CollectingHost::default();
        run(&canvas_fp_script(&s, 1), &mut host).unwrap();
        let names: Vec<&str> = host.calls.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"canvas.create"));
        assert!(names.iter().filter(|n| **n == "canvas.fillStyle").count() >= 2);
        assert!(names.contains(&"canvas.toDataURL"));
        assert!(!names.contains(&"canvas.save"));
        // The drawn text exceeds 10 distinct characters.
        let text_arg = host
            .calls
            .iter()
            .find(|(n, _)| n == "canvas.fillText")
            .and_then(|(_, args)| args[0].as_str().map(str::to_string))
            .unwrap();
        assert!(redlight_text::tokenize::distinct_chars(&text_arg) > 10);
    }

    #[test]
    fn font_script_measures_enough() {
        let s = svc("online-metrix.net", true);
        let mut host = CollectingHost::default();
        // measureText must return an int for the accumulator.
        host.responses
            .push(("canvas.measureText".into(), redlight_script::Value::Int(7)));
        run(&font_fp_script(&s), &mut host).unwrap();
        let measures = host
            .calls
            .iter()
            .filter(|(n, _)| n == "canvas.measureText")
            .count();
        assert!(measures >= 50, "{measures}");
        let fonts = host
            .calls
            .iter()
            .filter(|(n, _)| n == "canvas.setFont")
            .count();
        assert!(fonts >= 50);
    }

    #[test]
    fn decoy_uses_save_restore() {
        let mut host = CollectingHost::default();
        host.responses.push((
            "canvas.toDataURL".into(),
            redlight_script::Value::Str("data:".into()),
        ));
        run(&decoy_canvas_script("site.com", true), &mut host).unwrap();
        let names: Vec<&str> = host.calls.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"canvas.save"));
        assert!(names.contains(&"canvas.restore"));
    }

    #[test]
    fn tag_scheme_follows_https_flag() {
        let https = svc("ads.net", true);
        let http = svc("ads.net", false);
        assert!(tag_script(&https, 0).contains("https://ads.net/px"));
        assert!(tag_script(&http, 0).contains("'http://ads.net/px"));
    }

    #[test]
    fn rtb_exchanges_open_frames_on_gated_variants() {
        let mut s = svc("exchange.com", true);
        assert!(!tag_script(&s, 0).contains("createFrame"));
        s.rtb_partners.push(ServiceId(9));
        assert!(tag_script(&s, 0).contains("createFrame"));
        assert!(tag_script(&s, 3).contains("createFrame"));
        assert!(!tag_script(&s, 1).contains("createFrame"));
        assert!(!tag_script(&s, 2).contains("createFrame"));
    }

    #[test]
    fn analytics_beacon_carries_partial_id_only() {
        // The first-party cid cookie must not appear whole in the beacon
        // URL, or the sync detector would count analytics as syncing.
        let s = svc("ga.example", true);
        let src = analytics_script(&s, 1);
        assert!(src.contains("substr(cid, 3, len(cid))"));
    }
}
