//! Landing-page HTML rendering.
//!
//! Pages are rendered per `(site, country, gate_passed)` because the served
//! content is geo-dependent: country-gated ad tags are injected server-side
//! only for the countries they serve (Table 7), consent banners may be
//! geo-fenced to the EU (Table 8), and age-gated sites serve their full
//! landing page only after the gate is passed (§7.2).

use std::fmt::Write as _;

use redlight_net::geoip::Country;
use redlight_text::lang::pack;

use crate::org::PUBLISHERS;
use crate::policygen;
use crate::service::{ServiceCategory, ServiceRegistry};
use crate::sitegen::{AgeGateKind, BannerType, Site};

/// Stable tiny hash for content decisions (no RNG at serve time).
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut x = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn scheme(https: bool) -> &'static str {
    if https {
        "https"
    } else {
        "http"
    }
}

/// Context needed to render a site's pages.
pub struct RenderCtx<'a> {
    /// Services.
    pub services: &'a ServiceRegistry,
    /// Sites.
    pub sites: &'a [Site],
    /// Resolved owner company name, when the site belongs to a cluster.
    pub(crate) owner_name: Option<&'a str>,
}

/// Renders the landing page of `site` for `country`.
///
/// `gate_passed` selects the post-age-gate variant (what the Selenium
/// crawler sees after clicking through). Everything is written straight
/// into one buffer.
pub(crate) fn render_landing(
    ctx: &RenderCtx<'_>,
    site: &Site,
    country: Country,
    gate_passed: bool,
) -> String {
    let mut out = String::with_capacity(4096);
    // Writing into a `String` cannot fail.
    let _ = write_landing(&mut out, ctx, site, country, gate_passed);
    out
}

fn write_landing(
    out: &mut String,
    ctx: &RenderCtx<'_>,
    site: &Site,
    country: Country,
    gate_passed: bool,
) -> std::fmt::Result {
    let lp = pack(site.language);
    let h = mix(site.id.0 as u64, 0xC0FFEE);
    let domain = &site.domain;
    out.push_str("<!DOCTYPE html><html><head>");

    // --- <head>: title + company template signature (§4.1 clustering). ---
    if let Some(owner) = ctx.owner_name {
        let idx = PUBLISHERS.iter().position(|p| p.name == owner).unwrap_or(0);
        write!(
            out,
            "<title>{domain} — {owner} network</title>\
             <meta name=\"generator\" content=\"NetworkSuite-{idx} by {owner}\">\
             <meta name=\"theme\" content=\"corporate-template-{idx}\">\
             <meta name=\"publisher\" content=\"{owner}\">",
        )?;
    } else {
        write!(
            out,
            "<title>{domain} — free videos {h4}</title>\
             <meta name=\"generator\" content=\"indie-cms-{h4}\">",
            h4 = h % 9_973,
        )?;
    }
    if site.rta_label {
        out.push_str("<meta name=\"RATING\" content=\"RTA-5042-1996-1400-1577-RTA\">");
    }
    out.push_str("<link rel=\"stylesheet\" href=\"/static/main.css\">");

    // --- Third-party tags (server-side geo targeting). ---
    let page_scheme = scheme(site.https);
    for dep in &site.deployments {
        let svc = ctx.services.get(dep.service);
        if !svc.serves(country) {
            continue;
        }
        let s = scheme(svc.https);
        let fqdn = &svc.fqdn;
        if svc.miner {
            write!(
                out,
                "<script src=\"{s}://{fqdn}/miner/loader.js\"></script>"
            )?;
            continue;
        }
        // Ordinary tag / analytics script, its path by service category.
        let variant = dep.variant % 8;
        match svc.category {
            ServiceCategory::Analytics => write!(
                out,
                "<script src=\"{s}://{fqdn}/js/analytics-v{variant}.js\"></script>"
            )?,
            ServiceCategory::Cryptominer => write!(
                out,
                "<script src=\"{s}://{fqdn}/miner/loader.js\"></script>"
            )?,
            _ => write!(
                out,
                "<script src=\"{s}://{fqdn}/tag/v{variant}.js\"></script>"
            )?,
        }
        // Canvas fingerprinting variants this deployment carries.
        if dep.fp_scripts > 0 && svc.fp.canvas {
            for k in 0..dep.fp_scripts {
                let raw = dep.variant.wrapping_add(k as u32);
                let eff = if svc.fp.canvas_pool > 0 {
                    raw % svc.fp.canvas_pool as u32
                } else {
                    raw
                };
                // Deterministic split between the unindexed /fp/ and the
                // EasyList-indexed /fpx/ path families.
                let indexed = (mix(eff as u64, dep.service.0 as u64) % 1000) as f64 / 1000.0
                    < svc.fp.indexed_frac;
                let fam = if indexed { "fpx" } else { "fp" };
                write!(
                    out,
                    "<script src=\"{s}://{fqdn}/{fam}/v{eff}.js\"></script>"
                )?;
            }
        }
        if svc.fp.font {
            write!(out, "<script src=\"{s}://{fqdn}/font/probe.js\"></script>")?;
        }
        if svc.fp.webrtc {
            let v = dep.variant % 2; // ~2 variants per WebRTC service
            write!(out, "<script src=\"{s}://{fqdn}/rtc/v{v}.js\"></script>")?;
        }
    }

    // Site-specific third-party cloud hosts.
    for (label, provider) in &site.cloud_hosts {
        write!(
            out,
            "<script src=\"https://{label}.{provider}/lib.js\"></script>"
        )?;
    }

    // First-party bookkeeping script (inline); minimalist sites run no
    // cookie bookkeeping at all (§5.1.1: 92 % of sites set cookies).
    if !site.minimal {
        let np = (h % 8) as u8 + 3;
        let ns = (h % 4) as u8 + 2;
        out.push_str("<script>");
        crate::scriptgen::first_party_script(out, domain, np, ns);
        out.push_str("</script>");
    }
    if site.first_party_canvas {
        write!(
            out,
            "<script src=\"{page_scheme}://{domain}/own/fp.js\"></script>"
        )?;
    }
    if site.decoy_canvas {
        out.push_str("<script>");
        out.push_str(&crate::scriptgen::decoy_canvas_script(domain, site.https));
        out.push_str("</script>");
    }
    out.push_str("</head><body>");

    // --- Age gate (before the main content). ---
    let gate = site.age_gate.in_country(country);
    if let (Some(kind), false) = (gate, gate_passed) {
        match kind {
            AgeGateKind::SimpleButton => {
                write!(
                    out,
                    "<div id=\"age-gate\" style=\"position:fixed; z-index:9999\">\
                     <p>{warning} 18+</p>\
                     <a href=\"/?verified=1\"><button>{enter}</button></a>\
                     <a href=\"https://family-friendly.example/\"><button>Leave</button></a>\
                     </div>",
                    warning = lp.age_warning.first().copied().unwrap_or("adults only"),
                    enter = lp.affirmative[1], // "enter"
                )?;
            }
            AgeGateKind::SocialLogin => {
                out.push_str(
                    "<div id=\"age-gate\" style=\"position:fixed; z-index:9999\">\
                     <p>Age verification is required by federal law. Sign in with your \
                     social network account linked to your passport.</p>\
                     <form action=\"/social-login\" method=\"post\">\
                     <input type=\"text\" name=\"vk-account\">\
                     <input type=\"submit\" value=\"Verify identity\"></form></div>",
                );
            }
        }
    }

    // --- Consent banner (Table 8), possibly EU-geofenced. ---
    if let Some(banner) = site.banner {
        let shown = !banner.eu_only || country.gdpr_applies();
        if shown {
            out.push_str("<div id=\"cookie-banner\" class=\"cookie-consent\" style=\"position:fixed; bottom:0\">");
            write!(
                out,
                "<span>{}</span>",
                lp.cookie.last().copied().unwrap_or("we use cookies")
            )?;
            match banner.kind {
                BannerType::NoOption => {}
                BannerType::Confirmation => {
                    write!(
                        out,
                        "<button class=\"consent-ok\">{}</button>",
                        lp.affirmative[4] // "accept"
                    )?;
                }
                BannerType::Binary => {
                    write!(
                        out,
                        "<button class=\"consent-ok\">{}</button>\
                         <button class=\"consent-no\">No</button>",
                        lp.affirmative[4]
                    )?;
                }
                BannerType::Others => {
                    out.push_str(
                        "<input type=\"range\" class=\"consent-slider\" min=\"0\" max=\"3\">\
                         <input type=\"checkbox\" class=\"consent-purpose\" value=\"ads\">\
                         <input type=\"checkbox\" class=\"consent-purpose\" value=\"analytics\">\
                         <button class=\"consent-save\">Save</button>",
                    );
                }
            }
            out.push_str("</div>");
        }
    }

    // --- Main content. ---
    write!(
        out,
        "<h1>{domain}</h1><p>Updated daily with {} new clips. Popular categories and \
         channels are listed below. All performers verified.</p>",
        10 + h % 90
    )?;
    // Some body text naturally contains gate-like vocabulary (the §7.2
    // false-positive hazard the parent/grandparent check must survive).
    if h.is_multiple_of(5) {
        out.push_str(
            "<p>Members can enter the weekly raffle and agree to the community \
             guidelines before uploading. Yes, uploads are moderated.</p>",
        );
    }

    // Monetization signals (§4.1).
    if site.login {
        write!(
            out,
            "<nav><a href=\"/login\">{}</a> <a href=\"/signup\">Sign Up</a></nav>",
            lp.account.first().copied().unwrap_or("log in"),
        )?;
    }
    if site.premium {
        write!(
            out,
            "<a class=\"upsell\" href=\"/premium\">{}</a>",
            lp.premium.first().copied().unwrap_or("premium"),
        )?;
    }

    // First-party CDN-sharded thumbnails.
    if let Some(label) = &site.cdn_label {
        for i in 0..2 {
            write!(out, "<img src=\"{page_scheme}://{label}")?;
            if site.country_cdn {
                out.push('-');
                out.extend(country.code().chars().map(|c| c.to_ascii_lowercase()));
            }
            write!(out, ".{domain}/thumb{i}.jpg\">")?;
        }
    } else {
        write!(
            out,
            "<img src=\"{page_scheme}://{domain}/static/thumb0.jpg\">"
        )?;
    }

    // Federation cross-embeds (§4.1): assets republished from peer sites.
    for peer_id in &site.cross_embeds {
        let peer = &ctx.sites[peer_id.0 as usize];
        write!(out, "<img src=\"{}://", scheme(peer.https))?;
        if let Some(l) = &peer.cdn_label {
            write!(out, "{l}.")?;
        }
        write!(out, "{}/embed/clip{}.jpg\">", peer.domain, peer_id.0 % 7)?;
    }

    // Privacy-policy link (§7.3) — only on the full landing page.
    if let Some(policy) = &site.policy {
        if gate.is_none() || gate_passed {
            write!(
                out,
                "<footer><a href=\"{}\">{}</a></footer>",
                policy.path,
                policygen::policy_link_text(policy.language)
            )?;
        }
    }

    out.push_str("</body></html>");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::config::WorldConfig;
    use crate::sitegen;
    use redlight_html::{parser, query};
    use redlight_text::lang::Language;

    fn fixture() -> (crate::catalog::Catalog, Vec<Site>) {
        let config = WorldConfig::tiny(21);
        let cat = catalog::build(&config);
        let pop = sitegen::generate(&config, &cat);
        (cat, pop.sites)
    }

    #[test]
    fn pages_parse_and_contain_tags() {
        let (cat, sites) = fixture();
        let ctx = RenderCtx {
            services: &cat.services,
            sites: &sites,
            owner_name: None,
        };
        let site = sites
            .iter()
            .find(|s| s.is_porn() && !s.deployments.is_empty())
            .expect("some porn site with deployments");
        let html = render_landing(&ctx, site, Country::Spain, false);
        let doc = parser::parse(&html);
        let scripts = query::by_tag(&doc, "script");
        assert!(!scripts.is_empty());
        assert!(html.contains(&site.domain));
    }

    #[test]
    fn country_gated_services_disappear() {
        let (cat, mut sites) = fixture();
        // Find a Russia-only service and force it onto site 0.
        let ru_svc = cat
            .services
            .iter()
            .find(|s| s.countries.as_deref() == Some(&[Country::Russia][..]))
            .expect("country ATS exists");
        sites[0].deployments.push(crate::sitegen::Deployment {
            service: ru_svc.id,
            variant: 1,
            fp_scripts: 0,
        });
        let ctx = RenderCtx {
            services: &cat.services,
            sites: &sites,
            owner_name: None,
        };
        let ru = render_landing(&ctx, &sites[0], Country::Russia, false);
        let es = render_landing(&ctx, &sites[0], Country::Spain, false);
        assert!(ru.contains(&ru_svc.fqdn));
        assert!(!es.contains(&ru_svc.fqdn));
    }

    #[test]
    fn eu_only_banner_is_geofenced() {
        let (cat, mut sites) = fixture();
        let idx = sites.iter().position(|s| s.is_porn()).unwrap();
        sites[idx].banner = Some(crate::sitegen::BannerSpec {
            kind: BannerType::Binary,
            eu_only: true,
        });
        let ctx = RenderCtx {
            services: &cat.services,
            sites: &sites,
            owner_name: None,
        };
        let es = render_landing(&ctx, &sites[idx], Country::Spain, false);
        let us = render_landing(&ctx, &sites[idx], Country::Usa, false);
        assert!(es.contains("cookie-banner"));
        assert!(!us.contains("cookie-banner"));
    }

    #[test]
    fn age_gate_hides_policy_until_passed() {
        let (cat, mut sites) = fixture();
        let idx = sites.iter().position(|s| s.is_porn()).unwrap();
        sites[idx].age_gate.default = Some(AgeGateKind::SimpleButton);
        sites[idx].policy = Some(crate::policygen::PolicySpec {
            template: crate::policygen::PolicyTemplate::Unique(1),
            language: Language::English,
            mentions_gdpr: false,
            target_letters: 1_500,
            disclosures: Default::default(),
            path: "/privacy-policy".into(),
            broken: false,
        });
        let ctx = RenderCtx {
            services: &cat.services,
            sites: &sites,
            owner_name: None,
        };
        let gated = render_landing(&ctx, &sites[idx], Country::Spain, false);
        let passed = render_landing(&ctx, &sites[idx], Country::Spain, true);
        assert!(gated.contains("age-gate"));
        assert!(!gated.contains("/privacy-policy"));
        assert!(!passed.contains("age-gate"));
        assert!(passed.contains("/privacy-policy"));
    }

    #[test]
    fn owned_sites_share_head_template() {
        let (cat, sites) = fixture();
        let ctx = RenderCtx {
            services: &cat.services,
            sites: &sites,
            owner_name: Some("MindGeek"),
        };
        let a = render_landing(&ctx, &sites[0], Country::Spain, false);
        assert!(a.contains("NetworkSuite-"));
        assert!(a.contains("MindGeek"));
    }

    #[test]
    fn rta_label_appears_when_set() {
        let (cat, mut sites) = fixture();
        let idx = sites.iter().position(|s| s.is_porn()).unwrap();
        sites[idx].rta_label = true;
        let ctx = RenderCtx {
            services: &cat.services,
            sites: &sites,
            owner_name: None,
        };
        let html = render_landing(&ctx, &sites[idx], Country::Uk, false);
        assert!(html.contains("RTA-5042-1996-1400-1577-RTA"));
    }
}
