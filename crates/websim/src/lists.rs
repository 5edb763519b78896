//! Synthetic EasyList / EasyPrivacy / Disconnect generation.
//!
//! The filter *engine* (`redlight-blocklist`) is faithful; the list *content*
//! is generated from the catalog with the paper's coverage gaps baked in:
//!
//! * `DomainWide` services get `||fqdn^` rules (all their URLs match);
//! * `PathOnly` services get rules for their ad paths and the `/fpx/` script
//!   family only — so the domain is ATS under relaxed FQDN matching while
//!   most `/fp/…` fingerprinting scripts stay unindexed (91 %, §5.1.3);
//! * the Disconnect entity list covers mainstream organizations and misses
//!   the adult-specialized ecosystem (§4.2(3): 142 vs 4,477 attributions).

use redlight_blocklist::EntityList;

use crate::catalog::Catalog;
use crate::service::{ListCoverage, ServiceCategory};

/// Builds the EasyList-style text (advertising rules).
///
/// The two `*…*` wildcard rules mirror real EasyList entries whose literal
/// runs touch a wildcard: they have no *safe* token, so they land in the
/// matcher's always-scan list and are searched in every URL the generic
/// tier sees. Neither can match simulated traffic (no generated URL
/// contains `interstitial` or `vast`), so every verdict is unchanged.
pub fn easylist(catalog: &Catalog) -> String {
    let mut out = String::from(
        "[Adblock Plus 2.0]\n\
         ! Title: Synthetic EasyList (redlight)\n\
         ! Calibrated coverage — see DESIGN.md\n\
         /adserver/*$script\n\
         /popunder.\n\
         ||example-ads.invalid^\n\
         *interstitial*\n\
         *analytics*vast*\n",
    );
    for svc in catalog.services.iter() {
        if svc.category == ServiceCategory::Analytics {
            continue; // analytics rules live in EasyPrivacy
        }
        match svc.list_coverage {
            ListCoverage::None => {}
            ListCoverage::DomainWide => {
                for fqdn in svc.all_fqdns() {
                    out.push_str(&format!("||{fqdn}^\n"));
                }
            }
            ListCoverage::PathOnly => {
                for fqdn in svc.all_fqdns() {
                    out.push_str(&format!("||{fqdn}/ads/\n"));
                    out.push_str(&format!("||{fqdn}/banner/\n"));
                    if svc.fp.indexed_frac > 0.0 {
                        out.push_str(&format!("||{fqdn}/fpx/\n"));
                    }
                }
            }
        }
    }
    // Cosmetic rules for realism: the parser must skip them.
    out.push_str("example.com##.ad-container\n~allowed.example##.banner\n");
    out
}

/// Builds the EasyPrivacy-style text (tracking/analytics rules).
pub fn easyprivacy(catalog: &Catalog) -> String {
    let mut out = String::from(
        "! Title: Synthetic EasyPrivacy (redlight)\n\
         /beacon.js\n\
         /telemetry/*$third-party\n",
    );
    for svc in catalog.services.iter() {
        if svc.category != ServiceCategory::Analytics {
            continue;
        }
        match svc.list_coverage {
            ListCoverage::None => {}
            ListCoverage::DomainWide => {
                for fqdn in svc.all_fqdns() {
                    out.push_str(&format!("||{fqdn}^$third-party\n"));
                }
            }
            ListCoverage::PathOnly => {
                for fqdn in svc.all_fqdns() {
                    out.push_str(&format!("||{fqdn}/collect$third-party\n"));
                    if svc.fp.indexed_frac > 0.0 {
                        out.push_str(&format!("||{fqdn}/fpx/\n"));
                    }
                }
            }
        }
    }
    out
}

/// Builds the Disconnect-style entity list (mainstream orgs only).
pub fn disconnect(catalog: &Catalog) -> EntityList {
    let mut list = EntityList::new();
    for org in catalog.orgs.iter() {
        let fqdns: Vec<String> = catalog
            .services
            .iter()
            .filter(|s| s.org == org.id && s.in_disconnect)
            .flat_map(|s| s.all_fqdns().map(str::to_string).collect::<Vec<_>>())
            .collect();
        if !fqdns.is_empty() {
            let refs: Vec<&str> = fqdns.iter().map(String::as_str).collect();
            list.add(&org.name, &refs);
        }
    }
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::config::WorldConfig;
    use redlight_blocklist::{FilterSet, RequestContext};
    use redlight_net::http::ResourceKind;

    fn filterset() -> (Catalog, FilterSet) {
        let cat = catalog::build(&WorldConfig::tiny(3));
        let mut fs = FilterSet::new();
        fs.add_list(&easylist(&cat));
        fs.add_list(&easyprivacy(&cat));
        (cat, fs)
    }

    use crate::catalog::Catalog;

    #[test]
    fn domainwide_services_match_everywhere() {
        let (_, fs) = filterset();
        let ctx = RequestContext::new("porn.site", "exoclick.com", ResourceKind::Script);
        assert!(fs
            .matches("https://exoclick.com/tag/v1.js", &ctx)
            .is_blocked());
        assert!(fs.matches_fqdn_relaxed("exoclick.com"));
    }

    #[test]
    fn pathonly_spares_fp_scripts_but_flags_domain() {
        let (_, fs) = filterset();
        let ctx = RequestContext::new("porn.site", "adnium.com", ResourceKind::Script);
        // The /fp/ family is NOT indexed…
        assert!(!fs.matches("https://adnium.com/fp/v3.js", &ctx).is_blocked());
        // …the ad path IS…
        assert!(fs.matches("https://adnium.com/ads/b.js", &ctx).is_blocked());
        // …and relaxed FQDN matching flags the domain as ATS.
        assert!(fs.matches_fqdn_relaxed("adnium.com"));
    }

    #[test]
    fn indexed_fpx_family_is_matched() {
        let (_, fs) = filterset();
        let ctx = RequestContext::new("porn.site", "ero-advertising.com", ResourceKind::Script);
        assert!(fs
            .matches("https://ero-advertising.com/fpx/v1.js", &ctx)
            .is_blocked());
        assert!(!fs
            .matches("https://ero-advertising.com/fp/v1.js", &ctx)
            .is_blocked());
    }

    #[test]
    fn unlisted_services_are_clean() {
        let (_, fs) = filterset();
        let ctx = RequestContext::new("porn.site", "xcvgdf.party", ResourceKind::Script);
        assert!(!fs
            .matches("http://xcvgdf.party/fp/v7.js", &ctx)
            .is_blocked());
        assert!(!fs.matches_fqdn_relaxed("xcvgdf.party"));
    }

    #[test]
    fn analytics_rules_land_in_easyprivacy() {
        let cat = catalog::build(&WorldConfig::tiny(3));
        let el = easylist(&cat);
        let ep = easyprivacy(&cat);
        assert!(!el.contains("||google-analytics.com"));
        assert!(ep.contains("||google-analytics.com^$third-party"));
        assert!(el.contains("||exoclick.com^"));
    }

    #[test]
    fn disconnect_is_mainstream_only() {
        let cat = catalog::build(&WorldConfig::tiny(3));
        let dc = disconnect(&cat);
        assert_eq!(dc.owner_of("stats.g.doubleclick.net"), Some("Alphabet"));
        assert_eq!(dc.owner_of("facebook.net"), Some("Facebook"));
        // The adult ecosystem is missing — the §4.2(3) gap.
        assert_eq!(dc.owner_of("exoclick.com"), None);
        assert_eq!(dc.owner_of("juicyads.com"), None);
    }
}
