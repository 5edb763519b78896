//! Third-party services: the cast of trackers, ad networks, CDNs and
//! widgets, with behavior calibrated from the paper's published aggregates.
//!
//! Each service declares *where* it is embedded (per-corpus, per-popularity-
//! tier adoption probabilities), *what it does* (cookies and their encoded
//! payloads, cookie syncing, canvas/font/WebRTC fingerprinting, mining,
//! malware), *how lists see it* (EasyList coverage — domain-wide vs
//! path-only, which is how a domain can be "known ATS" while its
//! fingerprinting script URLs stay unindexed, §5.1.3 — and Disconnect
//! membership) and *how it is attributable* (X.509 subject organization).

use redlight_net::geoip::Country;

use crate::org::OrgId;

/// Index into the service table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub u32);

/// What the service sells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceCategory {
    /// Advertising network / exchange.
    AdNetwork,
    /// Audience analytics.
    Analytics,
    /// Content delivery / static hosting.
    Cdn,
    /// Social-network widgets.
    Social,
    /// Data broker / marketplace.
    DataBroker,
    /// Browser cryptomining.
    Cryptominer,
    /// Anti-fraud / security widgets (e.g. the adsco.re analog).
    Security,
    /// Content widgets (sharing buttons, players, live-cam embeds).
    Widget,
}

/// HTTP-cookie behavior of a service's pixel endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CookieBehavior {
    /// Cookies set per visit (distinct names).
    pub cookies_per_visit: u8,
    /// Length (chars) of the opaque identifier part.
    pub id_len: u8,
    /// Fraction of this service's cookies that embed the client IP
    /// (base64-encoded payload), as ExoClick's do (§5.1.1).
    pub embed_ip_ratio: f64,
    /// Stores approximate geolocation (lat/lon) in a cookie.
    pub embed_geo: bool,
    /// Geo cookie additionally names the access network provider.
    pub geo_includes_isp: bool,
    /// Fraction of deployments that receive persistent ID cookies; the rest
    /// get session cookies only (filtered out by the §5.1.1 ID-cookie
    /// heuristic). This is how a service can be *present* on 31 % of sites
    /// while *delivering ID cookies* on 21 % (ExoSrv).
    pub id_ratio: f64,
    /// Sets a >1,000-character cookie (JuicyAds/TrafficStars style).
    pub long_value: bool,
}

impl CookieBehavior {
    /// A plain persistent uid cookie on every deployment.
    pub fn uid(id_len: u8) -> Self {
        CookieBehavior {
            cookies_per_visit: 1,
            id_len,
            embed_ip_ratio: 0.0,
            embed_geo: false,
            geo_includes_isp: false,
            id_ratio: 1.0,
            long_value: false,
        }
    }
}

/// Fingerprinting behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FpBehavior {
    /// Serves canvas-fingerprinting scripts that satisfy the Englehardt
    /// criteria.
    pub canvas: bool,
    /// Fraction of this service's deployments that actually carry the canvas
    /// script (a CDN can be on 950 sites yet fingerprint on 31).
    pub canvas_site_fraction: f64,
    /// Scripts per canvas deployment: `(min, max)` inclusive. Distinct
    /// variants per site explain the paper's 41 scripts on 26 sites.
    pub canvas_scripts: (u8, u8),
    /// Size of the script-variant pool; `0` = a unique variant per site.
    /// A pool of 1 means every site gets the identical script.
    pub canvas_pool: u8,
    /// Fraction of canvas variants served from the `/fpx/` path family that
    /// the synthetic EasyList indexes (the 9 % of scripts that ARE indexed,
    /// §5.1.3 finds 91 % unindexed).
    pub indexed_frac: f64,
    /// Serves the (single) font-fingerprinting script (≥50× `measureText`).
    pub font: bool,
    /// Uses WebRTC APIs.
    pub webrtc: bool,
    /// Serves canvas-using scripts that do NOT meet the criteria (UI decoys:
    /// small canvases, `save`/`restore` usage) — false-positive pressure for
    /// the detector.
    pub decoy_canvas: bool,
}

impl FpBehavior {
    /// Canvas fingerprinting on every deployment, one variant per site.
    pub fn canvas_everywhere(scripts: (u8, u8)) -> Self {
        FpBehavior {
            canvas: true,
            canvas_site_fraction: 1.0,
            canvas_scripts: scripts,
            canvas_pool: 0,
            indexed_frac: 0.0,
            font: false,
            webrtc: false,
            decoy_canvas: false,
        }
    }
}

/// How the synthetic EasyList/EasyPrivacy cover the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListCoverage {
    /// Not indexed at all.
    None,
    /// `||domain^` rule: every URL on the domain matches.
    DomainWide,
    /// Only ad-serving paths are indexed (`||domain/ads/`): the domain is
    /// ATS under relaxed FQDN matching, but its `/fp/…` script URLs are not.
    PathOnly,
}

/// Per-corpus, per-tier adoption probabilities, ordered
/// `[Top1k, To10k, To100k, Beyond100k]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adoption {
    /// Porn.
    pub porn: [f64; 4],
    /// Regular.
    pub regular: [f64; 4],
}

impl Adoption {
    /// Uniform adoption across tiers.
    pub fn flat(porn: f64, regular: f64) -> Self {
        Adoption {
            porn: [porn; 4],
            regular: [regular; 4],
        }
    }

    /// Not deployed anywhere by probability (long-tail services are placed
    /// explicitly instead).
    pub fn none() -> Self {
        Self::flat(0.0, 0.0)
    }
}

/// A third-party service.
#[derive(Debug, Clone, PartialEq)]
pub struct ThirdPartyService {
    /// Id.
    pub id: ServiceId,
    /// Org.
    pub org: OrgId,
    /// Human label ("ExoClick").
    pub label: String,
    /// Primary FQDN the service serves from.
    pub fqdn: String,
    /// Additional FQDNs (e.g. `doublepimpssl.com`).
    pub extra_fqdns: Vec<String>,
    /// Category.
    pub category: ServiceCategory,
    /// Whether the service supports HTTPS.
    pub https: bool,
    /// Adoption.
    pub adoption: Adoption,
    /// Countries the service serves; `None` = worldwide.
    pub countries: Option<Vec<Country>>,
    /// Cookies.
    pub cookies: Option<CookieBehavior>,
    /// Cookie-sync partners (service ids), filled during registry wiring.
    pub sync_to: Vec<ServiceId>,
    /// Percentage of placements on which a repeat-sighting fires the sync
    /// redirect. High-reach networks match selectively (partners pay per
    /// matched user); small trackers sync everywhere they can.
    pub sync_gate_pct: u8,
    /// Real-time-bidding demand partners reached through iframe chains.
    pub rtb_partners: Vec<ServiceId>,
    /// Fp.
    pub fp: FpBehavior,
    /// Runs a cryptominer on the page.
    pub miner: bool,
    /// Flagged by the threat-intel ensemble.
    pub malicious: bool,
    /// List coverage.
    pub list_coverage: ListCoverage,
    /// Present in the Disconnect entity list.
    pub in_disconnect: bool,
    /// X.509 subject organization, when the cert is attributable.
    pub cert_org: Option<String>,
}

impl ThirdPartyService {
    /// All FQDNs the service serves from.
    pub fn all_fqdns(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.fqdn.as_str()).chain(self.extra_fqdns.iter().map(String::as_str))
    }

    /// `true` when the service operates in `country`.
    pub fn serves(&self, country: Country) -> bool {
        match &self.countries {
            None => true,
            Some(list) => list.contains(&country),
        }
    }
}

/// A registry of services with id-based lookup.
#[derive(Debug, Clone, Default)]
pub struct ServiceRegistry {
    services: Vec<ThirdPartyService>,
}

impl ServiceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a service (its `id` field is overwritten with the slot index).
    pub fn add(&mut self, mut service: ThirdPartyService) -> ServiceId {
        let id = ServiceId(self.services.len() as u32);
        service.id = id;
        self.services.push(service);
        id
    }

    /// Borrows a service.
    pub fn get(&self, id: ServiceId) -> &ThirdPartyService {
        &self.services[id.0 as usize]
    }

    /// Mutable borrow (used when wiring sync/RTB partners).
    pub fn get_mut(&mut self, id: ServiceId) -> &mut ThirdPartyService {
        &mut self.services[id.0 as usize]
    }

    /// Finds a service by its primary FQDN.
    pub fn by_fqdn(&self, fqdn: &str) -> Option<&ThirdPartyService> {
        self.services
            .iter()
            .find(|s| s.all_fqdns().any(|f| f == fqdn))
    }

    /// All services.
    pub fn iter(&self) -> impl Iterator<Item = &ThirdPartyService> {
        self.services.iter()
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(label: &str, fqdn: &str) -> ThirdPartyService {
        ThirdPartyService {
            id: ServiceId(0),
            org: OrgId(0),
            label: label.into(),
            fqdn: fqdn.into(),
            extra_fqdns: vec![],
            category: ServiceCategory::AdNetwork,
            https: true,
            adoption: Adoption::flat(0.1, 0.0),
            countries: None,
            cookies: Some(CookieBehavior::uid(16)),
            sync_to: vec![],
            sync_gate_pct: 100,
            rtb_partners: vec![],
            fp: FpBehavior::default(),
            miner: false,
            malicious: false,
            list_coverage: ListCoverage::DomainWide,
            in_disconnect: false,
            cert_org: None,
        }
    }

    #[test]
    fn registry_assigns_ids_and_looks_up() {
        let mut reg = ServiceRegistry::new();
        let mut exo = dummy("ExoClick", "exoclick.com");
        exo.extra_fqdns.push("exosrv.com".into());
        let a = reg.add(exo);
        let b = reg.add(dummy("JuicyAds", "juicyads.com"));
        assert_eq!(a, ServiceId(0));
        assert_eq!(b, ServiceId(1));
        assert_eq!(reg.by_fqdn("exosrv.com").unwrap().label, "ExoClick");
        assert!(reg.by_fqdn("missing.com").is_none());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn country_gating() {
        let mut s = dummy("RuAds", "ruads.ru");
        assert!(s.serves(Country::Spain));
        s.countries = Some(vec![Country::Russia]);
        assert!(s.serves(Country::Russia));
        assert!(!s.serves(Country::Spain));
    }

    #[test]
    fn adoption_helpers() {
        let a = Adoption::flat(0.4, 0.01);
        assert_eq!(a.porn, [0.4; 4]);
        assert_eq!(Adoption::none().regular, [0.0; 4]);
    }
}
