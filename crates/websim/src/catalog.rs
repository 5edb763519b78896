//! The service catalog: named organizations/services calibrated from the
//! paper's tables, plus generated long-tail populations.
//!
//! Calibration sources:
//! * Fig. 3 — organization prevalence in porn vs regular websites;
//! * Table 4 — the top cookie-setting third parties and their IP-embedding
//!   ratios (ExoSrv 85 %, ExoClick 29 %);
//! * Table 5 — the fingerprinting services and their canvas/WebRTC script
//!   counts;
//! * §4.2.2 — long-tail / unpopular-site-only services (adultforce,
//!   zingyads, the four Russian ATS, itraffictrade);
//! * §5.1.2 — the HProfits sync triangle;
//! * §5.3 — the three cryptominers;
//! * Table 7 — country-exclusive ATS populations.

use rand::prelude::*;
use redlight_net::geoip::Country;

use crate::config::WorldConfig;
use crate::org::{OrgId, OrgKind, OrgRegistry};
use crate::service::{
    Adoption, CookieBehavior, FpBehavior, ListCoverage, ServiceCategory, ServiceId,
    ServiceRegistry, ThirdPartyService,
};

/// Handles into the built catalog that site generation needs.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Orgs.
    pub orgs: OrgRegistry,
    /// Services.
    pub services: ServiceRegistry,
    /// Long-tail adult trackers (placed explicitly on 1–5 porn sites each).
    pub(crate) longtail_porn: Vec<ServiceId>,
    /// Long-tail canvas-fingerprinting services.
    pub(crate) longtail_fp: Vec<ServiceId>,
    /// Long-tail WebRTC services.
    pub(crate) longtail_webrtc: Vec<ServiceId>,
    /// Long-tail malicious services (beyond the named miners).
    pub(crate) longtail_malicious: Vec<ServiceId>,
    /// Country-exclusive ATS services per country.
    pub(crate) country_ats: Vec<(Country, Vec<ServiceId>)>,
}

/// Number of country-exclusive ATS services generated per country (Table 7,
/// "Unique Country" ATS column).
const COUNTRY_UNIQUE_ATS: &[(Country, usize)] = &[
    (Country::Usa, 25),
    (Country::Uk, 20),
    (Country::Spain, 59),
    (Country::Russia, 27),
    (Country::India, 21),
    (Country::Singapore, 16),
];

struct Builder {
    orgs: OrgRegistry,
    services: ServiceRegistry,
}

impl Builder {
    fn org(&mut self, name: &str, kind: OrgKind, adult: bool) -> OrgId {
        if let Some(existing) = self.orgs.by_name(name) {
            return existing.id;
        }
        self.orgs.register(name, kind, adult)
    }

    #[allow(clippy::too_many_arguments)]
    fn svc(&mut self, org: OrgId, label: &str, fqdn: &str, cat: ServiceCategory) -> SvcBuilder<'_> {
        SvcBuilder {
            builder: self,
            svc: ThirdPartyService {
                id: ServiceId(0),
                org,
                label: label.to_string(),
                fqdn: fqdn.to_string(),
                extra_fqdns: vec![],
                category: cat,
                https: true,
                adoption: Adoption::none(),
                countries: None,
                cookies: None,
                sync_to: vec![],
                sync_gate_pct: 90,
                rtb_partners: vec![],
                fp: FpBehavior::default(),
                miner: false,
                malicious: false,
                list_coverage: ListCoverage::None,
                in_disconnect: false,
                cert_org: None,
            },
        }
    }
}

struct SvcBuilder<'a> {
    builder: &'a mut Builder,
    svc: ThirdPartyService,
}

impl SvcBuilder<'_> {
    fn extra(mut self, fqdn: &str) -> Self {
        self.svc.extra_fqdns.push(fqdn.to_string());
        self
    }
    fn adoption(mut self, porn: [f64; 4], regular: [f64; 4]) -> Self {
        self.svc.adoption = Adoption { porn, regular };
        self
    }
    fn flat(mut self, porn: f64, regular: f64) -> Self {
        self.svc.adoption = Adoption::flat(porn, regular);
        self
    }
    fn cookies(mut self, c: CookieBehavior) -> Self {
        self.svc.cookies = Some(c);
        self
    }
    fn fp(mut self, fp: FpBehavior) -> Self {
        self.svc.fp = fp;
        self
    }
    fn list(mut self, cov: ListCoverage) -> Self {
        self.svc.list_coverage = cov;
        self
    }
    fn disconnect(mut self) -> Self {
        self.svc.in_disconnect = true;
        self
    }
    fn cert(mut self, org: &str) -> Self {
        self.svc.cert_org = Some(org.to_string());
        self
    }
    fn no_https(mut self) -> Self {
        self.svc.https = false;
        self
    }
    fn miner(mut self) -> Self {
        self.svc.miner = true;
        self.svc.malicious = true;
        self
    }
    fn malicious(mut self) -> Self {
        self.svc.malicious = true;
        self
    }
    fn countries(mut self, cs: &[Country]) -> Self {
        self.svc.countries = Some(cs.to_vec());
        self
    }
    fn build(self) -> ServiceId {
        self.builder.services.add(self.svc)
    }
}

/// IP-embedding uid cookies (ExoClick family).
fn ip_cookie(
    cookies_per_visit: u8,
    id_len: u8,
    embed_ip_ratio: f64,
    id_ratio: f64,
) -> CookieBehavior {
    CookieBehavior {
        cookies_per_visit,
        id_len,
        embed_ip_ratio,
        embed_geo: false,
        geo_includes_isp: false,
        id_ratio,
        long_value: false,
    }
}

/// Geolocation cookies (fling.com / playwithme.com, §5.1.1).
fn geo_cookie(isp: bool) -> CookieBehavior {
    CookieBehavior {
        cookies_per_visit: 2,
        id_len: 16,
        embed_ip_ratio: 0.0,
        embed_geo: true,
        geo_includes_isp: isp,
        id_ratio: 1.0,
        long_value: false,
    }
}

/// >1,000-character cookies (JuicyAds / TrafficStars, §5.1.1).
fn long_cookie(cookies_per_visit: u8) -> CookieBehavior {
    CookieBehavior {
        cookies_per_visit,
        id_len: 24,
        embed_ip_ratio: 0.0,
        embed_geo: false,
        geo_includes_isp: false,
        id_ratio: 1.0,
        long_value: true,
    }
}

/// Builds the full catalog for `config`, deterministic in `config.seed`.
pub(crate) fn build(config: &WorldConfig) -> Catalog {
    let mut b = Builder {
        orgs: OrgRegistry::new(),
        services: ServiceRegistry::new(),
    };
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xCA7A_1065);

    // ---- Alphabet (74 % of porn sites via the union of its services). ----
    let alphabet = b.org("Alphabet", OrgKind::AdNetwork, false);
    let ga = b
        .svc(
            alphabet,
            "Google Analytics",
            "google-analytics.com",
            ServiceCategory::Analytics,
        )
        .flat(0.39, 0.65)
        .list(ListCoverage::DomainWide)
        .disconnect()
        .cert("Alphabet Inc.")
        .build();
    let doubleclick = b
        .svc(
            alphabet,
            "DoubleClick",
            "doubleclick.net",
            ServiceCategory::AdNetwork,
        )
        .adoption([0.35, 0.20, 0.11, 0.08], [0.60; 4])
        .cookies(CookieBehavior {
            cookies_per_visit: 2,
            ..CookieBehavior::uid(22)
        })
        .list(ListCoverage::DomainWide)
        .disconnect()
        .cert("Alphabet Inc.")
        .build();
    let gapis = b
        .svc(
            alphabet,
            "Google APIs",
            "googleapis.com",
            ServiceCategory::Cdn,
        )
        .extra("gstatic.com")
        .flat(0.58, 0.70)
        .cert("Alphabet Inc.")
        .build();

    // ---- ExoClick: the adult ad giant (43 % of porn, 6 regular sites). ----
    let exo_org = b.org("ExoClick", OrgKind::AdNetwork, true);
    // ExoSrv/ExoClick adoption is handled as a correlated bundle during
    // site generation (43 % of porn sites host at least one, §4.2.1) —
    // probabilities here stay at zero.
    let exosrv = b
        .svc(exo_org, "ExoSrv", "exosrv.com", ServiceCategory::AdNetwork)
        .adoption([0.0; 4], [0.0004; 4])
        .cookies(ip_cookie(2, 18, 0.85, 0.68))
        .list(ListCoverage::DomainWide)
        .cert("ExoClick S.L.")
        .build();
    let exoclick = b
        .svc(
            exo_org,
            "ExoClick",
            "exoclick.com",
            ServiceCategory::AdNetwork,
        )
        .adoption([0.0; 4], [0.0004; 4])
        .cookies(ip_cookie(2, 18, 0.29, 0.45))
        .list(ListCoverage::DomainWide)
        .cert("ExoClick S.L.")
        .build();

    // ---- Cloudflare (35 % porn / 30 % regular; operator unconfirmed). ----
    let cloudflare_org = b.org("Cloudflare", OrgKind::Cdn, false);
    let cloudflare = b
        .svc(
            cloudflare_org,
            "Cloudflare CDN",
            "cloudflare.com",
            ServiceCategory::Cdn,
        )
        .extra("cdnjs.cloudflare.com")
        .flat(0.35, 0.30)
        .list(ListCoverage::PathOnly)
        .disconnect()
        .fp(FpBehavior {
            canvas: true,
            canvas_site_fraction: 0.0013, // hosts FP for a couple of customers
            canvas_scripts: (1, 1),
            canvas_pool: 2,
            indexed_frac: 1.0,
            ..FpBehavior::default()
        })
        .build();

    // ---- Oracle: AddThis (17 % of porn) + BlueKai sync hub. ----
    let oracle = b.org("Oracle", OrgKind::DataBroker, false);
    let addthis = b
        .svc(oracle, "AddThis", "addthis.com", ServiceCategory::Widget)
        .flat(0.17, 0.25)
        .cookies(CookieBehavior {
            cookies_per_visit: 2,
            ..CookieBehavior::uid(20)
        })
        .list(ListCoverage::DomainWide)
        .cert("Oracle Corporation")
        .build();
    let bluekai = b
        .svc(
            oracle,
            "BlueKai",
            "bluekai.com",
            ServiceCategory::DataBroker,
        )
        .flat(0.01, 0.08)
        .cookies(CookieBehavior::uid(24))
        .list(ListCoverage::DomainWide)
        .cert("Oracle Corporation")
        .build();

    // ---- Yandex (4 % porn, Table 4). ----
    let yandex_org = b.org("Yandex", OrgKind::Analytics, false);
    let yandex = b
        .svc(
            yandex_org,
            "Yandex Metrica",
            "yandex.ru",
            ServiceCategory::Analytics,
        )
        .extra("mc.yandex.ru")
        .flat(0.04, 0.08)
        .cookies(CookieBehavior {
            cookies_per_visit: 3,
            ..CookieBehavior::uid(20)
        })
        .list(ListCoverage::DomainWide)
        .disconnect()
        .cert("Yandex LLC")
        .build();

    // ---- Adult ad networks. ----
    let juicy_org = b.org("JuicyAds", OrgKind::AdNetwork, true);
    let juicyads = b
        .svc(
            juicy_org,
            "JuicyAds",
            "juicyads.com",
            ServiceCategory::AdNetwork,
        )
        .flat(0.04, 0.0)
        .cookies(long_cookie(2))
        .list(ListCoverage::DomainWide)
        .cert("JuicyAds Inc.")
        .build();

    let ero_org = b.org("EroAdvertising", OrgKind::AdNetwork, true);
    let ero = b
        .svc(
            ero_org,
            "EroAdvertising",
            "ero-advertising.com",
            ServiceCategory::AdNetwork,
        )
        .flat(0.0052, 0.0002)
        .cookies(CookieBehavior::uid(16))
        .list(ListCoverage::PathOnly)
        .fp(FpBehavior {
            indexed_frac: 0.31, // ~10 of its 32 variants live on the indexed path
            ..FpBehavior::canvas_everywhere((1, 1))
        })
        .cert("EroAdvertising BV")
        .build();

    let dpimp_org = b.org("DoublePimp", OrgKind::AdNetwork, true);
    let doublepimp = b
        .svc(
            dpimp_org,
            "DoublePimp",
            "doublepimp.com",
            ServiceCategory::AdNetwork,
        )
        .extra("doublepimpssl.com")
        .adoption([0.12, 0.07, 0.035, 0.02], [0.0001; 4])
        .cookies(CookieBehavior::uid(18))
        .list(ListCoverage::DomainWide)
        .cert("DoublePimp Ltd.")
        .build();

    let tj_org = b.org("TrafficJunky", OrgKind::AdNetwork, true);
    let trafficjunky = b
        .svc(
            tj_org,
            "TrafficJunky",
            "trafficjunky.net",
            ServiceCategory::AdNetwork,
        )
        .adoption([0.50, 0.25, 0.08, 0.02], [0.0; 4])
        .cookies(CookieBehavior::uid(20))
        .list(ListCoverage::DomainWide)
        .cert("MindGeek")
        .build();

    let ts_org = b.org("TrafficStars", OrgKind::AdNetwork, true);
    let tsyndicate = b
        .svc(
            ts_org,
            "TrafficStars",
            "tsyndicate.com",
            ServiceCategory::AdNetwork,
        )
        .adoption([0.12, 0.09, 0.055, 0.04], [0.0; 4])
        .cookies(long_cookie(1))
        .list(ListCoverage::DomainWide)
        .cert("Traffic Stars Ltd")
        .build();

    // ---- The HProfits sync triangle (§5.1.2). ----
    let hprofits_org = b.org("HProfits", OrgKind::AdNetwork, true);
    let hprofits = b
        .svc(
            hprofits_org,
            "HProfits Exchange",
            "hprofits.com",
            ServiceCategory::AdNetwork,
        )
        .flat(0.008, 0.0)
        .cookies(CookieBehavior::uid(18))
        .cert("HProfits Group")
        .build();
    let hd1 = b
        .svc(
            hprofits_org,
            "HProfits hd",
            "hd100546b.com",
            ServiceCategory::AdNetwork,
        )
        .flat(0.01, 0.0)
        .cookies(CookieBehavior::uid(18))
        .cert("HProfits Group")
        .build();
    let bd2 = b
        .svc(
            hprofits_org,
            "HProfits bd",
            "bd202457b.com",
            ServiceCategory::AdNetwork,
        )
        .flat(0.01, 0.0)
        .cookies(CookieBehavior::uid(18))
        .cert("HProfits Group")
        .build();

    // ---- Security / anti-fraud (Table 5). ----
    let adscore_org = b.org("Adscore", OrgKind::Other, true);
    let adscore = b
        .svc(
            adscore_org,
            "Adscore",
            "adsco.re",
            ServiceCategory::Security,
        )
        .flat(0.024, 0.01)
        .fp(FpBehavior {
            webrtc: true,
            ..FpBehavior::default()
        })
        .build();

    let tm_org = b.org("ThreatMetrix", OrgKind::Other, false);
    let online_metrix = b
        .svc(
            tm_org,
            "ThreatMetrix",
            "online-metrix.net",
            ServiceCategory::Security,
        )
        .adoption([0.0; 4], [0.05; 4])
        .fp(FpBehavior {
            font: true,
            webrtc: true,
            ..FpBehavior::default()
        })
        .list(ListCoverage::DomainWide)
        .cert("ThreatMetrix Inc.")
        .build();

    let th_org = b.org("TrafficHunt", OrgKind::AdNetwork, true);
    let traffichunt = b
        .svc(
            th_org,
            "TrafficHunt",
            "traffichunt.com",
            ServiceCategory::AdNetwork,
        )
        .flat(0.0016, 0.001)
        .cookies(CookieBehavior::uid(16))
        .fp(FpBehavior {
            webrtc: true,
            ..FpBehavior::default()
        })
        .list(ListCoverage::DomainWide)
        .build();

    // ---- Amazon: CloudFront CDN + the Alexa widget. ----
    let amazon = b.org("Amazon", OrgKind::Cdn, false);
    let cloudfront = b
        .svc(amazon, "CloudFront", "cloudfront.net", ServiceCategory::Cdn)
        .flat(0.08, 0.25)
        .list(ListCoverage::PathOnly)
        .fp(FpBehavior {
            canvas: true,
            canvas_site_fraction: 0.061, // ~31 of ~510 deployments
            canvas_scripts: (1, 1),
            canvas_pool: 8,
            indexed_frac: 1.0, // its 8 variants are the bulk of indexed scripts
            ..FpBehavior::default()
        })
        .cert("Amazon Inc.")
        .build();
    let alexa_widget = b
        .svc(
            amazon,
            "Alexa Widget",
            "alexa.com",
            ServiceCategory::Analytics,
        )
        .flat(0.05, 0.10)
        .cookies(CookieBehavior::uid(16))
        .list(ListCoverage::DomainWide)
        .disconnect()
        .cert("Amazon Inc.")
        .build();

    // ---- Data brokers. ----
    let towerdata = b.org("TowerData/Acxiom", OrgKind::DataBroker, false);
    let rlcdn = b
        .svc(
            towerdata,
            "RapLeaf",
            "rlcdn.com",
            ServiceCategory::DataBroker,
        )
        .flat(0.0006, 0.30)
        .cookies(CookieBehavior::uid(24))
        .list(ListCoverage::DomainWide)
        .cert("TowerData Inc.")
        .build();

    // ---- Mainstream web (Fig. 3's regular-web side). ----
    let facebook_org = b.org("Facebook", OrgKind::Social, false);
    let facebook = b
        .svc(
            facebook_org,
            "Facebook Connect",
            "facebook.net",
            ServiceCategory::Social,
        )
        .extra("facebook.com")
        .flat(0.02, 0.55)
        .cookies(CookieBehavior::uid(24))
        .list(ListCoverage::DomainWide)
        .disconnect()
        .cert("Facebook, Inc.")
        .build();
    let twitter_org = b.org("Twitter", OrgKind::Social, false);
    let twitter = b
        .svc(
            twitter_org,
            "Twitter Widgets",
            "twitter.com",
            ServiceCategory::Social,
        )
        .flat(0.01, 0.30)
        .cookies(CookieBehavior::uid(20))
        .list(ListCoverage::DomainWide)
        .disconnect()
        .cert("Twitter, Inc.")
        .build();
    let criteo_org = b.org("Criteo", OrgKind::AdNetwork, false);
    let criteo = b
        .svc(
            criteo_org,
            "Criteo",
            "criteo.com",
            ServiceCategory::AdNetwork,
        )
        .flat(0.002, 0.25)
        .cookies(CookieBehavior::uid(22))
        .list(ListCoverage::DomainWide)
        .disconnect()
        .cert("Criteo SA")
        .build();
    let appnexus_org = b.org("AppNexus", OrgKind::AdNetwork, false);
    let adnxs = b
        .svc(
            appnexus_org,
            "AppNexus",
            "adnxs.com",
            ServiceCategory::AdNetwork,
        )
        .flat(0.005, 0.30)
        .cookies(CookieBehavior::uid(22))
        .list(ListCoverage::DomainWide)
        .disconnect()
        .cert("AppNexus Inc.")
        .build();
    let comscore_org = b.org("comScore", OrgKind::Analytics, false);
    let scorecard = b
        .svc(
            comscore_org,
            "ScorecardResearch",
            "scorecardresearch.com",
            ServiceCategory::Analytics,
        )
        .flat(0.004, 0.25)
        .cookies(CookieBehavior::uid(20))
        .list(ListCoverage::DomainWide)
        .cert("comScore, Inc.")
        .build();
    let quantcast_org = b.org("Quantcast", OrgKind::Analytics, false);
    let quantserve = b
        .svc(
            quantcast_org,
            "Quantcast",
            "quantserve.com",
            ServiceCategory::Analytics,
        )
        .flat(0.003, 0.20)
        .cookies(CookieBehavior::uid(20))
        .list(ListCoverage::DomainWide)
        .cert("Quantcast Corp.")
        .build();
    let jsdelivr_org = b.org("jsDelivr", OrgKind::Cdn, false);
    let _jsdelivr = b
        .svc(
            jsdelivr_org,
            "jsDelivr",
            "jsdelivr.net",
            ServiceCategory::Cdn,
        )
        .flat(0.08, 0.25)
        .build();
    let akamai_org = b.org("Akamai", OrgKind::Cdn, false);
    let _akamai = b
        .svc(akamai_org, "Akamai", "akamaihd.net", ServiceCategory::Cdn)
        .flat(0.05, 0.30)
        .cert("Akamai Technologies")
        .build();
    let fastly_org = b.org("Fastly", OrgKind::Cdn, false);
    let _fastly = b
        .svc(fastly_org, "Fastly", "fastly.net", ServiceCategory::Cdn)
        .flat(0.03, 0.20)
        .cert("Fastly, Inc.")
        .build();

    // ---- Cryptominers (§5.3: three services on 8 porn sites). ----
    let coinhive_org = b.org("Coinhive", OrgKind::Cryptominer, false);
    let coinhive = b
        .svc(
            coinhive_org,
            "Coinhive",
            "coinhive.com",
            ServiceCategory::Cryptominer,
        )
        .miner()
        .build();
    let jse_org = b.org("JSEcoin", OrgKind::Cryptominer, false);
    let jsecoin = b
        .svc(
            jse_org,
            "JSEcoin",
            "jsecoin.com",
            ServiceCategory::Cryptominer,
        )
        .miner()
        .build();
    let btcpay_org = b.org("BitcoinPay", OrgKind::Cryptominer, false);
    let bitcoin_pay = b
        .svc(
            btcpay_org,
            "BitcoinPay",
            "bitcoin-pay.eu",
            ServiceCategory::Cryptominer,
        )
        .no_https()
        .miner()
        .build();

    // ---- Traffic trade (potentially malicious, §4.2.2). ----
    let itt_org = b.org("iTrafficTrade", OrgKind::AdNetwork, true);
    let itraffictrade = b
        .svc(
            itt_org,
            "iTrafficTrade",
            "itraffictrade.com",
            ServiceCategory::AdNetwork,
        )
        .flat(0.003, 0.0)
        .no_https()
        .malicious()
        .cookies(ip_cookie(1, 14, 0.5, 1.0))
        .build();

    // ---- Unpopular-site-only analytics (§4.2.2). ----
    let af_org = b.org("AdultForce", OrgKind::Analytics, true);
    let adultforce = b
        .svc(
            af_org,
            "AdultForce",
            "adultforce.com",
            ServiceCategory::Analytics,
        )
        .adoption([0.0, 0.0, 0.0, 0.012], [0.0; 4])
        .cookies(CookieBehavior::uid(16))
        .build();
    let zingy_org = b.org("ZingyAds", OrgKind::AdNetwork, true);
    let zingyads = b
        .svc(
            zingy_org,
            "ZingyAds",
            "zingyads.com",
            ServiceCategory::AdNetwork,
        )
        .adoption([0.0, 0.0, 0.0, 0.010], [0.0; 4])
        .cookies(CookieBehavior::uid(14))
        .no_https()
        .build();

    // ---- The four Russian ATS found on pornovhd.info (§4.2.2). ----
    let mut russian_ats = Vec::new();
    for fqdn in [
        "betweendigital.ru",
        "datamind.ru",
        "adlabs.ru",
        "adx.com.ru",
    ] {
        let org = b.org(&format!("RU-ATS {fqdn}"), OrgKind::AdNetwork, true);
        let id = b
            .svc(org, fqdn, fqdn, ServiceCategory::AdNetwork)
            .adoption([0.0, 0.0, 0.0, 0.002], [0.0; 4])
            .cookies(CookieBehavior::uid(16))
            .list(ListCoverage::DomainWide)
            .no_https()
            .build();
        russian_ats.push(id);
    }

    // ---- Geo-cookie services (27 of the 28 geolocation cookies). ----
    let fling_org = b.org("Fling", OrgKind::Other, true);
    // Placed explicitly during site generation (a fixed handful of sites),
    // so geolocation cookies exist at every world scale.
    let fling = b
        .svc(fling_org, "Fling", "fling.com", ServiceCategory::Widget)
        .cookies(geo_cookie(false))
        .build();
    let pwm_org = b.org("PlayWithMe", OrgKind::Other, true);
    let playwithme = b
        .svc(
            pwm_org,
            "PlayWithMe",
            "playwithme.com",
            ServiceCategory::Widget,
        )
        .cookies(geo_cookie(true))
        .build();

    // ---- The Table 5 fingerprinting cast. ----
    let adnium_org = b.org("Adnium", OrgKind::AdNetwork, true);
    let adnium = b
        .svc(
            adnium_org,
            "Adnium",
            "adnium.com",
            ServiceCategory::AdNetwork,
        )
        .flat(0.004, 0.0)
        .cookies(CookieBehavior::uid(16))
        .list(ListCoverage::PathOnly)
        .fp(FpBehavior::canvas_everywhere((1, 2)))
        .build();
    let hwm_org = b.org("HighWebMedia", OrgKind::Other, true);
    let highwebmedia = b
        .svc(
            hwm_org,
            "HighWebMedia",
            "highwebmedia.com",
            ServiceCategory::Widget,
        )
        .flat(0.0035, 0.0001)
        .list(ListCoverage::PathOnly)
        .fp(FpBehavior {
            canvas_pool: 1,
            indexed_frac: 1.0,
            ..FpBehavior::canvas_everywhere((1, 1))
        })
        .cert("Multi Media LLC")
        .build();
    let xcv_org = b.org("xcvgdf.party", OrgKind::AdNetwork, true);
    let xcvgdf = b
        .svc(
            xcv_org,
            "xcvgdf.party",
            "xcvgdf.party",
            ServiceCategory::AdNetwork,
        )
        .flat(0.0028, 0.0)
        .no_https()
        .fp(FpBehavior::canvas_everywhere((1, 1)))
        .build();
    let provers_org = b.org("provers.pro", OrgKind::AdNetwork, true);
    let provers = b
        .svc(
            provers_org,
            "provers.pro",
            "provers.pro",
            ServiceCategory::AdNetwork,
        )
        .flat(0.0024, 0.0)
        .list(ListCoverage::PathOnly)
        .fp(FpBehavior {
            canvas_pool: 1,
            indexed_frac: 1.0,
            ..FpBehavior::canvas_everywhere((1, 1))
        })
        .build();
    let montwam_org = b.org("montwam.top", OrgKind::AdNetwork, true);
    let montwam = b
        .svc(
            montwam_org,
            "montwam.top",
            "montwam.top",
            ServiceCategory::AdNetwork,
        )
        .flat(0.002, 0.0)
        .no_https()
        .list(ListCoverage::PathOnly)
        .fp(FpBehavior::canvas_everywhere((1, 2)))
        .build();
    let ddits_org = b.org("DDITS", OrgKind::Cdn, true);
    let dditscdn = b
        .svc(ddits_org, "dditscdn", "dditscdn.com", ServiceCategory::Cdn)
        .flat(0.0016, 0.0001)
        .list(ListCoverage::PathOnly)
        .fp(FpBehavior {
            canvas_pool: 1,
            indexed_frac: 1.0,
            ..FpBehavior::canvas_everywhere((1, 1))
        })
        .build();

    // Wire RTB chains: the exchanges call demand partners inside frames.
    for (exchange, partners) in [
        (exoclick, vec![doublepimp, adnxs]),
        (exosrv, vec![exoclick, criteo]),
        (doubleclick, vec![criteo, adnxs, bluekai]),
        (trafficjunky, vec![exoclick]),
    ] {
        b.services.get_mut(exchange).rtb_partners = partners;
    }

    // Wire named sync flows (§5.1.2).
    for (origin, dests) in [
        (
            exosrv,
            vec![exoclick, rlcdn, adnxs, criteo, tsyndicate, doubleclick],
        ),
        (exoclick, vec![exosrv, adnxs, criteo, juicyads]),
        (hd1, vec![hprofits]),
        (bd2, vec![hprofits]),
        (doubleclick, vec![criteo, adnxs, bluekai]),
        (juicyads, vec![criteo]),
        (tsyndicate, vec![adnxs]),
        (yandex, vec![criteo]),
        (traffichunt, vec![adnxs]),
        (itraffictrade, vec![rlcdn]),
    ] {
        b.services.get_mut(origin).sync_to = dests;
    }
    // High-reach networks sync selectively (§5.1.2 is a lower bound partly
    // because of this): roughly every other placement.
    for svc in [exosrv, exoclick, doubleclick, tsyndicate, juicyads] {
        b.services.get_mut(svc).sync_gate_pct = 55;
    }

    // ---- Long-tail populations. ----
    let sync_hubs = vec![criteo, adnxs, rlcdn, doubleclick];
    let longtail_org = b.org("(long-tail adult trackers)", OrgKind::AdNetwork, true);
    let mut longtail_porn = Vec::with_capacity(config.n_longtail_trackers);
    let mut destination_capable: Vec<ServiceId> = sync_hubs.clone();
    // Org-name pool: small tracker shops share holding companies, which is
    // why the paper resolves 4,477 FQDNs to only ~1,014 companies (§4.2(3)).
    let org_pool = ((config.n_longtail_trackers as f64) * 0.29).ceil().max(4.0) as usize;
    for i in 0..config.n_longtail_trackers {
        let fqdn = longtail_fqdn(&mut rng, i);
        let listed = rng.random_bool(0.18); // → ≈663 porn ATS domains at paper scale
        let session_only = rng.random_bool(0.18);
        let short_value = rng.random_bool(0.10); // filtered by the len≥6 rule
        let embeds_ip = rng.random_bool(0.025); // plain-HTTP IP leakers (§5.2)
        let has_ov_cert = rng.random_bool(0.80);
        let mut builder = b
            .svc(
                longtail_org,
                &format!("lt-{i}"),
                &fqdn,
                ServiceCategory::AdNetwork,
            )
            .cookies(CookieBehavior {
                cookies_per_visit: 1 + (i % 2) as u8,
                id_len: if short_value { 4 } else { 12 + (i % 20) as u8 },
                embed_ip_ratio: if embeds_ip { 1.0 } else { 0.0 },
                embed_geo: false,
                geo_includes_isp: false,
                id_ratio: if session_only { 0.0 } else { 1.0 },
                long_value: false,
            })
            .list(if listed {
                ListCoverage::DomainWide
            } else {
                ListCoverage::None
            });
        if has_ov_cert {
            let pool_idx = rng.random_range(0..org_pool);
            builder = builder.cert(&format!("Holding {pool_idx} Media Group"));
        }
        let id = builder.build();
        // HTTPS support in the long tail is scarce (Table 6 third parties).
        b.services.get_mut(id).https = rng.random_bool(0.30);
        if rng.random_bool(0.45) {
            // Sync origin: 3–6 partners from the destination pool.
            let n = rng.random_range(3..=6usize);
            let dests: Vec<ServiceId> = (0..n)
                .filter_map(|_| destination_capable.choose(&mut rng).copied())
                .filter(|d| *d != id)
                .collect();
            b.services.get_mut(id).sync_to = dests;
        }
        if rng.random_bool(0.12) {
            // Geo-fenced out of Russia (payment/sanction constraints):
            // the Table 7 Russian dip of ~700 FQDNs.
            let everywhere_but_ru: Vec<Country> = Country::ALL
                .into_iter()
                .filter(|c| *c != Country::Russia)
                .collect();
            b.services.get_mut(id).countries = Some(everywhere_but_ru);
        }
        if rng.random_bool(0.20) && destination_capable.len() < 720 {
            destination_capable.push(id);
        }
        longtail_porn.push(id);
    }

    // Long-tail canvas fingerprinters (the other ~40 of the 49 FP services).
    let ltfp_org = b.org("(long-tail fingerprinters)", OrgKind::AdNetwork, true);
    let n_ltfp = (config.n_longtail_trackers / 85).max(3);
    let mut longtail_fp = Vec::new();
    for i in 0..n_ltfp {
        let fqdn = longtail_fqdn(&mut rng, 100_000 + i);
        let id = b
            .svc(
                ltfp_org,
                &format!("ltfp-{i}"),
                &fqdn,
                ServiceCategory::AdNetwork,
            )
            .fp(FpBehavior::canvas_everywhere((1, 1)))
            .build();
        b.services.get_mut(id).https = rng.random_bool(0.3);
        longtail_fp.push(id);
    }

    // Long-tail WebRTC services (13 total with the named three).
    let ltrtc_org = b.org("(long-tail webrtc)", OrgKind::Analytics, true);
    let n_ltrtc = (config.n_longtail_trackers / 340).max(2);
    let mut longtail_webrtc = Vec::new();
    for i in 0..n_ltrtc {
        let fqdn = longtail_fqdn(&mut rng, 200_000 + i);
        let id = b
            .svc(
                ltrtc_org,
                &format!("ltrtc-{i}"),
                &fqdn,
                ServiceCategory::Analytics,
            )
            .fp(FpBehavior {
                webrtc: true,
                ..FpBehavior::default()
            })
            .cookies(CookieBehavior::uid(16))
            .build();
        b.services.get_mut(id).https = rng.random_bool(0.3);
        longtail_webrtc.push(id);
    }

    // Long-tail malicious services (16 malicious third parties total, §5.3;
    // a few only serve specific countries, §6.2).
    let ltmal_org = b.org("(long-tail malicious)", OrgKind::Other, true);
    let mut longtail_malicious = Vec::new();
    let regionals: [Option<Country>; 12] = [
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        Some(Country::India),
        Some(Country::India),
        Some(Country::Spain),
    ];
    for (i, region) in regionals.iter().enumerate() {
        let fqdn = longtail_fqdn(&mut rng, 300_000 + i);
        let mut builder = b
            .svc(
                ltmal_org,
                &format!("ltmal-{i}"),
                &fqdn,
                ServiceCategory::AdNetwork,
            )
            .no_https()
            .malicious()
            .cookies(CookieBehavior::uid(12));
        if let Some(c) = region {
            builder = builder.countries(&[*c]);
        }
        let id = builder.build();
        longtail_malicious.push(id);
    }

    // Country-exclusive ATS (Table 7 "Unique Country" ATS column).
    let cats_org = b.org("(country-exclusive ATS)", OrgKind::AdNetwork, true);
    let scale = config.n_longtail_trackers as f64 / 3_400.0;
    let mut country_ats = Vec::new();
    for &(country, paper_count) in COUNTRY_UNIQUE_ATS {
        let count = ((paper_count as f64 * scale).round() as usize).max(1);
        let mut ids = Vec::with_capacity(count);
        for i in 0..count {
            let fqdn = longtail_fqdn(&mut rng, 400_000 + (country as usize) * 1_000 + i);
            let id = b
                .svc(
                    cats_org,
                    &format!("cats-{}-{i}", country.code()),
                    &fqdn,
                    ServiceCategory::AdNetwork,
                )
                .countries(&[country])
                .cookies(CookieBehavior::uid(14))
                .list(ListCoverage::DomainWide)
                .build();
            b.services.get_mut(id).https = rng.random_bool(0.3);
            ids.push(id);
        }
        country_ats.push((country, ids));
    }

    // Regular-web long-tail trackers (→ 196 regular ATS; ~50 of them also
    // reach a couple of porn sites, feeding the 86-domain ATS intersection).
    let ltreg_org = b.org("(long-tail regular trackers)", OrgKind::Analytics, false);
    for i in 0..config.n_regular_trackers {
        let fqdn = regular_fqdn(&mut rng, i);
        let also_porn = rng.random_bool(0.30);
        let mut builder = b
            .svc(
                ltreg_org,
                &format!("ltreg-{i}"),
                &fqdn,
                ServiceCategory::Analytics,
            )
            .adoption(
                if also_porn {
                    [0.0006, 0.0006, 0.0004, 0.0002]
                } else {
                    [0.0; 4]
                },
                [0.05, 0.04, 0.03, 0.02],
            )
            .cookies(CookieBehavior::uid(18))
            .list(ListCoverage::DomainWide);
        if rng.random_bool(0.70) {
            builder = builder.disconnect();
        }
        let id = builder.build();
        b.services.get_mut(id).https = rng.random_bool(0.85);
    }

    // Silence "unused" for ids referenced only via the registry.
    let _ = (
        ga,
        gapis,
        cloudflare,
        addthis,
        scorecard,
        quantserve,
        adscore,
        online_metrix,
        facebook,
        twitter,
        alexa_widget,
        cloudfront,
        coinhive,
        jsecoin,
        bitcoin_pay,
        adultforce,
        zingyads,
        fling,
        playwithme,
        adnium,
        highwebmedia,
        xcvgdf,
        provers,
        montwam,
        dditscdn,
        russian_ats,
        ero,
    );

    Catalog {
        orgs: b.orgs,
        services: b.services,
        longtail_porn,
        longtail_fp,
        longtail_webrtc,
        longtail_malicious,
        country_ats,
    }
}

/// Generates a shady long-tail tracker FQDN.
fn longtail_fqdn(rng: &mut StdRng, salt: usize) -> String {
    const SYL: &[&str] = &[
        "ad", "trk", "traf", "pix", "tag", "stat", "meter", "count", "bid", "pop", "push", "zone",
        "媒", "clk", "srv", "net", "delta", "omni", "hyper", "turbo",
    ];
    const TLD: &[&str] = &[
        "com", "net", "top", "party", "club", "online", "site", "pro", "xxx",
    ];
    let a = SYL[rng.random_range(0..SYL.len())];
    let c = SYL[rng.random_range(0..SYL.len())];
    let tld = TLD[rng.random_range(0..TLD.len())];
    let a = if a == "媒" { "media" } else { a };
    let c = if c == "媒" { "media" } else { c };
    format!("{a}{c}{}{salt}.{tld}", rng.random_range(0..10))
}

/// Generates a mainstream tracker FQDN.
fn regular_fqdn(rng: &mut StdRng, salt: usize) -> String {
    const WORDS: &[&str] = &[
        "metrics", "insight", "audience", "optimize", "engage", "funnel", "session", "heat",
        "signal", "measure",
    ];
    const TLD: &[&str] = &["com", "io", "net"];
    let w = WORDS[rng.random_range(0..WORDS.len())];
    let t = TLD[rng.random_range(0..TLD.len())];
    format!("{w}{salt}.{t}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_deterministic() {
        let c1 = build(&WorldConfig::tiny(5));
        let c2 = build(&WorldConfig::tiny(5));
        let fqdns1: Vec<String> = c1.services.iter().map(|s| s.fqdn.clone()).collect();
        let fqdns2: Vec<String> = c2.services.iter().map(|s| s.fqdn.clone()).collect();
        assert_eq!(fqdns1, fqdns2);
    }

    #[test]
    fn named_cast_is_present() {
        let c = build(&WorldConfig::tiny(1));
        for fqdn in [
            "exoclick.com",
            "exosrv.com",
            "google-analytics.com",
            "doubleclick.net",
            "addthis.com",
            "juicyads.com",
            "coinhive.com",
            "adsco.re",
            "xcvgdf.party",
            "online-metrix.net",
            "rlcdn.com",
            "hprofits.com",
            "adx.com.ru",
        ] {
            assert!(c.services.by_fqdn(fqdn).is_some(), "missing {fqdn}");
        }
    }

    #[test]
    fn exoclick_family_embeds_ip() {
        let c = build(&WorldConfig::tiny(1));
        let exosrv = c.services.by_fqdn("exosrv.com").unwrap();
        assert!((exosrv.cookies.as_ref().unwrap().embed_ip_ratio - 0.85).abs() < 1e-9);
        let exoclick = c.services.by_fqdn("exoclick.com").unwrap();
        assert!((exoclick.cookies.as_ref().unwrap().embed_ip_ratio - 0.29).abs() < 1e-9);
        assert_eq!(exosrv.org, exoclick.org);
    }

    #[test]
    fn hprofits_triangle_syncs_inward() {
        let c = build(&WorldConfig::tiny(1));
        let hd = c.services.by_fqdn("hd100546b.com").unwrap();
        let hp = c.services.by_fqdn("hprofits.com").unwrap();
        assert_eq!(hd.sync_to, vec![hp.id]);
        assert_eq!(hd.cert_org.as_deref(), Some("HProfits Group"));
        assert_eq!(hp.cert_org.as_deref(), Some("HProfits Group"));
    }

    #[test]
    fn country_exclusive_ats_cover_all_countries() {
        let c = build(&WorldConfig::tiny(1));
        assert_eq!(c.country_ats.len(), 6);
        for (country, ids) in &c.country_ats {
            assert!(!ids.is_empty());
            for id in ids {
                let svc = c.services.get(*id);
                assert_eq!(svc.countries.as_deref(), Some(&[*country][..]));
            }
        }
    }

    #[test]
    fn miners_are_malicious_and_font_fp_is_unique() {
        let c = build(&WorldConfig::tiny(1));
        let miners: Vec<_> = c.services.iter().filter(|s| s.miner).collect();
        assert_eq!(miners.len(), 3);
        assert!(miners.iter().all(|s| s.malicious));
        let font_services: Vec<_> = c.services.iter().filter(|s| s.fp.font).collect();
        assert_eq!(font_services.len(), 1);
        assert_eq!(font_services[0].fqdn, "online-metrix.net");
    }

    #[test]
    fn some_longtail_trackers_refuse_russian_traffic() {
        let c = build(&WorldConfig::small(3));
        let ru_excluded = c
            .longtail_porn
            .iter()
            .filter(|id| {
                c.services
                    .get(**id)
                    .countries
                    .as_ref()
                    .is_some_and(|cs| !cs.contains(&Country::Russia) && cs.len() == 5)
            })
            .count();
        let frac = ru_excluded as f64 / c.longtail_porn.len() as f64;
        assert!((0.04..0.25).contains(&frac), "RU-fenced fraction {frac}");
    }

    #[test]
    fn high_reach_networks_sync_selectively() {
        let c = build(&WorldConfig::tiny(3));
        assert_eq!(c.services.by_fqdn("exosrv.com").unwrap().sync_gate_pct, 55);
        // Long-tail origins sync almost everywhere they can.
        let lt_gate = c
            .longtail_porn
            .iter()
            .map(|id| c.services.get(*id).sync_gate_pct)
            .max()
            .unwrap();
        assert_eq!(lt_gate, 90);
    }

    #[test]
    fn longtail_scales_with_config() {
        let small = build(&WorldConfig::tiny(1));
        let big = build(&WorldConfig::small(1));
        assert!(big.longtail_porn.len() > small.longtail_porn.len());
        assert_eq!(
            small.longtail_porn.len(),
            WorldConfig::tiny(1).n_longtail_trackers
        );
    }
}
