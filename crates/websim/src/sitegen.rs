//! Site population generation: porn sites, false positives and the regular
//! reference corpus, with paper-calibrated properties.
//!
//! Calibration sources: §3 (corpus sizes, Fig. 1 rank stability), Table 1
//! (ownership clusters), Tables 3 & 6 (popularity-tier distribution, HTTPS),
//! §4.1 (monetization), §5 (tracking behaviors), §6 (country blocking),
//! Table 8 (consent banners), §7.2 (age gates) and §7.3 (privacy policies).

use rand::prelude::*;
use redlight_net::geoip::Country;
use redlight_rankings::trajectory::trajectory_with_best;
use redlight_rankings::{PopularityTier, RankHistory, TrajectoryParams, TOPLIST_SIZE};
use redlight_text::lang::Language;

use crate::catalog::Catalog;
use crate::config::WorldConfig;
use crate::org::{OrgId, PUBLISHERS};
use crate::policygen::PolicySpec;
use crate::service::ServiceId;

/// Index into the world's site table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

/// Why a keyword-named site is not actually pornographic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FalsePositiveKind {
    /// The keyword is a red herring (video portal, shop, …).
    NonPornContent,
    /// The site did not respond during the crawl.
    Unresponsive,
}

/// Ground-truth site type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// The pornographic corpus.
    Porn,
    /// The regular (reference) corpus.
    Regular,
    /// False positive.
    FalsePositive(FalsePositiveKind),
}

/// Cookie-banner taxonomy (Degeling et al., §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BannerType {
    /// Informs without any choice.
    NoOption,
    /// A single "OK" button.
    Confirmation,
    /// Accept and reject buttons.
    Binary,
    /// Slider or per-purpose checkboxes ("Others" in Table 8).
    Others,
}

/// A site's consent banner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BannerSpec {
    /// Kind.
    pub kind: BannerType,
    /// Shown only to EU visitors (geo-fenced consent).
    pub eu_only: bool,
}

/// Age-verification mechanism kinds (§7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgeGateKind {
    /// A warning text plus an "Enter"/"Yes" button — trivially bypassed.
    SimpleButton,
    /// Social-network login tied to a passport (Russia's pornhub).
    SocialLogin,
}

/// Per-country age-gate behavior. The paper's §7.2 variation is between
/// Russia and everywhere else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgeGate {
    /// Gate shown outside Russia.
    pub default: Option<AgeGateKind>,
    /// Gate shown to Russian visitors.
    pub russia: Option<AgeGateKind>,
}

impl AgeGate {
    /// The gate shown in `country`.
    pub fn in_country(&self, country: Country) -> Option<AgeGateKind> {
        if country == Country::Russia {
            self.russia
        } else {
            self.default
        }
    }
}

/// One third-party deployment on a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deployment {
    /// Service.
    pub service: ServiceId,
    /// Variant selector for script URLs (pool index or per-site unique).
    pub variant: u32,
    /// Canvas-FP scripts this deployment carries (0 when not fingerprinting
    /// here).
    pub fp_scripts: u8,
}

/// A generated website.
#[derive(Debug, Clone)]
pub struct Site {
    /// Id.
    pub id: SiteId,
    /// Domain.
    pub domain: String,
    /// Kind.
    pub kind: SiteKind,
    /// Language.
    pub language: Language,
    /// Owning company, when the site belongs to a publisher cluster.
    pub owner: Option<OrgId>,
    /// `true` for the cluster's most popular site (Table 1 column 3).
    pub flagship: bool,
    /// Daily Alexa-style rank series over 2018.
    pub history: RankHistory,
    /// Popularity tier by best rank.
    pub tier: PopularityTier,
    /// HTTPS.
    pub https: bool,
    /// Deployments.
    pub deployments: Vec<Deployment>,
    /// Porn sites whose CDN assets this site embeds (federation, §4.1).
    pub cross_embeds: Vec<SiteId>,
    /// First-party CDN label (e.g. `img100-589`), when the site shards its
    /// static assets over a generated subdomain.
    pub cdn_label: Option<String>,
    /// The CDN label varies per country (region-localized balancing) —
    /// source of country-unique FQDNs in Table 7.
    pub country_cdn: bool,
    /// Site-specific third-party cloud hosts (label, provider registrable
    /// domain), e.g. `("d8f3k2", "cloudfront.net")`.
    pub cloud_hosts: Vec<(String, String)>,
    /// Banner.
    pub banner: Option<BannerSpec>,
    /// Age gate.
    pub age_gate: AgeGate,
    /// Policy.
    pub policy: Option<PolicySpec>,
    /// Monetization signals (§4.1): account creation, premium offering,
    /// whether premium is behind a paywall.
    pub login: bool,
    /// Premium.
    pub premium: bool,
    /// Premium paid.
    pub premium_paid: bool,
    /// The site itself is flagged by threat intel (7 porn sites, §5.3).
    pub malicious: bool,
    /// Hosts a first-party canvas-fingerprinting script.
    pub first_party_canvas: bool,
    /// Hosts a first-party decoy canvas script (UI sparkles — must NOT be
    /// counted by the detector).
    pub decoy_canvas: bool,
    /// A minimalist site: no cookie bookkeeping and almost no third-party
    /// embeds (the ~8 % of §5.1.1 sites where no cookies appear at all).
    pub minimal: bool,
    /// Never responds (false positives, §3).
    pub unresponsive: bool,
    /// Responds to the Selenium crawler but exceeded the OpenWPM 120 s
    /// timeout (6,843 → 6,346 successfully crawled).
    pub openwpm_timeout: bool,
    /// Countries from which the site is unreachable (censorship or
    /// server-side geo-blocking, §3.1).
    pub blocked_in: Vec<Country>,
    /// Listed by the specialized porn directories (§3 source 1).
    pub in_directory: bool,
    /// Indexed under the Alexa-style Adult category (§3 source 2).
    pub in_alexa_adult: bool,
    /// Carries the ASACP Restricted-To-Adults meta tag (§2.1).
    pub rta_label: bool,
}

impl Site {
    /// `true` for genuinely pornographic sites.
    pub fn is_porn(&self) -> bool {
        matches!(self.kind, SiteKind::Porn)
    }

    /// `true` when the domain contains one of the §3 search keywords.
    pub fn has_keyword(&self) -> bool {
        domain_has_keyword(&self.domain)
    }
}

/// The §3 keyword bag.
pub const KEYWORDS: &[&str] = &["porn", "tube", "sex", "gay", "lesbian", "mature", "xxx"];

/// Does `domain` contain a corpus keyword?
pub fn domain_has_keyword(domain: &str) -> bool {
    KEYWORDS.iter().any(|k| domain.contains(k))
}

/// Tier population shares for porn sites (Table 6: 75 / 552 / 3,886 / 2,330
/// of 6,843).
const PORN_TIER_SHARE: [f64; 4] = [0.011, 0.081, 0.568, 0.340];

/// HTTPS adoption by tier (Table 6).
const PORN_HTTPS: [f64; 4] = [0.92, 0.63, 0.32, 0.22];
const REGULAR_HTTPS: [f64; 4] = [0.97, 0.90, 0.85, 0.80];

/// ExoClick-bundle adoption by tier (→ 43 % of the corpus overall).
const EXO_BUNDLE: [f64; 4] = [0.75, 0.60, 0.45, 0.32];

/// Language distribution of porn sites (English-dominated, with the eight
/// default languages of §3.1 footnote 4).
const LANGS: [(Language, f64); 8] = [
    (Language::English, 0.55),
    (Language::Russian, 0.10),
    (Language::Spanish, 0.08),
    (Language::German, 0.06),
    (Language::French, 0.06),
    (Language::Portuguese, 0.05),
    (Language::Italian, 0.05),
    (Language::Romanian, 0.05),
];

fn pick_language(rng: &mut StdRng) -> Language {
    let mut x: f64 = rng.random_range(0.0..1.0);
    for (lang, w) in LANGS {
        if x < w {
            return lang;
        }
        x -= w;
    }
    Language::English
}

fn tier_index(t: PopularityTier) -> usize {
    match t {
        PopularityTier::Top1k => 0,
        PopularityTier::To10k => 1,
        PopularityTier::To100k => 2,
        PopularityTier::Beyond100k => 3,
    }
}

fn sample_tier(rng: &mut StdRng) -> PopularityTier {
    let mut x: f64 = rng.random_range(0.0..1.0);
    for (i, share) in PORN_TIER_SHARE.iter().enumerate() {
        if x < *share {
            return PopularityTier::ALL[i];
        }
        x -= share;
    }
    PopularityTier::Beyond100k
}

/// Samples a base rank inside a tier (log-uniform).
fn base_rank_in_tier(rng: &mut StdRng, tier: PopularityTier) -> u32 {
    let (lo, hi): (f64, f64) = match tier {
        PopularityTier::Top1k => (20.0, 1_000.0),
        PopularityTier::To10k => (1_200.0, 10_000.0),
        PopularityTier::To100k => (13_000.0, 100_000.0),
        // Beyond the 100k boundary but still inside the published top-1M:
        // every §3 candidate was discoverable through the Alexa keyword
        // search, so each site's best rank stays within the list at least
        // once during the year.
        PopularityTier::Beyond100k => (110_000.0, 0.97 * TOPLIST_SIZE as f64),
    };
    let x: f64 = rng.random_range(lo.ln()..hi.ln());
    x.exp() as u32
}

/// Builds a rank history whose realized best rank equals `target_best`,
/// tuned so roughly 16 % of porn sites are always inside the top-1M
/// (Fig. 1). Targets beyond the top-1M cutoff yield never-indexed sites.
fn history_for(rng: &mut StdRng, target_best: u32, stable: bool, seed: u64) -> RankHistory {
    let volatility = if stable {
        if target_best < 1_000 {
            // Even stable top-1k sites wander: only ~16 giants never leave
            // the top-1k over the year (§3).
            rng.random_range(0.18..0.34)
        } else {
            rng.random_range(0.08..0.18)
        }
    } else {
        rng.random_range(0.35..0.75)
    };
    trajectory_with_best(
        &TrajectoryParams {
            base_rank: target_best,
            persistence: 0.9,
            volatility,
            days: redlight_rankings::DAYS_IN_YEAR,
        },
        target_best,
        seed,
    )
}

/// Name fragments for porn-site domains.
const PORN_ADJ: &[&str] = &[
    "hot", "wild", "real", "amateur", "euro", "classic", "extreme", "young", "busty", "kinky",
    "sweet", "dirty", "golden", "velvet", "crazy", "ultra", "mega", "super", "prime", "royal",
];
const PORN_NOUN: &[&str] = &[
    "vids", "clips", "cams", "babes", "models", "films", "flicks", "dolls", "stars", "angels",
    "zone", "land", "world", "planet", "palace", "vault", "hub", "station", "city", "island",
];
const TLDS: &[&str] = &["com", "net", "xxx", "tv", "org", "porn", "sex"];
const SAFE_TLDS: &[&str] = &["com", "net", "org", "io", "co"];

fn keyword_domain(rng: &mut StdRng, n: usize) -> String {
    let kw = KEYWORDS[rng.random_range(0..KEYWORDS.len())];
    let adj = PORN_ADJ[rng.random_range(0..PORN_ADJ.len())];
    let noun = PORN_NOUN[rng.random_range(0..PORN_NOUN.len())];
    let tld = TLDS[rng.random_range(0..TLDS.len())];
    match rng.random_range(0..3u8) {
        0 => format!("{adj}{kw}{n}.{tld}"),
        1 => format!("{kw}{noun}{n}.{tld}"),
        _ => format!("{adj}{kw}{noun}{n}.{tld}"),
    }
}

fn brand_domain(rng: &mut StdRng, n: usize) -> String {
    // Directory-listed brands avoid the keyword bag (or the keyword search
    // would have found them and the paper's union arithmetic would differ).
    const BRAND_A: &[&str] = &[
        "velvet", "scarlet", "midnight", "crimson", "boudoir", "aphro", "eros", "sultry", "tease",
        "allure", "lux", "noir", "charm", "desire", "tempt",
    ];
    const BRAND_B: &[&str] = &[
        "angels", "dolls", "affairs", "nights", "rooms", "films", "live", "club", "den", "lounge",
        "story", "scene", "play", "secret", "vision",
    ];
    loop {
        let a = BRAND_A[rng.random_range(0..BRAND_A.len())];
        let b = BRAND_B[rng.random_range(0..BRAND_B.len())];
        let tld = SAFE_TLDS[rng.random_range(0..SAFE_TLDS.len())];
        let d = format!("{a}{b}{n}.{tld}");
        if !domain_has_keyword(&d) {
            return d;
        }
    }
}

fn regular_domain(rng: &mut StdRng, n: usize) -> String {
    const A: &[&str] = &[
        "daily", "global", "smart", "quick", "cloud", "tech", "open", "meta", "micro", "hyper",
        "green", "blue", "north", "east", "prime", "first", "city", "shop", "news", "game",
    ];
    const B: &[&str] = &[
        "times", "mart", "pedia", "base", "portal", "press", "works", "labs", "spot", "point",
        "center", "market", "journal", "network", "review", "guide", "forum", "board", "space",
        "deals",
    ];
    loop {
        let a = A[rng.random_range(0..A.len())];
        let b = B[rng.random_range(0..B.len())];
        let tld = SAFE_TLDS[rng.random_range(0..SAFE_TLDS.len())];
        let d = format!("{a}{b}{n}.{tld}");
        if !domain_has_keyword(&d) {
            return d;
        }
    }
}

fn fp_domain(rng: &mut StdRng, n: usize) -> String {
    // Keyword-bearing but innocent domains (the YouTube effect).
    const INNOCENT: &[&str] = &[
        "tubeamps{n}.com",      // guitar amplifiers
        "innertube{n}.net",     // swimming gear
        "sextant{n}.org",       // navigation
        "sussexnews{n}.com",    // regional news
        "middlesexshop{n}.co",  // regional retail
        "maturefunds{n}.com",   // retirement finance
        "gaylordhotels{n}.net", // hospitality brand
        "tubewell{n}.org",      // irrigation
        "essexmotors{n}.com",   // car dealer
        "videotube{n}.io",      // generic video portal
    ];
    let t = INNOCENT[rng.random_range(0..INNOCENT.len())];
    t.replace("{n}", &n.to_string())
}

/// Output of site generation.
pub struct SitePopulation {
    /// Sites.
    pub sites: Vec<Site>,
    /// The specialized porn-directory domains (the §3 source-1 aggregators).
    pub directory_domains: Vec<String>,
}

/// Generates the full site population for `config` against `catalog`.
pub fn generate(config: &WorldConfig, catalog: &Catalog) -> SitePopulation {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x517E_6E6E);
    let scale = config.sanitized_count() as f64 / 6_843.0;
    let mut sites: Vec<Site> = Vec::new();

    // ---------- 1. Owned porn sites (Table 1 clusters). ----------
    // Scale cluster sizes down for small worlds, keeping ≥1 site (the
    // flagship) per company so owner discovery has something to find.
    for spec in PUBLISHERS {
        let owner = catalog.orgs.by_name(spec.name).map(|o| o.id).or(None);
        // Publishers are registered lazily: the catalog only lists service
        // orgs, so owner ids are resolved later in world assembly. Here we
        // tag sites with a placeholder resolved by name.
        let _ = owner;
        let n_sites = ((spec.sites as f64 * scale).round() as usize).max(1);
        for k in 0..n_sites {
            let flagship = k == 0;
            let (domain, base_rank) = if flagship {
                (spec.flagship_domain.to_string(), spec.flagship_rank)
            } else {
                let d = if rng.random_bool(0.5) {
                    keyword_domain(&mut rng, sites.len())
                } else {
                    brand_domain(&mut rng, sites.len())
                };
                // Non-flagship cluster members are strictly less popular,
                // but stay discoverable through the 2018 toplist.
                let floor = spec.flagship_rank.saturating_mul(2).clamp(2_000, 800_000);
                let ceil = floor.saturating_mul(40).clamp(floor + 10, 950_000);
                (d, rng.random_range(floor..ceil))
            };
            let stable = base_rank < 150_000 && rng.random_bool(0.7);
            let site_seed = config.seed ^ ((sites.len() as u64) << 20) ^ 0xA11CE;
            let history = history_for(&mut rng, base_rank, stable, site_seed);
            let tier = PopularityTier::from_best_rank(history.best());
            let mut site = blank_site(
                SiteId(sites.len() as u32),
                domain,
                SiteKind::Porn,
                pick_language(&mut rng),
                history,
                tier,
            );
            site.owner = Some(OrgId(u32::MAX)); // resolved in world assembly
            site.flagship = flagship;
            site.in_directory = !site.has_keyword();
            site.https = rng.random_bool(PORN_HTTPS[tier_index(tier)].max(0.5));
            sites.push(site);
        }
    }
    let owned_count = sites.len();

    // Remember the publisher each owned site belongs to, in order.
    let mut owned_cursor = 0usize;
    let mut owner_names: Vec<&'static str> = Vec::with_capacity(owned_count);
    for spec in PUBLISHERS {
        let n_sites = ((spec.sites as f64 * scale).round() as usize).max(1);
        for _ in 0..n_sites {
            owner_names.push(spec.name);
            owned_cursor += 1;
        }
    }
    debug_assert_eq!(owned_cursor, owned_count);

    // ---------- 2. Unowned porn sites up to the sanitized corpus size. ----
    let n_porn_total = config.sanitized_count();
    let owned_keyworded = sites.iter().filter(|s| s.has_keyword()).count();
    let owned_branded = owned_count - owned_keyworded;
    // Directory sites are brand-named; keyword sites carry keywords.
    let n_directory_left = config.n_directory_porn.saturating_sub(owned_branded);
    let n_alexa_adult = config.n_alexa_adult_porn;
    let n_unowned = n_porn_total - owned_count;

    // A specific Russian site hosting the four Russian ATS (§4.2.2).
    let pornovhd_idx = sites.len();
    {
        let site_seed = config.seed ^ ((sites.len() as u64) << 20) ^ 0xA11CE;
        let history = history_for(&mut rng, 320_000, false, site_seed);
        let tier = PopularityTier::from_best_rank(history.best());
        let mut site = blank_site(
            SiteId(sites.len() as u32),
            "pornovhd.info".to_string(),
            SiteKind::Porn,
            Language::Russian,
            history,
            tier,
        );
        site.https = false;
        sites.push(site);
    }

    for i in 1..n_unowned {
        let mut in_directory = false;
        let mut in_alexa_adult = false;
        let brand_budget = n_directory_left + n_alexa_adult;
        let domain = if i <= brand_budget {
            if i <= n_directory_left {
                in_directory = true;
            } else {
                in_alexa_adult = true;
            }
            brand_domain(&mut rng, sites.len())
        } else {
            keyword_domain(&mut rng, sites.len())
        };
        let tier = sample_tier(&mut rng);
        let base_rank = base_rank_in_tier(&mut rng, tier);
        // Alexa-adult sites are prominent, pin them into the visible list.
        let base_rank = if in_alexa_adult {
            rng.random_range(500..40_000)
        } else {
            base_rank
        };
        // Stability tuned so ≈16 % of the corpus is always inside the
        // top-1M (Fig. 1): popular tiers are mostly stable.
        let stable = match tier {
            PopularityTier::Top1k | PopularityTier::To10k => rng.random_bool(0.92),
            PopularityTier::To100k => rng.random_bool(0.12),
            PopularityTier::Beyond100k => false,
        };
        let site_seed = config.seed ^ ((sites.len() as u64) << 20) ^ 0xA11CE;
        let history = history_for(&mut rng, base_rank, stable, site_seed);
        let tier = PopularityTier::from_best_rank(history.best());
        let mut site = blank_site(
            SiteId(sites.len() as u32),
            domain,
            SiteKind::Porn,
            pick_language(&mut rng),
            history,
            tier,
        );
        site.in_directory = in_directory;
        site.in_alexa_adult = in_alexa_adult;
        site.https = rng.random_bool(PORN_HTTPS[tier_index(tier)]);
        sites.push(site);
    }

    // ---------- 3. False positives (keyword-named, not porn). ----------
    for i in 0..config.n_false_positives {
        let unresponsive = rng.random_bool(0.55); // "many … unresponsive" (§3)
        let kind = if unresponsive {
            FalsePositiveKind::Unresponsive
        } else {
            FalsePositiveKind::NonPornContent
        };
        let domain = if unresponsive {
            keyword_domain(&mut rng, 900_000 + i)
        } else {
            fp_domain(&mut rng, i)
        };
        let tier = sample_tier(&mut rng);
        let base_rank = base_rank_in_tier(&mut rng, tier);
        let site_seed = config.seed ^ ((sites.len() as u64) << 20) ^ 0xA11CE;
        let history = history_for(&mut rng, base_rank, false, site_seed);
        let tier = PopularityTier::from_best_rank(history.best());
        let mut site = blank_site(
            SiteId(sites.len() as u32),
            domain,
            SiteKind::FalsePositive(kind),
            Language::English,
            history,
            tier,
        );
        site.unresponsive = unresponsive;
        site.https = rng.random_bool(0.6);
        sites.push(site);
    }

    // ---------- 4. Regular reference corpus (Alexa top-10k extract). ------
    for i in 0..config.n_regular {
        let domain = regular_domain(&mut rng, i);
        let base_rank = rng.random_range(1..10_000u32);
        let site_seed = config.seed ^ ((sites.len() as u64) << 20) ^ 0xA11CE;
        let history = history_for(&mut rng, base_rank, true, site_seed);
        let tier = PopularityTier::from_best_rank(history.best());
        let mut site = blank_site(
            SiteId(sites.len() as u32),
            domain,
            SiteKind::Regular,
            pick_language(&mut rng),
            history,
            tier,
        );
        site.https = rng.random_bool(REGULAR_HTTPS[tier_index(tier)]);
        // ~12 % of the regular corpus fails to crawl (9,688 → 8,511).
        site.openwpm_timeout = rng.random_bool(0.12);
        sites.push(site);
    }

    // ---------- 5. Behavioral decoration. ----------
    decorate(config, catalog, &mut rng, &mut sites, pornovhd_idx);

    // Directory aggregator domains (source 1 of §3).
    let directory_domains = vec![
        "only4adults-directory.com".to_string(),
        "toppornsites-index.com".to_string(),
        "mypornbible-list.com".to_string(),
    ];

    // Resolve owner placeholder ids against catalog orgs extended with
    // publishers: world assembly registers publisher orgs; here we stash the
    // publisher index in `owner` as OrgId(offset + idx) is not yet known, so
    // instead reuse the name table ordering.
    let mut owner_iter = owner_names.into_iter();
    for site in sites.iter_mut().take(owned_count) {
        let name = owner_iter.next().expect("one name per owned site");
        // Temporarily store the publisher index; world assembly remaps.
        let idx = PUBLISHERS.iter().position(|p| p.name == name).unwrap() as u32;
        site.owner = Some(OrgId(idx | PUBLISHER_TAG));
    }

    SitePopulation {
        sites,
        directory_domains,
    }
}

/// Owner ids produced by [`generate`] carry this tag until world assembly
/// remaps them onto real [`OrgId`]s (high bit set, low bits = index into
/// [`PUBLISHERS`]).
pub const PUBLISHER_TAG: u32 = 0x8000_0000;

fn blank_site(
    id: SiteId,
    domain: String,
    kind: SiteKind,
    language: Language,
    history: RankHistory,
    tier: PopularityTier,
) -> Site {
    Site {
        id,
        domain,
        kind,
        language,
        owner: None,
        flagship: false,
        history,
        tier,
        https: false,
        deployments: Vec::new(),
        cross_embeds: Vec::new(),
        cdn_label: None,
        country_cdn: false,
        cloud_hosts: Vec::new(),
        banner: None,
        age_gate: AgeGate::default(),
        policy: None,
        login: false,
        premium: false,
        premium_paid: false,
        minimal: false,
        malicious: false,
        first_party_canvas: false,
        decoy_canvas: false,
        unresponsive: false,
        openwpm_timeout: false,
        blocked_in: Vec::new(),
        in_directory: false,
        in_alexa_adult: false,
        rta_label: false,
    }
}

/// Applies tracking, compliance and geo behavior to the generated sites.
#[allow(clippy::needless_range_loop)] // index-based: the loop mutates `sites[i]` while reading peers
fn decorate(
    config: &WorldConfig,
    catalog: &Catalog,
    rng: &mut StdRng,
    sites: &mut [Site],
    pornovhd_idx: usize,
) {
    let scale = config.sanitized_count() as f64 / 6_843.0;

    // -- Minimalist porn sites (§5.1.1: 8 % of sites set no cookies). --
    for site in sites.iter_mut() {
        if site.is_porn() && rng.random_bool(0.08) {
            site.minimal = true;
        }
    }

    // Explicit placements below avoid minimalist sites too.
    let porn_ids: Vec<usize> = sites
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_porn() && !s.unresponsive && !s.minimal)
        .map(|(i, _)| i)
        .collect();

    let exosrv = catalog.services.by_fqdn("exosrv.com").map(|s| s.id);
    let exoclick = catalog.services.by_fqdn("exoclick.com").map(|s| s.id);
    let rlcdn = catalog.services.by_fqdn("rlcdn.com").map(|s| s.id);

    // -- Probability-driven named services + the ExoClick bundle. --
    for site in sites.iter_mut() {
        if site.unresponsive || site.minimal {
            continue;
        }
        let ti = tier_index(site.tier);
        let is_porn = site.is_porn();
        let is_regular = matches!(site.kind, SiteKind::Regular)
            || matches!(
                site.kind,
                SiteKind::FalsePositive(FalsePositiveKind::NonPornContent)
            );
        for svc in catalog.services.iter() {
            let p = if is_porn {
                svc.adoption.porn[ti]
            } else if is_regular {
                svc.adoption.regular[ti]
            } else {
                0.0
            };
            if p > 0.0 && rng.random_bool(p.min(1.0)) {
                site.deployments.push(Deployment {
                    service: svc.id,
                    variant: rng.random::<u32>(),
                    fp_scripts: 0,
                });
            }
        }
        if is_porn && rng.random_bool(EXO_BUNDLE[ti]) {
            let u: f64 = rng.random_range(0.0..1.0);
            let (srv, click) = if u < 0.45 {
                (true, false)
            } else if u < 0.70 {
                (true, true)
            } else {
                (false, true)
            };
            if srv {
                if let Some(id) = exosrv {
                    site.deployments.push(Deployment {
                        service: id,
                        variant: rng.random::<u32>(),
                        fp_scripts: 0,
                    });
                }
            }
            if click {
                if let Some(id) = exoclick {
                    site.deployments.push(Deployment {
                        service: id,
                        variant: rng.random::<u32>(),
                        fp_scripts: 0,
                    });
                }
            }
        }
    }

    // -- rlcdn on exactly 4 porn sites (§4.2.1's data-broker sighting). --
    if let Some(rl) = rlcdn {
        for idx in pick_distinct(rng, &porn_ids, (4.0 * scale).round().max(1.0) as usize) {
            push_unique(&mut sites[idx].deployments, rl, rng);
        }
    }

    // -- The Russian ATS quartet on pornovhd.info + a couple of peers. --
    for fqdn in [
        "betweendigital.ru",
        "datamind.ru",
        "adlabs.ru",
        "adx.com.ru",
    ] {
        if let Some(svc) = catalog.services.by_fqdn(fqdn) {
            push_unique(&mut sites[pornovhd_idx].deployments, svc.id, rng);
            for idx in pick_distinct(rng, &porn_ids, 2) {
                if rng.random_bool(0.5) {
                    push_unique(&mut sites[idx].deployments, svc.id, rng);
                }
            }
        }
    }

    // -- Long-tail adult trackers: 1–5 sites each, skewed to the unpopular
    //    tail (§4.2.2: 18 % of services appear only on 100k+ sites). --
    let weighted: Vec<usize> = porn_ids
        .iter()
        .flat_map(|&i| {
            let w = match sites[i].tier {
                PopularityTier::Top1k => 0,
                PopularityTier::To10k => 1,
                PopularityTier::To100k => 3,
                PopularityTier::Beyond100k => 12,
            };
            std::iter::repeat_n(i, w)
        })
        .collect();
    for &svc in &catalog.longtail_porn {
        let mut k = 1 + (rng.random_range(0.0..1.0f64).powi(3) * 4.0) as usize; // zipf-ish 1..5
                                                                                // Sync origins are the better-connected tail: they sit on a few
                                                                                // sites each (the paper observes ≈4.2 pairs per origin), and the
                                                                                // first visit only plants the cookie.
        if !catalog.services.get(svc).sync_to.is_empty() {
            k = rng.random_range(4..=8usize);
        }
        for _ in 0..k {
            let idx = weighted[rng.random_range(0..weighted.len())];
            push_unique(&mut sites[idx].deployments, svc, rng);
        }
    }

    // -- Long-tail canvas fingerprinters: 1–3 sites each. --
    for &svc in &catalog.longtail_fp {
        let k = rng.random_range(1..=3usize);
        for idx in pick_distinct(rng, &porn_ids, k) {
            let d = Deployment {
                service: svc,
                variant: rng.random::<u32>(),
                fp_scripts: 1,
            };
            sites[idx].deployments.push(d);
        }
    }

    // -- Long-tail WebRTC services: ~2 sites each. --
    for &svc in &catalog.longtail_webrtc {
        for idx in pick_distinct(rng, &porn_ids, 2) {
            push_unique(&mut sites[idx].deployments, svc, rng);
        }
    }

    // -- Malicious long tail: 1–4 porn sites each (§5.3: 16 services in 41
    //    sites; §6.2 geo-targeting comes from their country gating). --
    for &svc in &catalog.longtail_malicious {
        let k = rng.random_range(1..=4usize);
        for idx in pick_distinct(rng, &porn_ids, k) {
            push_unique(&mut sites[idx].deployments, svc, rng);
        }
    }

    // -- Country-exclusive ATS: 1–3 porn sites each. --
    for (_, ids) in &catalog.country_ats {
        for &svc in ids {
            let k = rng.random_range(1..=3usize);
            for idx in pick_distinct(rng, &porn_ids, k) {
                push_unique(&mut sites[idx].deployments, svc, rng);
            }
        }
    }

    // -- Miners: coinhive 5, jsecoin 2, bitcoin-pay 1 (8 sites, §5.3). --
    for (fqdn, count) in [
        ("coinhive.com", 5usize),
        ("jsecoin.com", 2),
        ("bitcoin-pay.eu", 1),
    ] {
        if let Some(svc) = catalog.services.by_fqdn(fqdn) {
            let k = ((count as f64 * scale).round() as usize).max(1);
            for idx in pick_distinct(rng, &porn_ids, k) {
                push_unique(&mut sites[idx].deployments, svc.id, rng);
            }
        }
    }

    // -- Mark canvas deployments for services with probabilistic FP. --
    for site in sites.iter_mut() {
        let mut extra: Vec<Deployment> = Vec::new();
        for dep in &mut site.deployments {
            let svc = catalog.services.get(dep.service);
            if svc.fp.canvas && dep.fp_scripts == 0 {
                let frac = svc.fp.canvas_site_fraction;
                if frac > 0.0 && rng.random_bool(frac.min(1.0)) {
                    let (lo, hi) = svc.fp.canvas_scripts;
                    dep.fp_scripts = rng.random_range(lo..=hi.max(lo));
                }
            }
        }
        site.deployments.append(&mut extra);
    }

    // -- Cross-embeds, CDN labels, cloud hosts. --
    let n_sites = sites.len();
    for i in 0..n_sites {
        if sites[i].unresponsive {
            continue;
        }
        match sites[i].kind {
            SiteKind::Porn => {
                if rng.random_bool(0.12) {
                    let a = rng.random_range(1..200u32);
                    let bsuf = rng.random_range(100..999u32);
                    sites[i].cdn_label = Some(format!("img{a}-{bsuf}"));
                    sites[i].country_cdn = rng.random_bool(0.45);
                }
                if rng.random_bool(0.12) && porn_ids.len() > 2 {
                    let k = rng.random_range(1..=2usize);
                    for idx in pick_distinct(rng, &porn_ids, k) {
                        // HTTPS sites federate with HTTPS peers (mixed
                        // content breaks their players), keeping fully-HTTPS
                        // sites possible (§5.2).
                        let scheme_ok = !sites[i].https || sites[idx].https;
                        if idx != i
                            && scheme_ok
                            && !sites[i].cross_embeds.contains(&SiteId(idx as u32))
                        {
                            sites[i].cross_embeds.push(SiteId(idx as u32));
                        }
                    }
                }
                if rng.random_bool(0.15) {
                    sites[i].cloud_hosts.push(cloud_host(rng));
                }
            }
            SiteKind::Regular => {
                if rng.random_bool(0.80) {
                    for _ in 0..rng.random_range(1..=3usize) {
                        sites[i].cloud_hosts.push(cloud_host(rng));
                    }
                }
                // Regular sites shard their own static assets too — the
                // first-party FQDN population of Table 2.
                if rng.random_bool(0.50) {
                    let a = rng.random_range(1..50u32);
                    sites[i].cdn_label = Some(format!("static{a}"));
                }
            }
            SiteKind::FalsePositive(_) => {}
        }
    }

    // -- Shared public CDN pool: popular JS/static hosts used by both
    //    ecosystems — the Table 7 "web ecosystem" overlap and most of the
    //    Table 2 third-party intersection. --
    let pool_size = ((700.0 * scale).ceil() as usize).max(8);
    let shared_pool: Vec<(String, String)> = (0..pool_size)
        .map(|k| (format!("lib{k}"), "jscdn.net".to_string()))
        .collect();
    for i in 0..n_sites {
        if sites[i].unresponsive {
            continue;
        }
        let (p, max_hosts) = match sites[i].kind {
            // Public-CDN adoption is a professional-operations signal: the
            // unpopular porn tail serves everything itself (Table 6's low
            // third-party HTTPS shares down-tier).
            SiteKind::Porn if sites[i].tier != PopularityTier::Beyond100k => (0.35, 1usize),
            SiteKind::Porn => (0.08, 1usize),
            SiteKind::Regular => (0.55, 2usize),
            SiteKind::FalsePositive(_) => (0.2, 1usize),
        };
        if rng.random_bool(p) {
            for _ in 0..rng.random_range(1..=max_hosts) {
                let host = shared_pool[rng.random_range(0..shared_pool.len())].clone();
                if !sites[i].cloud_hosts.contains(&host) {
                    sites[i].cloud_hosts.push(host);
                }
            }
        }
    }

    // -- Geolocation-cookie widgets (§5.1.1): fling on ~9, playwithme on ~6
    //    sites at paper scale; at least one each at any scale. --
    for (fqdn, count) in [
        ("fling.com", 9.0f64),
        ("playwithme.com", 6.0),
        // ThreatMetrix: the single font-fingerprinting script (§5.1.3).
        ("online-metrix.net", 6.0),
    ] {
        if let Some(svc) = catalog.services.by_fqdn(fqdn) {
            let k = ((count * scale).round() as usize).max(1);
            for idx in pick_distinct(rng, &porn_ids, k) {
                push_unique(&mut sites[idx].deployments, svc.id, rng);
            }
        }
    }

    // -- First-party canvas FP (≈26 % of the 245 scripts) and decoys. --
    let n_fp_canvas = ((64.0 * scale).round() as usize).max(1);
    for idx in pick_distinct(rng, &porn_ids, n_fp_canvas) {
        sites[idx].first_party_canvas = true;
    }
    for idx in pick_distinct(rng, &porn_ids, (porn_ids.len() / 12).max(1)) {
        sites[idx].decoy_canvas = true; // UI canvas use that must not count
    }

    // -- Malicious porn sites themselves (7 at paper scale). --
    for idx in pick_distinct(rng, &porn_ids, ((7.0 * scale).round() as usize).max(1)) {
        sites[idx].malicious = true;
    }

    // -- Monetization (§4.1): 14 % offer subscriptions; 23 % of those paid.
    for &idx in &porn_ids {
        if rng.random_bool(0.35) {
            sites[idx].login = true;
        }
        if rng.random_bool(0.14) {
            sites[idx].login = true;
            sites[idx].premium = true;
            sites[idx].premium_paid = rng.random_bool(0.23);
        }
    }

    // -- Consent banners (Table 8). --
    for &idx in &porn_ids {
        let u: f64 = rng.random_range(0.0..1.0);
        // Global banner carriers (USA column) by type.
        let spec = if u < 0.0139 {
            Some((BannerType::NoOption, false))
        } else if u < 0.0139 + 0.023 {
            Some((BannerType::Confirmation, false))
        } else if u < 0.0139 + 0.023 + 0.0006 {
            Some((BannerType::Binary, false))
        } else if u < 0.0139 + 0.023 + 0.0006 + 0.0001 {
            Some((BannerType::Others, false))
        } else if u < 0.0376 + 0.0052 {
            // EU-only carriers close the 4.41 % − 3.76 % gap, mostly
            // Confirmation/Binary (GDPR-minded geo-fencing).
            let t = if rng.random_bool(0.6) {
                BannerType::Confirmation
            } else {
                BannerType::Binary
            };
            Some((t, true))
        } else {
            None
        };
        sites[idx].banner = spec.map(|(kind, eu_only)| BannerSpec { kind, eu_only });
    }

    // -- Age gates (§7.2): structured over the top-50, background elsewhere.
    let mut by_rank: Vec<usize> = porn_ids.clone();
    by_rank.sort_by_key(|&i| sites[i].history.best().unwrap_or(u32::MAX));
    let top50: Vec<usize> = by_rank
        .iter()
        .copied()
        .take((50.0 * scale).max(10.0) as usize)
        .collect();
    let n50 = top50.len();
    // 12 % gate everywhere except Russia; 8 % gate everywhere incl. Russia;
    // 8 % gate ONLY in Russia; pornhub's Russian gate is a social login.
    let n_a_not_b = (0.12 * n50 as f64).round() as usize;
    let n_a_and_b = (0.08 * n50 as f64).round() as usize;
    let n_b_only = (0.08 * n50 as f64).round() as usize;
    let mut shuffled = top50.clone();
    shuffled.shuffle(rng);
    for (pos, &idx) in shuffled.iter().enumerate() {
        let gate = &mut sites[idx].age_gate;
        if pos < n_a_not_b {
            gate.default = Some(AgeGateKind::SimpleButton);
        } else if pos < n_a_not_b + n_a_and_b {
            gate.default = Some(AgeGateKind::SimpleButton);
            gate.russia = Some(AgeGateKind::SimpleButton);
        } else if pos < n_a_not_b + n_a_and_b + n_b_only {
            gate.russia = Some(AgeGateKind::SimpleButton);
        }
    }
    // Background gates outside the top-50.
    for &idx in by_rank.iter().skip(n50) {
        if rng.random_bool(0.04) {
            sites[idx].age_gate.default = Some(AgeGateKind::SimpleButton);
            sites[idx].age_gate.russia = Some(AgeGateKind::SimpleButton);
        }
    }
    // The pornhub analog: Russian social-login gate mandated in 2017.
    if let Some(ph) = sites.iter_mut().find(|s| s.domain == "pornhub.com") {
        ph.age_gate.default = Some(AgeGateKind::SimpleButton);
        ph.age_gate.russia = Some(AgeGateKind::SocialLogin);
    }

    // -- RTA labels (§2.1): a minority of responsible sites. --
    for &idx in &porn_ids {
        if rng.random_bool(0.06) {
            sites[idx].rta_label = true;
        }
    }

    // -- Geo blocking (§3.1): 21 sites unreachable from Russia, 168 from
    //    India (censorship or server-side blocking — indistinguishable). --
    for idx in pick_distinct(rng, &porn_ids, ((21.0 * scale).round() as usize).max(1)) {
        sites[idx].blocked_in.push(Country::Russia);
    }
    for idx in pick_distinct(rng, &porn_ids, ((168.0 * scale).round() as usize).max(1)) {
        if !sites[idx].blocked_in.contains(&Country::India) {
            sites[idx].blocked_in.push(Country::India);
        }
    }

    // -- OpenWPM crawl failures: 6,843 → 6,346 (≈7 %). --
    for &idx in &porn_ids {
        if rng.random_bool(0.073) {
            sites[idx].openwpm_timeout = true;
        }
    }

    // -- Privacy policies are assigned in world assembly (they need the
    //    policy generator); here we only mark which sites will carry one. --
}

fn cloud_host(rng: &mut StdRng) -> (String, String) {
    const PROVIDERS: &[&str] = &["cloudfront.net", "akamaihd.net", "fastly.net"];
    let provider = PROVIDERS[rng.random_range(0..PROVIDERS.len())];
    let label: String = (0..8)
        .map(|_| char::from(b'a' + rng.random_range(0..26u8)))
        .collect();
    (format!("d{label}"), provider.to_string())
}

fn push_unique(deps: &mut Vec<Deployment>, svc: ServiceId, rng: &mut StdRng) {
    if !deps.iter().any(|d| d.service == svc) {
        deps.push(Deployment {
            service: svc,
            variant: rng.random::<u32>(),
            fp_scripts: 0,
        });
    }
}

fn pick_distinct(rng: &mut StdRng, pool: &[usize], k: usize) -> Vec<usize> {
    if pool.is_empty() {
        return Vec::new();
    }
    let k = k.min(pool.len());
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    let mut guard = 0;
    while chosen.len() < k && guard < k * 30 {
        guard += 1;
        let cand = pool[rng.random_range(0..pool.len())];
        if !chosen.contains(&cand) {
            chosen.push(cand);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn population(seed: u64) -> SitePopulation {
        let config = WorldConfig::small(seed);
        let cat = catalog::build(&config);
        generate(&config, &cat)
    }

    #[test]
    fn corpus_sizes_match_config() {
        let config = WorldConfig::small(3);
        let pop = population(3);
        let porn = pop.sites.iter().filter(|s| s.is_porn()).count();
        let fp = pop
            .sites
            .iter()
            .filter(|s| matches!(s.kind, SiteKind::FalsePositive(_)))
            .count();
        let regular = pop
            .sites
            .iter()
            .filter(|s| matches!(s.kind, SiteKind::Regular))
            .count();
        assert_eq!(porn, config.sanitized_count());
        assert_eq!(fp, config.n_false_positives);
        assert_eq!(regular, config.n_regular);
    }

    #[test]
    fn deterministic_generation() {
        let a = population(9);
        let b = population(9);
        assert_eq!(a.sites.len(), b.sites.len());
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.deployments.len(), y.deployments.len());
        }
    }

    #[test]
    fn source_accounting_is_consistent() {
        let config = WorldConfig::small(7);
        let pop = population(7);
        // Every porn site is reachable through at least one §3 source.
        for s in pop.sites.iter().filter(|s| s.is_porn()) {
            assert!(
                s.has_keyword() || s.in_directory || s.in_alexa_adult,
                "{} unreachable by any corpus source",
                s.domain
            );
        }
        // False positives all carry keywords (that is why they were caught).
        for s in pop
            .sites
            .iter()
            .filter(|s| matches!(s.kind, SiteKind::FalsePositive(_)))
        {
            assert!(s.has_keyword(), "{}", s.domain);
        }
        // Regular sites never match the keyword bag.
        for s in pop
            .sites
            .iter()
            .filter(|s| matches!(s.kind, SiteKind::Regular))
        {
            assert!(!s.has_keyword(), "{}", s.domain);
        }
        let _ = config;
    }

    #[test]
    fn flagships_present_with_ranks() {
        let pop = population(1);
        let ph = pop
            .sites
            .iter()
            .find(|s| s.domain == "pornhub.com")
            .unwrap();
        assert!(ph.flagship);
        assert!(ph.is_porn());
        assert!(ph.history.best().unwrap() < 1_000);
        assert_eq!(ph.age_gate.russia, Some(AgeGateKind::SocialLogin));
        assert_eq!(
            ph.age_gate.in_country(Country::Spain),
            Some(AgeGateKind::SimpleButton)
        );
    }

    #[test]
    fn tier_distribution_shape() {
        let pop = population(5);
        let porn: Vec<&Site> = pop.sites.iter().filter(|s| s.is_porn()).collect();
        let frac = |t: PopularityTier| {
            porn.iter().filter(|s| s.tier == t).count() as f64 / porn.len() as f64
        };
        assert!(frac(PopularityTier::To100k) > 0.3, "mid tier dominates");
        assert!(frac(PopularityTier::Beyond100k) > 0.15);
        assert!(frac(PopularityTier::Top1k) < 0.12);
    }

    #[test]
    fn https_correlates_with_popularity() {
        let pop = population(11);
        let porn: Vec<&Site> = pop.sites.iter().filter(|s| s.is_porn()).collect();
        let rate = |t: PopularityTier| {
            let tier: Vec<_> = porn.iter().filter(|s| s.tier == t).collect();
            if tier.is_empty() {
                return 1.0;
            }
            tier.iter().filter(|s| s.https).count() as f64 / tier.len() as f64
        };
        assert!(rate(PopularityTier::Top1k) > rate(PopularityTier::Beyond100k));
    }

    #[test]
    fn keyword_bag_matches_paper() {
        assert!(domain_has_keyword("hotporn12.com"));
        assert!(domain_has_keyword("maturefunds1.com"));
        assert!(domain_has_keyword("innertube7.net"));
        assert!(!domain_has_keyword("dailytimes4.com"));
    }

    #[test]
    fn exo_bundle_lands_near_43_percent() {
        let pop = population(13);
        let cat = catalog::build(&WorldConfig::small(13));
        let exosrv = cat.services.by_fqdn("exosrv.com").unwrap().id;
        let exoclick = cat.services.by_fqdn("exoclick.com").unwrap().id;
        let porn: Vec<&Site> = pop.sites.iter().filter(|s| s.is_porn()).collect();
        let with_exo = porn
            .iter()
            .filter(|s| {
                s.deployments
                    .iter()
                    .any(|d| d.service == exosrv || d.service == exoclick)
            })
            .count();
        let frac = with_exo as f64 / porn.len() as f64;
        assert!((0.3..0.55).contains(&frac), "exo union = {frac}");
    }

    #[test]
    fn banners_are_rare_and_typed() {
        let pop = population(17);
        let porn: Vec<&Site> = pop.sites.iter().filter(|s| s.is_porn()).collect();
        let with_banner = porn.iter().filter(|s| s.banner.is_some()).count();
        let frac = with_banner as f64 / porn.len() as f64;
        assert!((0.01..0.10).contains(&frac), "banner rate {frac}");
    }

    #[test]
    fn minimalist_sites_exist_and_carry_no_trackers() {
        let pop = population(29);
        let porn: Vec<&Site> = pop.sites.iter().filter(|s| s.is_porn()).collect();
        let minimal = porn.iter().filter(|s| s.minimal).count();
        let frac = minimal as f64 / porn.len() as f64;
        assert!((0.03..0.16).contains(&frac), "minimal share {frac}");
        for s in porn.iter().filter(|s| s.minimal) {
            assert!(
                s.deployments.is_empty(),
                "{} must stay tracker-free",
                s.domain
            );
        }
    }

    #[test]
    fn unresponsive_sites_have_no_deployments() {
        let pop = population(19);
        for s in pop.sites.iter().filter(|s| s.unresponsive) {
            assert!(s.deployments.is_empty(), "{}", s.domain);
        }
    }
}
