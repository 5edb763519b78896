//! World assembly: ties the catalog, site population, policies, DNS/WHOIS,
//! certificates, filter lists and the host index together.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use rand::prelude::*;
use redlight_blocklist::EntityList;
use redlight_net::dns::{DnsDb, ZoneRecord};
use redlight_net::geoip::Country;
use redlight_net::psl;
use redlight_net::tls::Certificate;
use redlight_net::transport::fnv1a;
use redlight_net::whois::{Registrant, WhoisDb, WhoisRecord};
use redlight_rankings::category::{Category, CategoryService};
use redlight_text::lang::Language;

use crate::catalog::{self, Catalog};
use crate::config::WorldConfig;
use crate::content::mix;
use crate::lists;
use crate::org::{OrgId, OrgKind, OrgRegistry, PUBLISHERS};
use crate::policygen::{PolicyDisclosures, PolicySpec, PolicyTemplate};
use crate::service::{ServiceId, ServiceRegistry};
use crate::sitegen::{self, Site, SiteKind, PUBLISHER_TAG};
use crate::threat::ScannerEnsemble;

/// What a hostname resolves to inside the simulated web.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostEntity {
    /// A website's apex domain (index into the site table).
    Site(u32),
    /// A site's sharded CDN host (`img100-589.xvideos.com`).
    SiteCdn(u32),
    /// A third-party service FQDN.
    Service(ServiceId),
    /// A site-specific third-party cloud host (`d8fk2.cloudfront.net`).
    CloudHost(u32),
    /// A porn-directory aggregator (§3 source 1).
    Directory(u32),
}

/// The fully assembled synthetic web.
pub struct World {
    /// Config.
    pub config: WorldConfig,
    /// Orgs.
    pub orgs: OrgRegistry,
    /// Services.
    pub services: ServiceRegistry,
    /// Sites.
    pub sites: Vec<Site>,
    /// Directory domains.
    pub directory_domains: Vec<String>,
    /// Category service.
    pub category_service: CategoryService,
    /// Whois.
    pub whois: WhoisDb,
    /// Dns.
    pub dns: DnsDb,
    /// Synthetic EasyList text (the Jan-2019 snapshot stand-in).
    pub easylist: String,
    /// Synthetic EasyPrivacy text.
    pub easyprivacy: String,
    /// Disconnect-style entity list.
    pub disconnect: EntityList,
    /// Scanners.
    pub scanners: ScannerEnsemble,
    /// Publisher org ids, parallel to [`PUBLISHERS`].
    pub publisher_orgs: Vec<OrgId>,
    host_index: HashMap<String, HostEntity>,
}

impl World {
    /// Builds the world for `config` (deterministic in `config.seed`).
    pub fn build(config: WorldConfig) -> World {
        let catalog = catalog::build(&config);
        let pop = sitegen::generate(&config, &catalog);
        // The filter lists and the entity list describe the catalog alone:
        // the publisher orgs registered below never enter them.
        let easylist = lists::easylist(&catalog);
        let easyprivacy = lists::easyprivacy(&catalog);
        let disconnect = lists::disconnect(&catalog);
        let Catalog {
            orgs: mut org_registry,
            services,
            ..
        } = catalog;
        let mut sites = pop.sites;
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0A55_E55E);

        // Register publisher organizations and remap tagged owner ids.
        let publisher_orgs: Vec<OrgId> = PUBLISHERS
            .iter()
            .map(|p| org_registry.register(p.name, OrgKind::PornPublisher, true))
            .collect();
        for site in &mut sites {
            if let Some(OrgId(tagged)) = site.owner {
                if tagged & PUBLISHER_TAG != 0 {
                    site.owner = Some(publisher_orgs[(tagged & !PUBLISHER_TAG) as usize]);
                }
            }
        }

        assign_policies(&config, &mut sites, &services, &mut rng);

        // Alexa-style category service: Adult entries + a few mainstream.
        let mut category_service = CategoryService::new();
        for site in &sites {
            if site.in_alexa_adult {
                category_service.register(&site.domain, Category::Adult);
            }
        }
        for site in sites
            .iter()
            .filter(|s| matches!(s.kind, SiteKind::Regular))
            .take(40)
        {
            category_service.register(&site.domain, Category::News);
        }

        // WHOIS: owners are rarely visible (§4.1: 96 % unattributable).
        let mut whois = WhoisDb::new();
        for site in &sites {
            let registrant = match site.owner {
                Some(org) if rng.random_bool(0.30) => {
                    Registrant::Organization(org_registry.get(org).name.clone())
                }
                Some(_) => Registrant::Redacted,
                None => match site.kind {
                    SiteKind::Regular if rng.random_bool(0.6) => Registrant::Organization(format!(
                        "{} Media Group",
                        title_word(&site.domain)
                    )),
                    _ if rng.random_bool(0.02) => {
                        Registrant::AddressOnly("PO Box 311, Limassol, Cyprus".to_string())
                    }
                    _ => Registrant::Redacted,
                },
            };
            whois.insert(WhoisRecord {
                domain: psl::registrable_domain(&site.domain).to_string(),
                registrant,
                registrar: "Example Registrar Inc.".to_string(),
                created_year: 2004 + (mix(site.id.0 as u64, 11) % 14) as u16,
            });
        }

        // DNS: shared nameservers inside publisher clusters.
        let mut dns = DnsDb::new();
        for site in &sites {
            let ns = match site.owner {
                Some(org) => {
                    let slug: String = org_registry
                        .get(org)
                        .name
                        .to_ascii_lowercase()
                        .chars()
                        .filter(|c| c.is_ascii_alphanumeric())
                        .collect();
                    vec![
                        format!("ns1.{slug}-infra.net"),
                        format!("ns2.{slug}-infra.net"),
                    ]
                }
                None => vec![format!(
                    "ns{}.parked-dns.net",
                    mix(site.id.0 as u64, 3) % 50
                )],
            };
            dns.insert(
                &site.domain,
                ZoneRecord {
                    address: ip_for(site.id.0),
                    nameservers: ns,
                    cname: None,
                },
            );
        }

        // Host index.
        let mut host_index = HashMap::new();
        for site in &sites {
            host_index.insert(site.domain.clone(), HostEntity::Site(site.id.0));
            if let Some(label) = &site.cdn_label {
                if site.country_cdn {
                    for c in Country::ALL {
                        host_index.insert(
                            format!("{label}-{}.{}", c.code().to_lowercase(), site.domain),
                            HostEntity::SiteCdn(site.id.0),
                        );
                    }
                } else {
                    host_index.insert(
                        format!("{label}.{}", site.domain),
                        HostEntity::SiteCdn(site.id.0),
                    );
                }
            }
            for (label, provider) in &site.cloud_hosts {
                host_index.insert(
                    format!("{label}.{provider}"),
                    HostEntity::CloudHost(site.id.0),
                );
            }
        }
        for svc in services.iter() {
            for fqdn in svc.all_fqdns() {
                host_index.insert(fqdn.to_string(), HostEntity::Service(svc.id));
            }
        }
        for (i, d) in pop.directory_domains.iter().enumerate() {
            host_index.insert(d.clone(), HostEntity::Directory(i as u32));
        }

        World {
            scanners: ScannerEnsemble::new(config.seed),
            config,
            orgs: org_registry,
            services,
            sites,
            directory_domains: pop.directory_domains,
            category_service,
            whois,
            dns,
            easylist,
            easyprivacy,
            disconnect,
            publisher_orgs,
            host_index,
        }
    }

    /// Resolves a hostname to its entity (exact match, then the site-CDN
    /// wildcard fallback for generated subdomains of known sites).
    pub fn resolve_host(&self, host: &str) -> Option<HostEntity> {
        if let Some(e) = self.host_index.get(host) {
            return Some(*e);
        }
        // Subdomain of a known site ⇒ that site's CDN space.
        let reg = psl::registrable_domain(host);
        if reg != host {
            if let Some(HostEntity::Site(id)) = self.host_index.get(reg) {
                return Some(HostEntity::SiteCdn(*id));
            }
        }
        None
    }

    /// Site lookup by apex domain.
    pub fn site_by_domain(&self, domain: &str) -> Option<&Site> {
        match self.host_index.get(domain) {
            Some(HostEntity::Site(id)) => Some(&self.sites[*id as usize]),
            _ => None,
        }
    }

    /// Owner company name of a site, when attributed.
    pub fn owner_name(&self, site: &Site) -> Option<&str> {
        site.owner.map(|o| self.orgs.get(o).name.as_str())
    }

    /// The leaf certificate a host presents over HTTPS.
    pub fn cert_for_host(&self, host: &str) -> Certificate {
        match self.resolve_host(host) {
            Some(HostEntity::Service(id)) => {
                let svc = self.services.get(id);
                Certificate::leaf(
                    &svc.fqdn,
                    svc.cert_org.as_deref(),
                    svc.all_fqdns()
                        .flat_map(|f| [f.to_string(), format!("*.{f}")])
                        .collect(),
                    mix(fnv1a(svc.fqdn.as_bytes()), 0xCE47),
                )
            }
            Some(HostEntity::Site(id)) | Some(HostEntity::SiteCdn(id)) => {
                let site = &self.sites[id as usize];
                // A quarter of owned sites carry OV certificates naming the
                // company (one of the §4.1 attribution signals).
                let org = site.owner.and_then(|o| {
                    if mix(site.id.0 as u64, 0x0F).is_multiple_of(4) {
                        Some(self.orgs.get(o).name.clone())
                    } else {
                        None
                    }
                });
                Certificate::leaf(
                    &site.domain,
                    org.as_deref(),
                    vec![site.domain.clone(), format!("*.{}", site.domain)],
                    mix(fnv1a(site.domain.as_bytes()), 0xCE47),
                )
            }
            Some(HostEntity::CloudHost(_)) => {
                let reg = psl::registrable_domain(host).to_string();
                let org = match reg.as_str() {
                    "cloudfront.net" => Some("Amazon Inc."),
                    "akamaihd.net" => Some("Akamai Technologies"),
                    "fastly.net" => Some("Fastly, Inc."),
                    "jscdn.net" => Some("Open JS Foundation CDN"),
                    _ => None,
                };
                Certificate::leaf(
                    &format!("*.{reg}"),
                    org,
                    vec![reg.clone()],
                    mix(fnv1a(reg.as_bytes()), 3),
                )
            }
            Some(HostEntity::Directory(_)) | None => Certificate::leaf(
                host,
                None,
                vec![host.to_string()],
                mix(fnv1a(host.as_bytes()), 9),
            ),
        }
    }

    /// Ground truth: is this domain's operator malicious? (threat-intel
    /// input — the ensemble still decides the verdict).
    pub fn truly_malicious(&self, host: &str) -> bool {
        match self.resolve_host(host) {
            Some(HostEntity::Service(id)) => self.services.get(id).malicious,
            Some(HostEntity::Site(id)) | Some(HostEntity::SiteCdn(id)) => {
                self.sites[id as usize].malicious
            }
            _ => false,
        }
    }

    /// Domains that ever appeared in the simulated top-1M during 2018 (the
    /// longitudinal Alexa dataset of §3), with their best rank.
    pub fn toplist_domains(&self) -> Vec<(&str, u32)> {
        self.sites
            .iter()
            .filter_map(|s| s.history.best().map(|b| (s.domain.as_str(), b)))
            .collect()
    }

    /// The full longitudinal rank dataset: per-domain daily histories for
    /// 2018. This mirrors the paper's public Alexa top-1M snapshots — it is
    /// *published measurement data*, not simulator ground truth, so the
    /// popularity analyses may consume it directly.
    pub fn rank_histories(
        &self,
    ) -> std::collections::BTreeMap<String, redlight_rankings::RankHistory> {
        self.sites
            .iter()
            .map(|s| (s.domain.clone(), s.history.clone()))
            .collect()
    }

    /// The country hosting `host`'s servers, as a geo-IP database would
    /// report it — the observable input to the cross-border analysis
    /// (§10 future work / Iordanou et al.). Hosting concentrates in the US
    /// with a European and regional tail; deterministic per host.
    pub fn hosting_country(&self, host: &str) -> Country {
        let reg = psl::registrable_domain(host);
        match mix(fnv1a(reg.as_bytes()), self.config.seed ^ 0x6E0) % 100 {
            0..=54 => Country::Usa,
            55..=74 => Country::Spain, // EU data centers
            75..=84 => Country::Uk,
            85..=90 => Country::Russia,
            91..=95 => Country::India,
            _ => Country::Singapore,
        }
    }

    /// The landing-page URL for a site (HTTPS when supported).
    pub fn landing_url(&self, site: &Site) -> String {
        let scheme = if site.https { "https" } else { "http" };
        format!("{scheme}://{}/", site.domain)
    }
}

fn ip_for(site_id: u32) -> Ipv4Addr {
    Ipv4Addr::new(
        10,
        (site_id >> 16) as u8,
        (site_id >> 8) as u8,
        site_id as u8,
    )
}

fn title_word(domain: &str) -> String {
    let stem = domain.split('.').next().unwrap_or(domain);
    let mut c = stem.chars();
    match c.next() {
        Some(first) => first.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

/// Assigns privacy policies (§7.3 calibration).
fn assign_policies(
    config: &WorldConfig,
    sites: &mut [Site],
    services: &ServiceRegistry,
    rng: &mut StdRng,
) {
    let scale = config.sanitized_count() as f64 / 6_843.0;
    // Target: 16 % of the porn corpus carries a policy; every owned site
    // does; the remainder is spread over unowned sites.
    let porn_total = sites.iter().filter(|s| s.is_porn()).count();
    let owned_total = sites
        .iter()
        .filter(|s| s.is_porn() && s.owner.is_some())
        .count();
    // Compliance follows popularity (§7.3/§7.1: "only the companies behind
    // some of the most popular pornographic websites seem to make efforts"):
    // the unowned-policy probability is tier-weighted and normalized so the
    // corpus-wide rate lands at 16 %.
    let target = (0.16 * porn_total as f64).round() as usize;
    let tier_weight = |tier: redlight_rankings::PopularityTier| match tier {
        redlight_rankings::PopularityTier::Top1k => 10.0,
        redlight_rankings::PopularityTier::To10k => 4.5,
        redlight_rankings::PopularityTier::To100k => 1.0,
        redlight_rankings::PopularityTier::Beyond100k => 0.45,
    };
    let weight_mass: f64 = sites
        .iter()
        .filter(|s| s.is_porn() && s.owner.is_none())
        .map(|s| tier_weight(s.tier))
        .sum();
    let unowned_base = (target.saturating_sub(owned_total)) as f64 / weight_mass.max(1.0);

    let mut unique_counter: u32 = 0;
    let n_broken_target = ((44.0 * scale).round() as usize).max(1);
    let mut broken_left = n_broken_target;

    for site in sites.iter_mut() {
        let spec = match (site.kind, site.owner) {
            (SiteKind::Porn, Some(OrgId(_))) => {
                Some(PolicyTemplate::Company(publisher_index_of(site)))
            }
            (SiteKind::Porn, None) => {
                let rate = unowned_base * tier_weight(site.tier);
                if rng.random_bool(rate.clamp(0.0, 1.0)) {
                    if rng.random_bool(0.60) {
                        Some(PolicyTemplate::Generic(rng.random_range(0..12u8)))
                    } else {
                        unique_counter += 1;
                        Some(PolicyTemplate::Unique(unique_counter))
                    }
                } else {
                    None
                }
            }
            (SiteKind::Regular, _) => {
                if rng.random_bool(0.70) {
                    unique_counter += 1;
                    Some(if rng.random_bool(0.5) {
                        PolicyTemplate::Generic(rng.random_range(0..12u8))
                    } else {
                        PolicyTemplate::Unique(unique_counter)
                    })
                } else {
                    None
                }
            }
            _ => None,
        };
        let Some(template) = spec else { continue };

        // Policies are overwhelmingly English, even on localized sites —
        // the ~20 % localized remainder is what keeps the §7.3 pairwise
        // similarity near 76 % rather than 100 %.
        let language = if rng.random_bool(0.86) {
            Language::English
        } else if site.language != Language::English {
            site.language
        } else {
            // Localized policy on an English site: pick a non-English
            // language so the §7.3 cross-language dissimilar quartile exists
            // at every scale.
            Language::ALL[1 + (rng.random_range(0..7u8) as usize)]
        };
        let broken = site.is_porn() && broken_left > 0 && rng.random_bool(0.012);
        if broken {
            broken_left -= 1;
        }
        // Log-normal letter counts: mean ≈ 17k, clamped to the paper span.
        let z = {
            let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let letters = (9.35 + 0.75 * z).exp().clamp(1_088.0, 243_649.0) as u32;

        site.policy = Some(PolicySpec {
            template,
            language,
            mentions_gdpr: rng.random_bool(0.20),
            target_letters: letters,
            disclosures: PolicyDisclosures {
                cookies: rng.random_bool(0.75),
                data_types: rng.random_bool(0.70),
                third_parties: rng.random_bool(0.65),
                full_third_party_list: false,
            },
            path: crate::policygen::policy_path(language).to_string(),
            broken,
        });
    }

    // Exactly one policy discloses its complete third-party list (§7.3):
    // give it to the porn site with the most deployments that has a policy.
    let _ = services;
    if let Some(best) = sites
        .iter_mut()
        .filter(|s| s.is_porn() && s.policy.is_some())
        .max_by_key(|s| s.deployments.len())
    {
        if let Some(p) = &mut best.policy {
            p.disclosures.third_parties = true;
            p.disclosures.full_third_party_list = true;
        }
    }
}

/// Publisher index for an owned site (derived from the flagship table by
/// matching the resolved org later; during assignment the owner org id is
/// already a real id whose registration order mirrors PUBLISHERS).
fn publisher_index_of(site: &Site) -> u32 {
    // Owner org ids for publishers are assigned in PUBLISHERS order starting
    // at some base; the company template index only needs to distinguish
    // companies, so the org id itself serves as a stable index.
    site.owner.map(|o| o.0).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::build(WorldConfig::tiny(42))
    }

    #[test]
    fn build_is_deterministic() {
        let a = World::build(WorldConfig::tiny(4));
        let b = World::build(WorldConfig::tiny(4));
        assert_eq!(a.sites.len(), b.sites.len());
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.policy.is_some(), y.policy.is_some());
        }
        assert_eq!(a.easylist, b.easylist);
    }

    #[test]
    fn host_resolution_covers_everything() {
        let w = world();
        let site = &w.sites[0];
        assert_eq!(
            w.resolve_host(&site.domain),
            Some(HostEntity::Site(site.id.0))
        );
        assert!(matches!(
            w.resolve_host("exoclick.com"),
            Some(HostEntity::Service(_))
        ));
        assert_eq!(w.resolve_host("never-generated.example"), None);
        // Generated subdomains of known sites fall back to SiteCdn.
        let sub = format!("whatever.{}", site.domain);
        assert_eq!(w.resolve_host(&sub), Some(HostEntity::SiteCdn(site.id.0)));
    }

    #[test]
    fn owned_sites_resolve_owner_names() {
        let w = world();
        let ph = w.site_by_domain("pornhub.com").unwrap();
        assert_eq!(w.owner_name(ph), Some("MindGeek"));
    }

    #[test]
    fn policy_rate_is_near_16_percent() {
        let w = World::build(WorldConfig::small(9));
        let porn: Vec<&Site> = w.sites.iter().filter(|s| s.is_porn()).collect();
        let with_policy = porn.iter().filter(|s| s.policy.is_some()).count();
        let rate = with_policy as f64 / porn.len() as f64;
        assert!((0.10..0.24).contains(&rate), "policy rate {rate}");
        // Every owned site has one.
        assert!(porn
            .iter()
            .filter(|s| s.owner.is_some())
            .all(|s| s.policy.is_some()));
    }

    #[test]
    fn exactly_one_full_disclosure_policy() {
        let w = World::build(WorldConfig::small(9));
        let full = w
            .sites
            .iter()
            .filter(|s| {
                s.policy
                    .as_ref()
                    .is_some_and(|p| p.disclosures.full_third_party_list)
            })
            .count();
        assert_eq!(full, 1);
    }

    #[test]
    fn certificates_cover_their_hosts() {
        let w = world();
        let cert = w.cert_for_host("exoclick.com");
        assert!(cert.covers("exoclick.com"));
        assert_eq!(cert.attributable_organization(), Some("ExoClick S.L."));
        let site = &w.sites[0];
        let site_cert = w.cert_for_host(&site.domain);
        assert!(site_cert.covers(&site.domain));
        assert!(site_cert.covers(&format!("img.{}", site.domain)));
    }

    #[test]
    fn adult_category_lists_alexa_adult_sites() {
        let w = world();
        let adult = w.category_service.domains_in(Category::Adult);
        assert_eq!(adult.len(), w.config.n_alexa_adult_porn);
        for d in adult {
            assert!(w.site_by_domain(d).unwrap().in_alexa_adult);
        }
    }

    #[test]
    fn scanner_flags_malicious_service_domains() {
        let w = world();
        assert!(w.truly_malicious("coinhive.com"));
        assert!(w.scanners.is_flagged("coinhive.com", true));
        assert!(!w.truly_malicious("google-analytics.com"));
    }
}
