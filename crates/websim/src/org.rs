//! Organizations: porn publishers and third-party companies.
//!
//! The publisher registry mirrors the paper's Table 1 (the 15 largest
//! clusters, from Gamma Entertainment's 65 sites down to JM Productions' 5)
//! plus nine smaller attributable companies, for the §4.1 total of 24
//! companies owning 286 websites. Third-party organizations cover the
//! Fig. 3 cast: Alphabet, ExoClick, Cloudflare, Oracle, Yandex, JuicyAds,
//! EroAdvertising, Facebook, Amazon, Acxiom and the adult-industry long tail.

/// Index into the organization table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrgId(pub u32);

/// What an organization does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrgKind {
    /// Owns and operates pornographic websites.
    PornPublisher,
    /// Advertising network / exchange.
    AdNetwork,
    /// Audience analytics.
    Analytics,
    /// Content delivery / cloud infrastructure.
    Cdn,
    /// Social network widgets.
    Social,
    /// Data broker / marketplace.
    DataBroker,
    /// Cryptocurrency mining services.
    Cryptominer,
    /// Anything else (security vendors, misc SaaS).
    Other,
}

/// One organization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Organization {
    /// Id.
    pub id: OrgId,
    /// Name.
    pub name: String,
    /// Kind.
    pub kind: OrgKind,
    /// Whether the org specializes in the adult ecosystem (ExoClick,
    /// JuicyAds, …) as opposed to the regular web (Alphabet, Facebook, …).
    adult_specialized: bool,
}

/// A publisher cluster from Table 1: name, number of owned sites, and the
/// flagship site (domain, best 2018 Alexa rank).
pub struct PublisherSpec {
    /// Name.
    pub name: &'static str,
    /// Sites.
    pub sites: usize,
    /// Flagship domain.
    pub(crate) flagship_domain: &'static str,
    /// Flagship rank.
    pub(crate) flagship_rank: u32,
}

/// Table 1 publishers plus nine smaller attributable companies (§4.1: 24
/// companies, 286 sites in total).
pub(crate) const PUBLISHERS: &[PublisherSpec] = &[
    PublisherSpec {
        name: "Gamma Entertainment",
        sites: 65,
        flagship_domain: "evilangel.com",
        flagship_rank: 5_301,
    },
    PublisherSpec {
        name: "MindGeek",
        sites: 54,
        flagship_domain: "pornhub.com",
        flagship_rank: 22,
    },
    PublisherSpec {
        name: "PaperStreet Media",
        sites: 38,
        flagship_domain: "teamskeet.com",
        flagship_rank: 10_171,
    },
    PublisherSpec {
        name: "Techpump",
        sites: 25,
        flagship_domain: "porn300.com",
        flagship_rank: 2_366,
    },
    PublisherSpec {
        name: "PMG Entertainment",
        sites: 15,
        flagship_domain: "private.com",
        flagship_rank: 7_758,
    },
    PublisherSpec {
        name: "SexMex",
        sites: 12,
        flagship_domain: "sexmex.xxx",
        flagship_rank: 122_227,
    },
    PublisherSpec {
        name: "Docler Holding",
        sites: 10,
        flagship_domain: "livejasmin.com",
        flagship_rank: 36,
    },
    PublisherSpec {
        name: "Mature.nl",
        sites: 9,
        flagship_domain: "mature.nl",
        flagship_rank: 6_577,
    },
    PublisherSpec {
        name: "Liberty Media",
        sites: 7,
        flagship_domain: "corbinfisher.com",
        flagship_rank: 26_436,
    },
    PublisherSpec {
        name: "WGCZ",
        sites: 5,
        flagship_domain: "xvideos.com",
        flagship_rank: 32,
    },
    PublisherSpec {
        name: "AFS Media LTD",
        sites: 5,
        flagship_domain: "theclassicporn.com",
        flagship_rank: 13_939,
    },
    PublisherSpec {
        name: "AEBN",
        sites: 5,
        flagship_domain: "pornotube.com",
        flagship_rank: 31_148,
    },
    PublisherSpec {
        name: "Zero Tolerance",
        sites: 5,
        flagship_domain: "ztod.com",
        flagship_rank: 40_676,
    },
    PublisherSpec {
        name: "Eurocreme",
        sites: 5,
        flagship_domain: "eurocreme.com",
        flagship_rank: 110_012,
    },
    PublisherSpec {
        name: "JM Productions",
        sites: 5,
        flagship_domain: "jerkoffzone.com",
        flagship_rank: 147_753,
    },
    // Nine smaller companies closing the gap to 24 companies / 286 sites.
    PublisherSpec {
        name: "Adult Empire Group",
        sites: 3,
        flagship_domain: "adultempiregroup.com",
        flagship_rank: 61_000,
    },
    PublisherSpec {
        name: "Bang Bros Network",
        sites: 3,
        flagship_domain: "bangnetwork.com",
        flagship_rank: 9_400,
    },
    PublisherSpec {
        name: "Hustler Digital",
        sites: 3,
        flagship_domain: "hustlerdigital.com",
        flagship_rank: 44_000,
    },
    PublisherSpec {
        name: "Vivid Media",
        sites: 2,
        flagship_domain: "vividmedia.com",
        flagship_rank: 52_000,
    },
    PublisherSpec {
        name: "Kink Networks",
        sites: 2,
        flagship_domain: "kinknetworks.com",
        flagship_rank: 18_500,
    },
    PublisherSpec {
        name: "Twistys Group",
        sites: 2,
        flagship_domain: "twistysgroup.com",
        flagship_rank: 71_000,
    },
    PublisherSpec {
        name: "Reality Kings Media",
        sites: 2,
        flagship_domain: "realityworksmedia.com",
        flagship_rank: 12_800,
    },
    PublisherSpec {
        name: "Digital Playground SL",
        sites: 2,
        flagship_domain: "dpplayground.com",
        flagship_rank: 93_000,
    },
    PublisherSpec {
        name: "Naughty America Corp",
        sites: 2,
        flagship_domain: "naughtycorp.com",
        flagship_rank: 23_000,
    },
];

/// The organization registry, built once per world.
#[derive(Debug, Clone, Default)]
pub struct OrgRegistry {
    orgs: Vec<Organization>,
}

impl OrgRegistry {
    /// Empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers an organization and returns its id.
    pub(crate) fn register(&mut self, name: &str, kind: OrgKind, adult_specialized: bool) -> OrgId {
        let id = OrgId(self.orgs.len() as u32);
        self.orgs.push(Organization {
            id,
            name: name.to_string(),
            kind,
            adult_specialized,
        });
        id
    }

    /// Borrows an organization.
    pub fn get(&self, id: OrgId) -> &Organization {
        &self.orgs[id.0 as usize]
    }

    /// Finds an organization by exact name.
    pub(crate) fn by_name(&self, name: &str) -> Option<&Organization> {
        self.orgs.iter().find(|o| o.name == name)
    }

    /// All organizations.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Organization> {
        self.orgs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publisher_table_matches_section_4_1() {
        assert_eq!(PUBLISHERS.len(), 24, "24 attributable companies");
        let total_sites: usize = PUBLISHERS.iter().map(|p| p.sites).sum();
        assert_eq!(total_sites, 286, "286 attributable sites");
        // Table 1 ordering: non-increasing cluster size for the 15 largest.
        for w in PUBLISHERS[..15].windows(2) {
            assert!(w[0].sites >= w[1].sites);
        }
        assert_eq!(PUBLISHERS[1].flagship_domain, "pornhub.com");
        assert_eq!(PUBLISHERS[1].flagship_rank, 22);
    }

    #[test]
    fn registry_roundtrip() {
        let mut reg = OrgRegistry::new();
        let a = reg.register("ExoClick", OrgKind::AdNetwork, true);
        let b = reg.register("Alphabet", OrgKind::AdNetwork, false);
        assert_ne!(a, b);
        assert_eq!(reg.get(a).name, "ExoClick");
        assert!(reg.get(a).adult_specialized);
        assert_eq!(reg.by_name("Alphabet").unwrap().id, b);
        assert_eq!(reg.by_name("Missing"), None);
        assert_eq!(reg.iter().count(), 2);
    }
}
