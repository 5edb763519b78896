//! Countries, vantage points and a geo-IP table.
//!
//! The study crawls from a physical vantage point in Spain plus VPN exits in
//! other EU states, the USA, the UK, Russia, India and Singapore (§3.1).
//! Trackers on the server side use geo-IP databases to embed approximate
//! coordinates in cookies (§5.1.1); [`GeoIpDb`] plays that role.

use std::net::Ipv4Addr;

/// Countries the study measures from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Country {
    /// United States vantage point.
    Usa,
    /// United Kingdom.
    Uk,
    /// Spain (the physical vantage point).
    Spain,
    /// Russia.
    Russia,
    /// India.
    India,
    /// Singapore.
    Singapore,
}

impl Country {
    /// All six vantage-point countries, in the paper's Table 7 order.
    pub const ALL: [Country; 6] = [
        Country::Usa,
        Country::Uk,
        Country::Spain,
        Country::Russia,
        Country::India,
        Country::Singapore,
    ];

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Country::Usa => "USA",
            Country::Uk => "UK",
            Country::Spain => "Spain",
            Country::Russia => "Russia",
            Country::India => "India",
            Country::Singapore => "Singapore",
        }
    }

    /// ISO 3166-1 alpha-2 code.
    pub fn code(self) -> &'static str {
        match self {
            Country::Usa => "US",
            Country::Uk => "GB",
            Country::Spain => "ES",
            Country::Russia => "RU",
            Country::India => "IN",
            Country::Singapore => "SG",
        }
    }

    /// Whether the GDPR applies to visitors from this country (EU member —
    /// Spain — or the UK, which transposed it in 2018).
    pub fn gdpr_applies(self) -> bool {
        matches!(self, Country::Spain | Country::Uk)
    }
}

/// How the crawler reaches a country: the physical machine or a commercial
/// VPN exit (the study used NordVPN and PrivateVPN).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessMethod {
    /// The physical vantage point (Spain in the paper).
    Physical,
    /// A commercial VPN exit node, with the provider name.
    Vpn(String),
}

/// A crawl vantage point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VantagePoint {
    /// Country.
    pub country: Country,
    /// Access.
    pub access: AccessMethod,
    /// The public IPv4 address servers see.
    pub client_ip: Ipv4Addr,
}

impl VantagePoint {
    /// The study's six vantage points: physical Spain + five VPN exits.
    pub fn study_default() -> Vec<VantagePoint> {
        Country::ALL
            .into_iter()
            .map(|country| {
                let access = if country == Country::Spain {
                    AccessMethod::Physical
                } else if matches!(country, Country::Usa | Country::Uk) {
                    AccessMethod::Vpn("NordVPN".to_string())
                } else {
                    AccessMethod::Vpn("PrivateVPN".to_string())
                };
                VantagePoint {
                    country,
                    access,
                    client_ip: default_ip(country),
                }
            })
            .collect()
    }
}

/// Documentation-range IPs, one per country.
fn default_ip(country: Country) -> Ipv4Addr {
    match country {
        Country::Usa => Ipv4Addr::new(198, 51, 100, 10),
        Country::Uk => Ipv4Addr::new(198, 51, 100, 20),
        Country::Spain => Ipv4Addr::new(203, 0, 113, 77),
        Country::Russia => Ipv4Addr::new(198, 51, 100, 40),
        Country::India => Ipv4Addr::new(198, 51, 100, 50),
        Country::Singapore => Ipv4Addr::new(198, 51, 100, 60),
    }
}

/// Approximate coordinates + network metadata a geo-IP database returns.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoInfo {
    /// Latitude.
    pub latitude: f64,
    /// Longitude.
    pub longitude: f64,
    /// Country.
    pub country: Country,
    /// The access-network provider name, when the database knows it.
    pub isp: Option<String>,
}

/// A geo-IP lookup table (MaxMind stand-in).
#[derive(Debug, Clone, Default)]
pub struct GeoIpDb {
    entries: Vec<(Ipv4Addr, GeoInfo)>,
}

impl GeoIpDb {
    /// A database pre-loaded with the study's vantage-point IPs.
    pub fn study_default() -> Self {
        let mut db = GeoIpDb::default();
        for vp in VantagePoint::study_default() {
            db.insert(vp.client_ip, geo_for(vp.country));
        }
        db
    }

    /// Inserts a mapping.
    pub(crate) fn insert(&mut self, ip: Ipv4Addr, info: GeoInfo) {
        self.entries.retain(|(a, _)| *a != ip);
        self.entries.push((ip, info));
    }

    /// Exact-IP lookup.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<&GeoInfo> {
        self.entries.iter().find(|(a, _)| *a == ip).map(|(_, g)| g)
    }
}

/// Capital-city coordinates per country (coarse, as geo-IP is).
fn geo_for(country: Country) -> GeoInfo {
    let (latitude, longitude) = match country {
        Country::Usa => (38.9, -77.0),
        Country::Uk => (51.5, -0.1),
        Country::Spain => (40.4, -3.7),
        Country::Russia => (55.7, 37.6),
        Country::India => (28.6, 77.2),
        Country::Singapore => (1.35, 103.8),
    };
    GeoInfo {
        latitude,
        longitude,
        country,
        isp: Some("Example Networks".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_vantage_points_with_spain_physical() {
        let vps = VantagePoint::study_default();
        assert_eq!(vps.len(), 6);
        let spain = vps.iter().find(|v| v.country == Country::Spain).unwrap();
        assert_eq!(spain.access, AccessMethod::Physical);
        let others = vps.iter().filter(|v| v.country != Country::Spain);
        for vp in others {
            assert!(matches!(vp.access, AccessMethod::Vpn(_)));
        }
    }

    #[test]
    fn country_metadata() {
        assert_eq!(Country::Spain.code(), "ES");
        assert!(Country::Spain.gdpr_applies());
        assert!(Country::Uk.gdpr_applies());
        assert!(!Country::Usa.gdpr_applies());
        assert_eq!(Country::ALL.len(), 6);
    }

    #[test]
    fn geoip_lookup_finds_vantage_ips() {
        let db = GeoIpDb::study_default();
        let vp = &VantagePoint::study_default()[0];
        let info = db.lookup(vp.client_ip).unwrap();
        assert_eq!(info.country, vp.country);
        assert!(db.lookup(Ipv4Addr::new(10, 0, 0, 1)).is_none());
    }

    #[test]
    fn geoip_insert_replaces() {
        let mut db = GeoIpDb::default();
        let ip = Ipv4Addr::new(1, 2, 3, 4);
        db.insert(ip, geo_for(Country::Usa));
        db.insert(ip, geo_for(Country::Russia));
        assert_eq!(db.lookup(ip).unwrap().country, Country::Russia);
    }
}
