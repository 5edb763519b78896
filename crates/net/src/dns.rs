//! Minimal DNS model: a zone database mapping FQDNs to addresses and
//! infrastructure metadata.
//!
//! The owner-discovery analysis (§4.1) "leverages DNS, WHOIS and X.509
//! certificate information": shared nameservers across websites are one of
//! the weak signals used to group sites under one operator.

use std::collections::HashMap;
use std::net::Ipv4Addr;

/// One DNS zone entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneRecord {
    /// `A` record.
    pub address: Ipv4Addr,
    /// Authoritative nameservers (`NS`).
    pub nameservers: Vec<String>,
    /// `CNAME` target, when the name is an alias (e.g. a tracker hiding
    /// behind a first-party subdomain).
    pub cname: Option<String>,
}

/// An in-memory DNS database with CNAME chasing.
#[derive(Debug, Clone, Default)]
pub struct DnsDb {
    records: HashMap<String, ZoneRecord>,
}

impl DnsDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a record for `fqdn` (normalized to lowercase).
    pub fn insert(&mut self, fqdn: &str, record: ZoneRecord) {
        self.records.insert(fqdn.to_ascii_lowercase(), record);
    }

    /// Looks up `fqdn`, following at most 8 CNAME hops.
    pub fn resolve(&self, fqdn: &str) -> Option<&ZoneRecord> {
        let mut name = fqdn.to_ascii_lowercase();
        for _ in 0..8 {
            let rec = self.records.get(&name)?;
            match &rec.cname {
                Some(target) => name = target.to_ascii_lowercase(),
                None => return Some(rec),
            }
        }
        None
    }

    /// Nameservers of `fqdn`, empty when unknown.
    pub fn nameservers(&self, fqdn: &str) -> &[String] {
        self.resolve(fqdn)
            .map(|r| r.nameservers.as_slice())
            .unwrap_or(&[])
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ip: [u8; 4], ns: &[&str]) -> ZoneRecord {
        ZoneRecord {
            address: Ipv4Addr::new(ip[0], ip[1], ip[2], ip[3]),
            nameservers: ns.iter().map(|s| s.to_string()).collect(),
            cname: None,
        }
    }

    #[test]
    fn resolves_direct_records() {
        let mut db = DnsDb::new();
        db.insert("pornhub.com", rec([203, 0, 113, 1], &["ns1.mindgeek.com"]));
        let r = db.resolve("PORNHUB.com").unwrap();
        assert_eq!(r.address, Ipv4Addr::new(203, 0, 113, 1));
        assert_eq!(db.nameservers("pornhub.com"), ["ns1.mindgeek.com"]);
    }

    #[test]
    fn chases_cnames() {
        let mut db = DnsDb::new();
        db.insert(
            "metrics.site.com",
            ZoneRecord {
                address: Ipv4Addr::UNSPECIFIED,
                nameservers: vec![],
                cname: Some("collect.tracker.net".into()),
            },
        );
        db.insert(
            "collect.tracker.net",
            rec([198, 51, 100, 7], &["ns.tracker.net"]),
        );
        assert_eq!(
            db.resolve("metrics.site.com").unwrap().address,
            Ipv4Addr::new(198, 51, 100, 7)
        );
    }

    #[test]
    fn cname_loops_terminate() {
        let mut db = DnsDb::new();
        db.insert(
            "a.com",
            ZoneRecord {
                address: Ipv4Addr::UNSPECIFIED,
                nameservers: vec![],
                cname: Some("b.com".into()),
            },
        );
        db.insert(
            "b.com",
            ZoneRecord {
                address: Ipv4Addr::UNSPECIFIED,
                nameservers: vec![],
                cname: Some("a.com".into()),
            },
        );
        assert!(db.resolve("a.com").is_none());
    }

    #[test]
    fn unknown_names_resolve_to_none() {
        let db = DnsDb::new();
        assert!(db.resolve("missing.example").is_none());
        assert!(db.nameservers("missing.example").is_empty());
    }
}
