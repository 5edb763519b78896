//! WHOIS registration records.
//!
//! The paper reports that reliable organization-level information could not
//! be found for 96 % of pornographic websites — mostly because WHOIS records
//! are privacy-protected. The model captures exactly that: a registrant that
//! is either a real organization or a redaction placeholder.

/// The registrant identity exposed by a WHOIS lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Registrant {
    /// A usable organization name.
    Organization(String),
    /// Privacy-proxy redaction ("REDACTED FOR PRIVACY", WhoisGuard, …).
    Redacted,
    /// Only a postal address, no company name (the paper observes this on
    /// many sites' imprint pages too).
    AddressOnly(String),
}

/// A WHOIS record for a registrable domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhoisRecord {
    /// Domain.
    pub domain: String,
    /// Registrant.
    pub registrant: Registrant,
    /// Registrar.
    pub registrar: String,
    /// Registration year (coarse; enough for longitudinal reasoning).
    pub created_year: u16,
}

impl WhoisRecord {
    /// The organization name when the record is usable for attribution.
    pub fn organization(&self) -> Option<&str> {
        match &self.registrant {
            Registrant::Organization(o) => Some(o),
            _ => None,
        }
    }
}

/// An in-memory WHOIS database.
#[derive(Debug, Clone, Default)]
pub struct WhoisDb {
    records: std::collections::HashMap<String, WhoisRecord>,
}

impl WhoisDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a record, keyed by lowercase domain.
    pub fn insert(&mut self, record: WhoisRecord) {
        self.records
            .insert(record.domain.to_ascii_lowercase(), record);
    }

    /// Looks up the record for `domain`.
    pub fn lookup(&self, domain: &str) -> Option<&WhoisRecord> {
        self.records.get(&domain.to_ascii_lowercase())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn organization_extraction() {
        let rec = WhoisRecord {
            domain: "evilangel.com".into(),
            registrant: Registrant::Organization("Gamma Entertainment".into()),
            registrar: "ExampleRegistrar".into(),
            created_year: 2003,
        };
        assert_eq!(rec.organization(), Some("Gamma Entertainment"));

        let redacted = WhoisRecord {
            domain: "shady.party".into(),
            registrant: Registrant::Redacted,
            registrar: "PrivacyRegistrar".into(),
            created_year: 2017,
        };
        assert_eq!(redacted.organization(), None);

        let addr = WhoisRecord {
            domain: "postal.com".into(),
            registrant: Registrant::AddressOnly("PO Box 1, Limassol".into()),
            registrar: "R".into(),
            created_year: 2010,
        };
        assert_eq!(addr.organization(), None);
    }

    #[test]
    fn db_lookup_is_case_insensitive() {
        let mut db = WhoisDb::new();
        db.insert(WhoisRecord {
            domain: "Pornhub.COM".into(),
            registrant: Registrant::Organization("MindGeek".into()),
            registrar: "R".into(),
            created_year: 2007,
        });
        assert!(db.lookup("pornhub.com").is_some());
        assert!(db.lookup("missing.com").is_none());
    }
}
