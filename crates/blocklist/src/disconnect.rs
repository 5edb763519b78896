//! Disconnect-style entity list: domain → owning organization.
//!
//! The study "initially considered using Disconnect's domain-to-company
//! mapping but soon realized that it is incomplete" (§4.2(3)): it resolved
//! only 142 FQDNs in their data, versus 4,477 once complemented with X.509
//! organization information. [`EntityList`] models the list format
//! (organizations owning sets of *properties*, matched by registrable domain
//! or exact FQDN).

use std::collections::HashMap;

use redlight_net::psl;

/// The entity list.
#[derive(Debug, Clone, Default)]
pub struct EntityList {
    /// Organization names (e.g. "Alphabet", "Oracle"), in insertion order.
    entities: Vec<String>,
    /// registrable domain → index into `entities`.
    index: HashMap<String, usize>,
}

impl EntityList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an organization with its owned domains.
    pub fn add(&mut self, name: &str, properties: &[&str]) {
        let idx = self.entities.len();
        for p in properties {
            self.index.insert(p.to_ascii_lowercase(), idx);
        }
        self.entities.push(name.to_string());
    }

    /// Resolves an FQDN to its owning organization, matching by registrable
    /// domain (like the Disconnect list does).
    pub fn owner_of(&self, fqdn: &str) -> Option<&str> {
        let reg = psl::registrable_domain(&fqdn.to_ascii_lowercase()).to_string();
        self.index.get(&reg).map(|&idx| self.entities[idx].as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EntityList {
        let mut l = EntityList::new();
        l.add(
            "Alphabet",
            &["google.com", "doubleclick.net", "google-analytics.com"],
        );
        l.add("Oracle", &["addthis.com", "bluekai.com"]);
        l
    }

    #[test]
    fn resolves_by_registrable_domain() {
        let l = sample();
        assert_eq!(l.owner_of("stats.g.doubleclick.net"), Some("Alphabet"));
        assert_eq!(l.owner_of("ADDTHIS.com"), Some("Oracle"));
        assert_eq!(l.owner_of("unknown-tracker.party"), None);
    }
}
