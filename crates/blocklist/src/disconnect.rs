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

/// One organization entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// Organization name (e.g. "Alphabet", "Oracle").
    pub name: String,
    /// Domains the organization owns (registrable domains).
    pub properties: Vec<String>,
}

/// The entity list.
#[derive(Debug, Clone, Default)]
pub struct EntityList {
    entities: Vec<Entity>,
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
        let props: Vec<String> = properties.iter().map(|p| p.to_ascii_lowercase()).collect();
        for p in &props {
            self.index.insert(p.clone(), idx);
        }
        self.entities.push(Entity {
            name: name.to_string(),
            properties: props,
        });
    }

    /// Resolves an FQDN to its owning organization, matching by registrable
    /// domain (like the Disconnect list does).
    pub fn owner_of(&self, fqdn: &str) -> Option<&str> {
        let reg = psl::registrable_domain(&fqdn.to_ascii_lowercase()).to_string();
        self.index
            .get(&reg)
            .map(|&idx| self.entities[idx].name.as_str())
    }

    /// Number of organizations.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Iterates over all entities.
    pub fn iter(&self) -> impl Iterator<Item = &Entity> {
        self.entities.iter()
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

    #[test]
    fn counts() {
        let l = sample();
        assert_eq!(l.len(), 2);
        assert_eq!(l.iter().count(), 2);
    }
}
