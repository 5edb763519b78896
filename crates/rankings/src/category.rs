//! Site categorization service (Alexa's category pages).
//!
//! The corpus compilation (§3, step 2) extracts the websites that Alexa's
//! categorization service classifies as *Adult*. The service indexes only a
//! small curated subset of sites — 22 in the paper — which the simulator
//! reproduces by registering only a few prominent sites per category.

use std::collections::BTreeMap;

/// Alexa-style top-level categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Adult content.
    Adult,
    /// News.
    News,
    /// Shopping.
    Shopping,
    /// Sports.
    Sports,
    /// Computers.
    Computers,
    /// Arts.
    Arts,
}

/// A curated domain → category index.
#[derive(Debug, Clone, Default)]
pub struct CategoryService {
    index: BTreeMap<String, Category>,
}

impl CategoryService {
    /// Empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `domain` under `category` (lowercased).
    pub fn register(&mut self, domain: &str, category: Category) {
        self.index.insert(domain.to_ascii_lowercase(), category);
    }

    /// All domains filed under `category`, sorted.
    pub fn domains_in(&self, category: Category) -> Vec<&str> {
        self.index
            .iter()
            .filter(|(_, c)| **c == category)
            .map(|(d, _)| d.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_query() {
        let mut svc = CategoryService::new();
        svc.register("PornHub.com", Category::Adult);
        svc.register("bbc.co.uk", Category::News);
        assert_eq!(svc.domains_in(Category::Adult), vec!["pornhub.com"]);
        assert_eq!(svc.domains_in(Category::News), vec!["bbc.co.uk"]);
    }

    #[test]
    fn domains_in_category_sorted() {
        let mut svc = CategoryService::new();
        svc.register("zzz.com", Category::Adult);
        svc.register("aaa.com", Category::Adult);
        svc.register("news.com", Category::News);
        assert_eq!(svc.domains_in(Category::Adult), vec!["aaa.com", "zzz.com"]);
    }
}
