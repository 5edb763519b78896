//! Semi-supervised corpus compilation (paper §3).
//!
//! Three sources with decreasing precision:
//!
//! 1. the specialized porn directories (342 sites in the paper);
//! 2. the Alexa categorization service's *Adult* category (22 sites);
//! 3. keyword search over every domain indexed by the 2018 Alexa top-1M
//!    (`porn`, `tube`, `sex`, `gay`, `lesbian`, `mature`, `xxx` — 7,735
//!    matches).
//!
//! The keyword source introduces false positives (PornTube is porn, YouTube
//! is not), so each candidate is crawled (DOM + screenshot) and manually
//! inspected — here, by the [`InspectionOracle`] standing in for the
//! authors' manual review. Unresponsive candidates are removed too. The
//! sanitization crawl loads each candidate's document only
//! ([`Browser::load_document`]): the verdict reads whether it loaded, and
//! nothing it references.

use std::collections::HashSet;

use redlight_browser::Browser;
use redlight_net::geoip::Country;
use redlight_net::url::Url;
use redlight_rankings::category::Category;
use redlight_websim::oracle::InspectionOracle;
use redlight_websim::server::BrowserKind;
use redlight_websim::sitegen::domain_has_keyword;
use redlight_websim::World;

/// Result of corpus compilation.
#[derive(Debug, Clone, Default)]
pub struct CorpusReport {
    /// Domains from the directory aggregators (source 1).
    pub from_directories: Vec<String>,
    /// Domains from the Adult category (source 2).
    pub from_adult_category: Vec<String>,
    /// Domains matching the keyword bag in the top-1M (source 3).
    pub from_keywords: Vec<String>,
    /// Union of all sources.
    pub candidates: Vec<String>,
    /// Candidates removed by the sanitization pass.
    pub false_positives: Vec<String>,
    /// The sanitized porn corpus.
    pub sanitized: Vec<String>,
    /// The reference corpus of popular non-porn websites.
    pub reference_regular: Vec<String>,
    /// Manual inspections spent during sanitization.
    pub manual_inspections: usize,
}

/// The compiler.
pub struct CorpusCompiler<'w> {
    world: &'w World,
}

impl<'w> CorpusCompiler<'w> {
    /// Creates a compiler over `world`.
    pub fn new(world: &'w World) -> Self {
        CorpusCompiler { world }
    }

    /// Runs the full §3 pipeline from the Spanish vantage point.
    pub fn compile(&self) -> CorpusReport {
        let from_directories = self.scrape_directories();
        let from_adult_category: Vec<String> = self
            .world
            .category_service
            .domains_in(Category::Adult)
            .into_iter()
            .map(str::to_string)
            .collect();
        let from_keywords = self.keyword_search();

        // Union, preserving source order, deduplicated.
        let mut seen: HashSet<&str> = HashSet::new();
        let candidates: Vec<String> = from_directories
            .iter()
            .chain(&from_adult_category)
            .chain(&from_keywords)
            .filter(|d| seen.insert(d.as_str()))
            .cloned()
            .collect();

        // Sanitization: load each candidate's document, manually inspect
        // the result.
        let oracle = InspectionOracle::new(&self.world.sites);
        let ctx = Browser::context_for(self.world, Country::Spain, BrowserKind::Selenium);
        let mut browser = Browser::new(self.world, ctx);
        let mut sanitized = Vec::new();
        let mut false_positives = Vec::new();
        for domain in &candidates {
            let url = Url::parse(&format!("https://{domain}/")).expect("valid candidate url");
            let document = browser.load_document(&url);
            // Unresponsive sites cannot be verified; responsive ones get a
            // DOM + screenshot and a human (oracle) verdict.
            let keep = document.success && oracle.is_porn_content(domain);
            if keep {
                sanitized.push(domain.clone());
            } else {
                false_positives.push(domain.clone());
            }
        }

        // Reference corpus: top-10k domains that are neither sanitized porn
        // nor keyword-bearing (§3's 9,688 popular non-porn websites).
        let porn: HashSet<&str> = sanitized.iter().map(String::as_str).collect();
        let reference_regular: Vec<String> = self
            .world
            .toplist_domains()
            .into_iter()
            .filter(|&(d, best)| best <= 10_000 && !domain_has_keyword(d) && !porn.contains(d))
            .map(|(d, _)| d.to_string())
            .collect();

        CorpusReport {
            from_directories,
            from_adult_category,
            from_keywords,
            candidates,
            false_positives,
            sanitized,
            reference_regular,
            manual_inspections: oracle.manual_inspections(),
        }
    }

    /// Source 1: load the aggregator pages and collect their outlinks.
    fn scrape_directories(&self) -> Vec<String> {
        let ctx = Browser::context_for(self.world, Country::Spain, BrowserKind::Selenium);
        let mut browser = Browser::new(self.world, ctx);
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for dir in &self.world.directory_domains {
            let url = Url::parse(&format!("https://{dir}/")).expect("directory url");
            let page = browser.load_document(&url);
            if !page.success {
                continue;
            }
            let doc = redlight_html::parser::parse(&page.dom_html);
            for (_, href) in redlight_html::query::links(&doc) {
                if let Ok(link) = Url::parse(&href) {
                    let host = link.host().as_str();
                    if seen.insert(host.to_string()) {
                        out.push(host.to_string());
                    }
                }
            }
        }
        out
    }

    /// Source 3: keyword search over every domain the toplist indexed
    /// during 2018.
    fn keyword_search(&self) -> Vec<String> {
        self.world
            .toplist_domains()
            .into_iter()
            .map(|(d, _)| d.to_string())
            .filter(|d| domain_has_keyword(d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redlight_websim::WorldConfig;

    #[test]
    fn corpus_counts_match_the_config() {
        let config = WorldConfig::tiny(101);
        let world = World::build(config.clone());
        let report = CorpusCompiler::new(&world).compile();

        assert_eq!(
            report.candidates.len(),
            config.candidate_count(),
            "directories {} + category {} + keywords {}",
            report.from_directories.len(),
            report.from_adult_category.len(),
            report.from_keywords.len(),
        );
        assert_eq!(report.from_adult_category.len(), config.n_alexa_adult_porn);
        assert_eq!(report.false_positives.len(), config.n_false_positives);
        assert_eq!(report.sanitized.len(), config.sanitized_count());
        // Sanitization inspected responsive candidates only, one query each.
        assert!(report.manual_inspections <= config.candidate_count());
    }

    #[test]
    fn sources_are_disjoint_and_keyworded_correctly() {
        let world = World::build(WorldConfig::tiny(102));
        let report = CorpusCompiler::new(&world).compile();
        for d in &report.from_keywords {
            assert!(domain_has_keyword(d), "{d}");
        }
        for d in &report.from_directories {
            assert!(
                !domain_has_keyword(d),
                "directory sites are brand-named: {d}"
            );
        }
        for d in &report.from_directories {
            assert!(!report.from_adult_category.contains(d));
        }
    }

    #[test]
    fn reference_corpus_is_popular_and_clean() {
        let world = World::build(WorldConfig::tiny(103));
        let report = CorpusCompiler::new(&world).compile();
        assert!(!report.reference_regular.is_empty());
        for d in &report.reference_regular {
            assert!(!domain_has_keyword(d));
            assert!(!report.sanitized.contains(d));
        }
    }

    #[test]
    fn ground_truth_agreement() {
        // The compiled corpus must equal the set of responsive porn sites.
        let world = World::build(WorldConfig::tiny(104));
        let report = CorpusCompiler::new(&world).compile();
        let truth: Vec<&str> = world
            .sites
            .iter()
            .filter(|s| s.is_porn() && !s.unresponsive)
            .map(|s| s.domain.as_str())
            .collect();
        assert_eq!(report.sanitized.len(), truth.len());
        for d in &report.sanitized {
            assert!(truth.contains(&d.as_str()), "{d} not ground-truth porn");
        }
    }
}
