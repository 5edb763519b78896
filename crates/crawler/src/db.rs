//! The measurement database — this repository's stand-in for OpenWPM's
//! SQLite store, plus the interaction crawler's records.
//!
//! Next to the crawls, the DB keeps what collection derived before the
//! first visit: the §3 [`CorpusReport`] and the rank histories of the
//! sanitized corpus. Analyses read both from here, so the corpus is
//! compiled once per collection.
//!
//! Crawl rows intern their crawled domain into a per-crawl [`StrTable`] at
//! record time, so a [`SiteVisitRecord`] carries a [`Sym`] id instead of an
//! owned string and analyses resolve it through the crawl.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use redlight_browser::PageVisit;
use redlight_net::geoip::Country;
use redlight_rankings::RankHistory;

use crate::corpus::CorpusReport;
use crate::store::{StrTable, Sym};

/// Which corpus a crawl covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CorpusLabel {
    /// The pornographic corpus.
    Porn,
    /// The regular (reference) corpus.
    Regular,
}

/// One site's visit inside a crawl. Rows are appended through
/// [`CrawlRecord::push_visit`] (or, for retried visits, its crate-private
/// `push_visit_with`), which
/// intern the domain into the owning crawl's table.
#[derive(Debug, Clone)]
pub struct SiteVisitRecord {
    /// The crawled domain (corpus entry), interned in the crawl's table.
    pub domain: Sym,
    /// Visit.
    pub visit: PageVisit,
    /// Document-load attempts spent on the site (1 = first try succeeded
    /// or no retry budget; 0 = the corpus entry never parsed into a URL).
    pub attempts: u32,
}

/// One crawl: a country × corpus sweep with a single browser session.
#[derive(Debug, Clone)]
pub struct CrawlRecord {
    /// Country.
    pub country: Country,
    /// Corpus.
    pub corpus: CorpusLabel,
    /// The vantage point's public IPv4 address during this crawl — what
    /// server-side trackers embed in cookies (§5.1.1), so the cookie and
    /// HTTPS analyses need it alongside the visits.
    pub client_ip: Ipv4Addr,
    /// Visits.
    pub visits: Vec<SiteVisitRecord>,
    /// The crawl's interned string table (crawled domains).
    names: StrTable,
}

impl CrawlRecord {
    /// An empty crawl whose visit rows are appended through
    /// [`push_visit`](Self::push_visit) / `push_visit_with`.
    pub fn new(country: Country, corpus: CorpusLabel, client_ip: Ipv4Addr) -> Self {
        CrawlRecord {
            country,
            corpus,
            client_ip,
            visits: Vec::new(),
            names: StrTable::new(),
        }
    }

    /// Appends a single-attempt visit row (the overwhelmingly common case;
    /// retrying crawlers record attempts via `push_visit_with`).
    pub fn push_visit(&mut self, domain: &str, visit: PageVisit) {
        self.push_visit_with(domain, visit, 1);
    }

    /// Appends a visit row, interning the domain into the crawl's string
    /// table at record time.
    pub(crate) fn push_visit_with(&mut self, domain: &str, visit: PageVisit, attempts: u32) {
        let domain = self.names.intern(domain);
        self.visits.push(SiteVisitRecord {
            domain,
            visit,
            attempts,
        });
    }

    /// Resolves an interned name through this crawl's table.
    pub fn name(&self, sym: Sym) -> &str {
        self.names.resolve(sym)
    }

    /// The whole crawl. Every analysis reads a crawl whole through the
    /// record itself; the benchmark of record (`perfbench/`) is this
    /// method's only caller, and it stays until the benchmark changes.
    pub fn full(&self) -> &CrawlRecord {
        self
    }

    /// Visits whose document loaded successfully.
    pub fn successful(&self) -> impl Iterator<Item = &SiteVisitRecord> {
        self.visits.iter().filter(|v| v.visit.success)
    }

    /// Number of successfully crawled sites.
    pub fn success_count(&self) -> usize {
        self.successful().count()
    }

    /// Total retries (attempts beyond each visit's first).
    pub fn total_retries(&self) -> u64 {
        self.visits
            .iter()
            .map(|v| v.attempts.saturating_sub(1) as u64)
            .sum()
    }
}

/// What the interaction (Selenium-style) crawler observed on one site.
#[derive(Debug, Clone)]
pub struct InteractionRecord {
    /// Domain.
    pub domain: String,
    /// Country.
    pub country: Country,
    /// The landing page loaded at all.
    pub reachable: bool,
    /// An age-verification mechanism was detected.
    pub age_gate_detected: bool,
    /// The crawler clicked through it successfully.
    pub age_gate_bypassed: bool,
    /// The gate demands a social-network login (not bypassable).
    pub social_login_gate: bool,
    /// Privacy-policy link found on the (post-gate) landing page.
    pub policy_url: Option<String>,
    /// Fetched policy text (`None` when the link 404s/errors — the §7.3
    /// false positives).
    pub policy_text: Option<String>,
    /// Landing page text contained premium/subscription keywords.
    pub premium_signal: bool,
    /// Text of the premium page, when one was fetched.
    pub premium_page: Option<String>,
}

/// The whole study's collected data.
///
/// Fields are private so every insertion goes through `push_crawl` /
/// `push_interactions` and the `(country, corpus)` lookup index can never
/// go stale.
#[derive(Debug, Clone)]
pub struct MeasurementDb {
    /// The §3 corpus compilation the crawls swept.
    corpus: CorpusReport,
    /// Daily rank series of every sanitized-corpus domain the toplist
    /// indexed.
    rank_histories: BTreeMap<String, RankHistory>,
    /// OpenWPM-style crawls (one per country × corpus).
    crawls: Vec<CrawlRecord>,
    /// Interaction-crawler records (one per country × site crawled
    /// interactively).
    interactions: Vec<InteractionRecord>,
    /// `(country, corpus)` → index into `crawls`.
    crawl_index: BTreeMap<(Country, CorpusLabel), usize>,
}

impl MeasurementDb {
    /// A DB with no crawls yet, over a compiled corpus and the rank
    /// histories of its sanitized domains.
    pub(crate) fn new(corpus: CorpusReport, rank_histories: BTreeMap<String, RankHistory>) -> Self {
        MeasurementDb {
            corpus,
            rank_histories,
            crawls: Vec::new(),
            interactions: Vec::new(),
            crawl_index: BTreeMap::new(),
        }
    }

    /// The §3 corpus compilation the crawls swept.
    pub fn corpus(&self) -> &CorpusReport {
        &self.corpus
    }

    /// Daily rank series of the sanitized corpus, keyed by domain.
    pub fn rank_histories(&self) -> &BTreeMap<String, RankHistory> {
        &self.rank_histories
    }

    /// Records a crawl and indexes it. The first record for a `(country,
    /// corpus)` pair wins the index slot (matching the previous linear-scan
    /// semantics); duplicates stay reachable through [`crawls`].
    ///
    /// [`crawls`]: MeasurementDb::crawls
    pub(crate) fn push_crawl(&mut self, crawl: CrawlRecord) {
        let key = (crawl.country, crawl.corpus);
        let idx = self.crawls.len();
        self.crawls.push(crawl);
        self.crawl_index.entry(key).or_insert(idx);
    }

    /// Appends interaction-crawler output.
    pub(crate) fn push_interactions(
        &mut self,
        records: impl IntoIterator<Item = InteractionRecord>,
    ) {
        self.interactions.extend(records);
    }

    /// All crawls, in insertion order.
    pub fn crawls(&self) -> &[CrawlRecord] {
        &self.crawls
    }

    /// All interaction records, in insertion order.
    pub fn interactions(&self) -> &[InteractionRecord] {
        &self.interactions
    }

    /// The crawl for `(country, corpus)`, if recorded — an indexed lookup,
    /// not a scan.
    pub fn crawl(&self, country: Country, corpus: CorpusLabel) -> Option<&CrawlRecord> {
        self.crawl_index
            .get(&(country, corpus))
            .map(|&i| &self.crawls[i])
    }

    /// Crawls recorded from one country (any corpus), in insertion order.
    pub fn crawls_in(&self, country: Country) -> impl Iterator<Item = &CrawlRecord> {
        self.crawls.iter().filter(move |c| c.country == country)
    }

    /// The distinct countries with at least one crawl, in ascending
    /// [`Country`] order. The projection is explicitly sorted before the
    /// dedup, so correctness never rides on the index's key layout keeping
    /// equal countries adjacent.
    pub fn countries(&self) -> Vec<Country> {
        let mut out: Vec<Country> = self.crawl_index.keys().map(|&(c, _)| c).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Interaction records for one country.
    pub fn interactions_in(&self, country: Country) -> impl Iterator<Item = &InteractionRecord> {
        self.interactions
            .iter()
            .filter(move |r| r.country == country)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redlight_net::url::Url;

    fn empty_db() -> MeasurementDb {
        MeasurementDb::new(CorpusReport::default(), BTreeMap::new())
    }

    fn crawl_with(country: Country, corpus: CorpusLabel, domains: &[(&str, bool)]) -> CrawlRecord {
        let mut crawl = CrawlRecord::new(country, corpus, Ipv4Addr::new(203, 0, 113, 77));
        for (d, ok) in domains {
            let visit = if *ok {
                PageVisit {
                    success: true,
                    ..PageVisit::failed(Url::parse(&format!("https://{d}/")).unwrap(), false)
                }
            } else {
                PageVisit::failed(Url::parse(&format!("https://{d}/")).unwrap(), true)
            };
            crawl.push_visit(d, visit);
        }
        crawl
    }

    #[test]
    fn crawl_lookup_and_success_counting() {
        let mut db = empty_db();
        db.push_crawl(crawl_with(
            Country::Spain,
            CorpusLabel::Porn,
            &[("a.com", true), ("b.com", false)],
        ));
        let crawl = db.crawl(Country::Spain, CorpusLabel::Porn).unwrap();
        assert_eq!(crawl.success_count(), 1);
        assert!(db.crawl(Country::Usa, CorpusLabel::Porn).is_none());
        assert_eq!(db.interactions_in(Country::Spain).count(), 0);
    }

    #[test]
    fn index_tracks_every_pair_and_first_record_wins() {
        let mut db = empty_db();
        db.push_crawl(crawl_with(
            Country::Spain,
            CorpusLabel::Porn,
            &[("a.com", true)],
        ));
        db.push_crawl(crawl_with(
            Country::Spain,
            CorpusLabel::Regular,
            &[("r.com", true)],
        ));
        db.push_crawl(crawl_with(
            Country::Usa,
            CorpusLabel::Porn,
            &[("a.com", true)],
        ));
        // A duplicate pair: reachable through crawls(), but the lookup keeps
        // returning the first record (the old linear scan's behavior).
        db.push_crawl(crawl_with(Country::Spain, CorpusLabel::Porn, &[]));

        assert_eq!(db.crawls().len(), 4);
        assert_eq!(
            db.crawl(Country::Spain, CorpusLabel::Porn)
                .unwrap()
                .visits
                .len(),
            1
        );
        assert_eq!(db.crawls_in(Country::Spain).count(), 3);
        assert_eq!(db.crawls_in(Country::Usa).count(), 1);
        assert_eq!(db.countries(), vec![Country::Usa, Country::Spain]);
    }

    #[test]
    fn countries_dedup_survives_interleaved_insertion() {
        // Regression: insertion order interleaving countries and corpora
        // must never produce duplicate countries — the projection is
        // sorted before the dedup, not inherited from insertion order.
        let mut db = empty_db();
        for (country, corpus) in [
            (Country::Russia, CorpusLabel::Porn),
            (Country::Usa, CorpusLabel::Porn),
            (Country::Russia, CorpusLabel::Regular),
            (Country::Spain, CorpusLabel::Porn),
            (Country::Usa, CorpusLabel::Regular),
            (Country::Spain, CorpusLabel::Regular),
        ] {
            db.push_crawl(crawl_with(country, corpus, &[("a.com", true)]));
        }
        assert_eq!(
            db.countries(),
            vec![Country::Usa, Country::Spain, Country::Russia]
        );
    }

    #[test]
    fn interning_and_visit_totals() {
        let mut crawl = crawl_with(
            Country::Spain,
            CorpusLabel::Porn,
            &[("a.com", true), ("b.com", false), ("a.com", true)],
        );
        // Equal domains share one sym; resolution round-trips.
        assert_eq!(crawl.visits[0].domain, crawl.visits[2].domain);
        assert_ne!(crawl.visits[0].domain, crawl.visits[1].domain);
        assert_eq!(crawl.name(crawl.visits[1].domain), "b.com");
        crawl.visits[1].attempts = 3;
        assert_eq!(crawl.total_retries(), 2);
    }
}
