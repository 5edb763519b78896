//! ATS classification via EasyList/EasyPrivacy (§4.2(2)) and Table 2.
//!
//! The lists are rule sets over whole URLs (`bbc.co.uk` is clean,
//! `bbc.co.uk/analytics` is not), so actual tracking instances are matched
//! against the full request URL; counting ATS *organizations* relaxes the
//! match to the base FQDN.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

use redlight_obs::{Counter, Registry};

use redlight_blocklist::{FilterSet, RequestContext};
use redlight_net::http::ResourceKind;
use redlight_net::psl::{CacheStats, HostCache};
use serde::{Deserialize, Serialize};

use crate::thirdparty::ThirdPartyExtract;
use redlight_crawler::db::{CrawlRecord, SiteVisitRecord};
use redlight_crawler::store::{CrawlSlice, StrTable, Sym};

/// Owned key of one memoized full-URL verdict.
type UrlKey = (Box<str>, Box<str>, Box<str>, ResourceKind);

/// Number of lock stripes per verdict cache. The sharded stage queue runs
/// at most 8 workers; 16 stripes keep the probability of two workers
/// contending on one lock low without bloating the struct.
const CACHE_STRIPES: usize = 16;

/// Interned key of one batch-classified request occurrence:
/// `(request URL, page host, request host, resource kind)`, the first three
/// as syms of the owning crawl's table.
pub type BatchKey = (Sym, Sym, Sym, ResourceKind);

/// One lock stripe of the URL verdict memo: hash → bucket of
/// `(exact key, verdict)` entries.
type UrlVerdictStripe = RwLock<HashMap<u64, Vec<(UrlKey, bool)>>>;

/// The classifier, loaded with both lists.
///
/// Both entry points are memoized: the same `(url, page, host, kind)`
/// tuples and the same FQDNs recur across stages (the full-URL pass runs in
/// the ATS, geo and fingerprinting stages over the same crawls), so each
/// verdict is computed once per classifier. Verdict caches are keyed by
/// hash with exact key comparison inside the bucket — a cache hit costs no
/// allocation, and a 64-bit collision cannot flip a verdict. Both caches
/// are lock-striped ([`CACHE_STRIPES`] ways by key hash) so concurrent
/// shard workers don't serialize on a single `RwLock`.
pub struct AtsClassifier {
    filters: FilterSet,
    hosts: Arc<HostCache>,
    url_cache: Vec<UrlVerdictStripe>,
    fqdn_cache: Vec<RwLock<HashMap<String, bool>>>,
    url_hits: Counter,
    url_misses: Counter,
    fqdn_hits: Counter,
    fqdn_misses: Counter,
    batch_hits: Counter,
    batch_misses: Counter,
}

/// The stripe index a key hash selects.
fn stripe_of(hash: u64) -> usize {
    (hash % CACHE_STRIPES as u64) as usize
}

fn hash_of(key: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

impl AtsClassifier {
    /// Parses the EasyList + EasyPrivacy snapshots with a private host
    /// cache.
    pub fn from_lists(easylist: &str, easyprivacy: &str) -> Self {
        Self::with_hosts(easylist, easyprivacy, Arc::new(HostCache::new()))
    }

    /// Parses the lists, sharing `hosts` (the pipeline-wide eTLD+1 memo)
    /// for third-party derivation. The matcher's Aho-Corasick prefilter
    /// tier is compiled here, once per classifier.
    pub fn with_hosts(easylist: &str, easyprivacy: &str, hosts: Arc<HostCache>) -> Self {
        let mut filters = FilterSet::new();
        filters.add_list(easylist);
        filters.add_list(easyprivacy);
        filters.build_prefilter();
        AtsClassifier {
            filters,
            hosts,
            url_cache: (0..CACHE_STRIPES)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            fqdn_cache: (0..CACHE_STRIPES)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            url_hits: Counter::new(),
            url_misses: Counter::new(),
            fqdn_hits: Counter::new(),
            fqdn_misses: Counter::new(),
            batch_hits: Counter::new(),
            batch_misses: Counter::new(),
        }
    }

    /// [`AtsClassifier::with_hosts`] with verdict-memo counters published
    /// as the registry's `cache.ats-url-verdicts.*` /
    /// `cache.ats-fqdn-verdicts.*` metrics ([`AtsClassifier::cache_stats`]
    /// reads the same cells), the matcher's prefilter counters as
    /// `cache.ats-prefilter.*`, and the batch dedup counters as
    /// `cache.ats-batch-dedup.*`.
    pub fn with_hosts_in(
        easylist: &str,
        easyprivacy: &str,
        hosts: Arc<HostCache>,
        registry: &Registry,
    ) -> Self {
        let mut this = AtsClassifier {
            url_hits: registry.counter("cache.ats-url-verdicts.hits"),
            url_misses: registry.counter("cache.ats-url-verdicts.misses"),
            fqdn_hits: registry.counter("cache.ats-fqdn-verdicts.hits"),
            fqdn_misses: registry.counter("cache.ats-fqdn-verdicts.misses"),
            batch_hits: registry.counter("cache.ats-batch-dedup.hits"),
            batch_misses: registry.counter("cache.ats-batch-dedup.misses"),
            ..Self::with_hosts(easylist, easyprivacy, hosts)
        };
        this.filters.set_prefilter_counters(
            registry.counter("cache.ats-prefilter.hits"),
            registry.counter("cache.ats-prefilter.misses"),
        );
        this
    }

    /// The shared host → eTLD+1 memo this classifier resolves with.
    pub fn hosts(&self) -> &Arc<HostCache> {
        &self.hosts
    }

    /// Full-URL matching: an actual instance of tracking. Memoized per
    /// `(url, page_host, request_host, kind)`.
    pub fn is_ats_url(
        &self,
        url: &str,
        page_host: &str,
        request_host: &str,
        kind: ResourceKind,
    ) -> bool {
        let key_hash = hash_of(&(url, page_host, request_host, kind));
        let stripe = &self.url_cache[stripe_of(key_hash)];
        if let Some(bucket) = stripe.read().expect("url cache lock").get(&key_hash) {
            for ((k_url, k_page, k_req, k_kind), verdict) in bucket {
                if k_kind == &kind
                    && k_url.as_ref() == url
                    && k_page.as_ref() == page_host
                    && k_req.as_ref() == request_host
                {
                    self.url_hits.inc();
                    return *verdict;
                }
            }
        }
        self.url_misses.inc();
        let ctx = RequestContext::with_hosts(page_host, request_host, kind, &self.hosts);
        let verdict = self.filters.matches(url, &ctx).is_blocked();
        stripe
            .write()
            .expect("url cache lock")
            .entry(key_hash)
            .or_default()
            .push((
                (url.into(), page_host.into(), request_host.into(), kind),
                verdict,
            ));
        verdict
    }

    /// Relaxed FQDN matching: the domain belongs to a known ATS
    /// organization. Memoized per FQDN.
    pub fn is_ats_fqdn(&self, fqdn: &str) -> bool {
        let stripe = &self.fqdn_cache[stripe_of(hash_of(&fqdn))];
        if let Some(&verdict) = stripe.read().expect("fqdn cache lock").get(fqdn) {
            self.fqdn_hits.inc();
            return verdict;
        }
        self.fqdn_misses.inc();
        let verdict = self.filters.matches_fqdn_relaxed(fqdn);
        stripe
            .write()
            .expect("fqdn cache lock")
            .insert(fqdn.to_string(), verdict);
        verdict
    }

    /// Classifies every answered request of a slice's successful visits in
    /// one pass, deduplicated per distinct interned
    /// `(url, page, host, kind)` key and grouped by request FQDN so
    /// consecutive classifications share matcher and cache state.
    ///
    /// The returned columns are keyed by [`Sym`]s of the slice's table:
    /// resolving a verdict through [`AtsVerdicts`] is a hash of three
    /// `u32`s instead of re-rendering and re-hashing the URL strings.
    /// Verdicts are computed through [`AtsClassifier::is_ats_url`] /
    /// [`AtsClassifier::is_ats_fqdn`], so the shared memo (and its
    /// counters) observes exactly one miss per distinct key — the
    /// per-request path and the batch path stay byte-identical.
    pub fn classify_batch(&self, slice: CrawlSlice<'_>) -> BatchVerdicts {
        let mut url: HashMap<BatchKey, bool> = HashMap::new();
        let mut order: Vec<BatchKey> = Vec::new();
        let mut total_requests = 0usize;
        for record in slice.successful() {
            let Some(page) = record.final_host else {
                continue;
            };
            for (i, req) in record.visit.requests.iter().enumerate() {
                if req.status.is_none() {
                    continue;
                }
                total_requests += 1;
                let key = (
                    record.request_urls[i],
                    page,
                    record.request_hosts[i],
                    req.kind,
                );
                match url.entry(key) {
                    Entry::Occupied(_) => self.batch_hits.inc(),
                    Entry::Vacant(slot) => {
                        self.batch_misses.inc();
                        slot.insert(false);
                        order.push(key);
                    }
                }
            }
        }
        // Group by request FQDN (then URL) so verdict-cache and matcher
        // state stays hot across consecutive keys of the same host.
        order.sort_unstable_by(|a, b| {
            slice
                .name(a.2)
                .cmp(slice.name(b.2))
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
                .then((a.3 as u8).cmp(&(b.3 as u8)))
        });
        let mut host_syms: Vec<Sym> = Vec::new();
        for key in order {
            let verdict = self.is_ats_url(
                slice.name(key.0),
                slice.name(key.1),
                slice.name(key.2),
                key.3,
            );
            url.insert(key, verdict);
            host_syms.push(key.2);
        }
        host_syms.sort_unstable();
        host_syms.dedup();
        let fqdn = host_syms
            .into_iter()
            .map(|h| (h, self.is_ats_fqdn(slice.name(h))))
            .collect();
        BatchVerdicts {
            url,
            fqdn,
            total_requests,
        }
    }

    /// Hit/miss counters of the (URL verdict, FQDN verdict) memos.
    pub fn cache_stats(&self) -> (CacheStats, CacheStats) {
        (
            CacheStats {
                hits: self.url_hits.get(),
                misses: self.url_misses.get(),
            },
            CacheStats {
                hits: self.fqdn_hits.get(),
                misses: self.fqdn_misses.get(),
            },
        )
    }

    /// Scan-rule (skipped, evaluated) totals of the matcher's Aho-Corasick
    /// prefilter tier.
    pub fn prefilter_stats(&self) -> CacheStats {
        let (skipped, evaluated) = self.filters.prefilter_stats();
        CacheStats {
            hits: skipped,
            misses: evaluated,
        }
    }

    /// Batch-dedup counters: hits are request occurrences answered by an
    /// earlier occurrence's key within [`AtsClassifier::classify_batch`],
    /// misses are distinct keys that had to be classified.
    pub fn batch_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.batch_hits.get(),
            misses: self.batch_misses.get(),
        }
    }

    /// Number of loaded rules.
    pub fn rule_count(&self) -> usize {
        self.filters.len()
    }
}

/// Sym-keyed verdict columns for one crawl, produced by
/// [`AtsClassifier::classify_batch`]. Stages consume them through
/// [`AtsVerdicts`].
#[derive(Debug, Clone, Default)]
pub struct BatchVerdicts {
    /// Verdict per distinct `(url, page, host, kind)` key.
    url: HashMap<BatchKey, bool>,
    /// Relaxed-FQDN verdict per distinct request-host sym.
    fqdn: HashMap<Sym, bool>,
    /// Request occurrences covered (answered requests of successful visits
    /// with a final URL).
    pub total_requests: usize,
}

impl BatchVerdicts {
    /// Number of distinct classification keys.
    pub fn distinct_urls(&self) -> usize {
        self.url.len()
    }

    /// The batch verdict for `key`, when covered.
    pub fn url_verdict(&self, key: BatchKey) -> Option<bool> {
        self.url.get(&key).copied()
    }

    /// The relaxed-FQDN verdict for an interned request host.
    pub fn fqdn_verdict(&self, host: Sym) -> Option<bool> {
        self.fqdn.get(&host).copied()
    }
}

/// A stage's view of ATS classification: the shared classifier, plus the
/// crawl's Sym-keyed [`BatchVerdicts`] column when the view has one.
/// Sym-keyed lookups answer from the column without rendering a single
/// string; anything uncovered (canvas script URLs, extract FQDNs, views
/// without a column) falls back to the memoized classifier, so verdicts
/// are identical either way.
#[derive(Clone, Copy)]
pub struct AtsVerdicts<'a> {
    classifier: &'a AtsClassifier,
    batch: Option<&'a BatchVerdicts>,
}

impl<'a> AtsVerdicts<'a> {
    /// A view with no batch column: every lookup delegates.
    pub fn new(classifier: &'a AtsClassifier) -> Self {
        AtsVerdicts {
            classifier,
            batch: None,
        }
    }

    /// A view backed by one crawl's batch verdict column.
    pub fn with_batch(classifier: &'a AtsClassifier, batch: &'a BatchVerdicts) -> Self {
        AtsVerdicts {
            classifier,
            batch: Some(batch),
        }
    }

    /// The underlying classifier.
    pub fn classifier(&self) -> &'a AtsClassifier {
        self.classifier
    }

    /// The shared host → eTLD+1 memo.
    pub fn hosts(&self) -> &'a Arc<HostCache> {
        self.classifier.hosts()
    }

    /// Relaxed FQDN matching by string (extract sets, service hosts).
    pub fn is_ats_fqdn(&self, fqdn: &str) -> bool {
        self.classifier.is_ats_fqdn(fqdn)
    }

    /// Full-URL matching by strings, for URLs that are not request-column
    /// entries (e.g. canvas script URLs).
    pub fn is_ats_url(
        &self,
        url: &str,
        page_host: &str,
        request_host: &str,
        kind: ResourceKind,
    ) -> bool {
        self.classifier
            .is_ats_url(url, page_host, request_host, kind)
    }

    /// The verdict for request `i` of `record` (whose page host is
    /// `page`): answered from the batch column when present, else
    /// resolved through `names` and classified.
    pub fn request_verdict(
        &self,
        names: &StrTable,
        record: &SiteVisitRecord,
        page: Sym,
        i: usize,
    ) -> bool {
        let key = (
            record.request_urls[i],
            page,
            record.request_hosts[i],
            record.visit.requests[i].kind,
        );
        if let Some(v) = self.batch.and_then(|b| b.url_verdict(key)) {
            return v;
        }
        self.classifier.is_ats_url(
            names.resolve(key.0),
            names.resolve(key.1),
            names.resolve(key.2),
            key.3,
        )
    }

    /// Relaxed FQDN matching by interned host sym.
    pub fn fqdn_verdict(&self, names: &StrTable, host: Sym) -> bool {
        if let Some(v) = self.batch.and_then(|b| b.fqdn_verdict(host)) {
            return v;
        }
        self.classifier.is_ats_fqdn(names.resolve(host))
    }
}

/// Table 2: first/third-party domain counts for both corpora.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    /// Porn corpus size.
    pub porn_corpus_size: usize,
    /// Regular corpus size.
    pub regular_corpus_size: usize,
    /// Porn first party.
    pub porn_first_party: usize,
    /// Regular first party.
    pub regular_first_party: usize,
    /// Porn third party.
    pub porn_third_party: usize,
    /// Regular third party.
    pub regular_third_party: usize,
    /// Third party intersection.
    pub third_party_intersection: usize,
    /// Porn ATS.
    pub porn_ats: usize,
    /// Regular ATS.
    pub regular_ats: usize,
    /// ATS intersection.
    pub ats_intersection: usize,
}

/// ATS FQDNs among a third-party set (relaxed matching).
pub fn ats_fqdns<'a>(extract: &'a ThirdPartyExtract, ats: AtsVerdicts<'_>) -> BTreeSet<&'a str> {
    extract
        .third_party_fqdns
        .iter()
        .map(String::as_str)
        .filter(|f| ats.is_ats_fqdn(f))
        .collect()
}

/// Builds Table 2 from the two main crawls.
pub fn table2(
    porn_crawl: &CrawlRecord,
    porn_extract: &ThirdPartyExtract,
    regular_crawl: &CrawlRecord,
    regular_extract: &ThirdPartyExtract,
    ats: AtsVerdicts<'_>,
) -> Table2 {
    let porn_ats: BTreeSet<&str> = ats_fqdns(porn_extract, ats);
    let regular_ats: BTreeSet<&str> = ats_fqdns(regular_extract, ats);
    Table2 {
        porn_corpus_size: porn_crawl.success_count(),
        regular_corpus_size: regular_crawl.success_count(),
        porn_first_party: porn_extract.first_party_fqdns.len(),
        regular_first_party: regular_extract.first_party_fqdns.len(),
        porn_third_party: porn_extract.third_party_fqdns.len(),
        regular_third_party: regular_extract.third_party_fqdns.len(),
        third_party_intersection: porn_extract
            .third_party_fqdns
            .intersection(&regular_extract.third_party_fqdns)
            .count(),
        porn_ats: porn_ats.len(),
        regular_ats: regular_ats.len(),
        ats_intersection: porn_ats.intersection(&regular_ats).count(),
    }
}

/// Actual tracking instances observed in a crawl: URLs that match the lists
/// in full, grouped by request FQDN. Runs entirely over the interned
/// columns — with a batch view, no URL string is rendered or hashed.
pub fn tracking_instances(crawl: &CrawlRecord, ats: AtsVerdicts<'_>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for record in crawl.successful() {
        let Some(page) = record.final_host else {
            continue;
        };
        for (i, req) in record.visit.requests.iter().enumerate() {
            if req.status.is_none() {
                continue;
            }
            if ats.request_verdict(crawl.names(), record, page, i) {
                out.insert(crawl.name(record.request_hosts[i]).to_string());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_matches_url_and_relaxed() {
        let cls = AtsClassifier::from_lists(
            "||exoclick.com^\n||bbc.co.uk/analytics\n",
            "||metrics.io^$third-party\n",
        );
        assert!(cls.is_ats_url(
            "https://exoclick.com/tag/v1.js",
            "porn.site",
            "exoclick.com",
            ResourceKind::Script
        ));
        assert!(!cls.is_ats_url(
            "https://bbc.co.uk/news",
            "a.com",
            "bbc.co.uk",
            ResourceKind::Document
        ));
        assert!(cls.is_ats_fqdn("bbc.co.uk"));
        assert!(cls.is_ats_fqdn("metrics.io"));
        assert!(!cls.is_ats_fqdn("clean.org"));
        assert_eq!(cls.rule_count(), 3);
    }

    #[test]
    fn verdicts_are_memoized() {
        let cls = AtsClassifier::from_lists("||exoclick.com^\n", "");
        for _ in 0..3 {
            assert!(cls.is_ats_url(
                "https://exoclick.com/tag.js",
                "porn.site",
                "exoclick.com",
                ResourceKind::Script
            ));
            assert!(!cls.is_ats_fqdn("clean.org"));
        }
        let (url, fqdn) = cls.cache_stats();
        assert_eq!((url.misses, url.hits), (1, 2));
        assert_eq!((fqdn.misses, fqdn.hits), (1, 2));
        // The host memo was consulted for the third-party derivation.
        assert!(!cls.hosts().is_empty());
        // Same URL with a different kind is a distinct verdict.
        assert!(cls.is_ats_url(
            "https://exoclick.com/tag.js",
            "porn.site",
            "exoclick.com",
            ResourceKind::Image
        ));
        assert_eq!(cls.cache_stats().0.misses, 2);
    }

    #[test]
    fn classify_batch_matches_per_request_and_dedups() {
        use redlight_browser::instrument::{Initiator, RequestRecord};
        use redlight_browser::PageVisit;
        use redlight_crawler::db::{CorpusLabel, CrawlRecord};
        use redlight_net::geoip::Country;
        use redlight_net::http::{Method, StatusCode};
        use redlight_net::url::Url;
        use std::net::Ipv4Addr;

        let req = |url: &str, ok: bool| RequestRecord {
            url: Url::parse(url).unwrap(),
            method: Method::Get,
            kind: ResourceKind::Script,
            referrer: None,
            initiator: Initiator::Markup,
            status: ok.then_some(StatusCode::OK),
            content_type: None,
            cert: None,
            redirected_to: None,
        };
        let mut crawl = CrawlRecord::new(
            Country::Spain,
            CorpusLabel::Porn,
            Ipv4Addr::new(203, 0, 113, 9),
        );
        let visit = PageVisit {
            success: true,
            final_url: Some(Url::parse("https://porn.site/").unwrap()),
            requests: vec![
                req("https://exoclick.com/tag.js", true),
                req("https://exoclick.com/tag.js", true), // duplicate occurrence
                req("https://clean.org/lib.js", true),
                req("https://dead.example/x.js", false), // unanswered: skipped
            ],
            ..PageVisit::failed(Url::parse("https://porn.site/").unwrap(), false)
        };
        crawl.push_visit("porn.site", visit);

        let cls = AtsClassifier::from_lists("||exoclick.com^\n", "");
        let batch = cls.classify_batch(crawl.full());
        assert_eq!(batch.total_requests, 3);
        assert_eq!(batch.distinct_urls(), 2);
        let stats = cls.batch_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));

        // Per-occurrence verdicts through the view equal fresh per-request
        // string classification.
        let fresh = AtsClassifier::from_lists("||exoclick.com^\n", "");
        let view = AtsVerdicts::with_batch(&cls, &batch);
        let record = &crawl.visits[0];
        let page = record.final_host.unwrap();
        for (i, r) in record.visit.requests.iter().enumerate() {
            if r.status.is_none() {
                continue;
            }
            let expect = fresh.is_ats_url(
                &r.url.without_fragment(),
                "porn.site",
                r.url.host().as_str(),
                r.kind,
            );
            assert_eq!(
                view.request_verdict(crawl.names(), record, page, i),
                expect,
                "request {i}"
            );
        }
        // The column answered those lookups: no extra classifier misses
        // beyond the batch's own 2 distinct keys.
        assert_eq!(cls.cache_stats().0.misses, 2);
        // Sym-keyed FQDN verdicts agree with the string path.
        assert!(view.fqdn_verdict(crawl.names(), record.request_hosts[0]));
        assert!(!view.fqdn_verdict(crawl.names(), record.request_hosts[2]));
    }
}
