//! ATS classification via EasyList/EasyPrivacy (§4.2(2)) and Table 2.
//!
//! The lists are rule sets over whole URLs (`bbc.co.uk` is clean,
//! `bbc.co.uk/analytics` is not), so actual tracking instances are matched
//! against the full request URL; counting ATS *organizations* relaxes the
//! match to the base FQDN.

use std::collections::BTreeSet;

use redlight_blocklist::{FilterSet, RequestContext};
use redlight_net::http::ResourceKind;

use crate::thirdparty::ThirdPartyExtract;
use redlight_crawler::db::CrawlRecord;

/// The classifier, loaded with both lists. Every verdict is one matcher
/// call: the matcher's domain buckets are the only acceleration.
pub struct AtsClassifier {
    filters: FilterSet,
}

impl AtsClassifier {
    /// Parses the EasyList + EasyPrivacy snapshots.
    pub fn from_lists(easylist: &str, easyprivacy: &str) -> Self {
        let mut filters = FilterSet::new();
        filters.add_list(easylist);
        filters.add_list(easyprivacy);
        AtsClassifier { filters }
    }

    /// Full-URL matching: an actual instance of tracking.
    pub fn is_ats_url(
        &self,
        url: &str,
        page_host: &str,
        request_host: &str,
        kind: ResourceKind,
    ) -> bool {
        let ctx = RequestContext::new(page_host, request_host, kind);
        self.filters.matches(url, &ctx).is_blocked()
    }

    /// Relaxed FQDN matching: the domain belongs to a known ATS
    /// organization.
    pub fn is_ats_fqdn(&self, fqdn: &str) -> bool {
        self.filters.matches_fqdn_relaxed(fqdn)
    }

    /// Classifies every answered request of a crawl's successful visits,
    /// one [`AtsClassifier::is_ats_url`] call per occurrence. No analysis
    /// stage calls it; the benchmark of record (`perfbench/`) times it.
    pub fn classify_batch(&self, crawl: &CrawlRecord) -> BatchVerdicts {
        let mut verdicts = Vec::new();
        for record in crawl.successful() {
            let Some(page) = &record.visit.final_url else {
                continue;
            };
            for req in record.visit.requests.iter().filter(|r| r.status.is_some()) {
                verdicts.push(self.is_ats_url(
                    &req.url.without_fragment(),
                    page.host().as_str(),
                    req.url.host().as_str(),
                    req.kind,
                ));
            }
        }
        BatchVerdicts {
            total_requests: verdicts.len(),
            verdicts,
        }
    }

    /// Number of loaded rules.
    pub fn rule_count(&self) -> usize {
        self.filters.len()
    }
}

/// Verdicts for one crawl, produced by
/// [`AtsClassifier::classify_batch`].
#[derive(Debug, Clone, Default)]
pub struct BatchVerdicts {
    /// One verdict per answered request of the crawl's successful visits
    /// with a final URL, in visit order, then request order.
    pub verdicts: Vec<bool>,
    /// Request occurrences covered: `verdicts.len()`.
    pub total_requests: usize,
}

/// Table 2: first/third-party domain counts for both corpora.
#[derive(Debug, Clone)]
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
pub fn ats_fqdns<'a>(extract: &'a ThirdPartyExtract, ats: &AtsClassifier) -> BTreeSet<&'a str> {
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
    ats: &AtsClassifier,
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
    fn classify_batch_matches_per_request() {
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
        // One verdict per answered occurrence, duplicates included.
        assert_eq!(batch.verdicts, [true, true, false]);
        assert_eq!(batch.total_requests, 3);
    }
}
