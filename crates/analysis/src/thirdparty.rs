//! First- vs third-party classification and per-crawl extraction (§4.2(1)).
//!
//! For each URL observed while crawling a site, the classifier compares the
//! request's FQDN and X.509 certificate against the host website's; when
//! neither establishes a relationship, the Levenshtein similarity of the two
//! FQDNs decides (≥ 0.7 ⇒ same entity). This groups `doublepimp.com` with
//! `doublepimpssl.com` while separating it from `doubleclick.net`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, RwLock};

use redlight_obs::{Counter, Registry};

use redlight_browser::Initiator;
use redlight_net::geoip::Country;
use redlight_net::psl::{CacheStats, HostCache};
use redlight_net::tls::CertSummary;
use redlight_text::levenshtein;
use serde::{Deserialize, Serialize};

use crate::util::reg;
use redlight_crawler::db::{CorpusLabel, CrawlRecord};
use redlight_crawler::store::CrawlSlice;

/// Party classification of one observed FQDN relative to a host site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Party {
    /// Same entity as the visited site.
    First,
    /// A different entity.
    Third,
}

/// Classifies `request_host` relative to `site_host` using the paper's three
/// signals in order: registrable-domain match, certificate identity,
/// Levenshtein similarity ≥ 0.7.
pub fn classify(
    site_host: &str,
    site_cert: Option<&CertSummary>,
    request_host: &str,
    request_cert: Option<&CertSummary>,
) -> Party {
    classify_in(
        site_host,
        site_cert,
        request_host,
        request_cert,
        &HostCache::new(),
    )
}

/// [`classify`] with every eTLD+1 resolution answered by `hosts`.
fn classify_in(
    site_host: &str,
    site_cert: Option<&CertSummary>,
    request_host: &str,
    request_cert: Option<&CertSummary>,
    hosts: &HostCache,
) -> Party {
    let (site_reg, request_reg) = (
        hosts.registrable(site_host),
        hosts.registrable(request_host),
    );
    if site_reg == request_reg {
        return Party::First;
    }
    if let (Some(a), Some(b)) = (site_cert, request_cert) {
        if a.same_identity(b) {
            return Party::First;
        }
    }
    if levenshtein::same_entity(site_reg, request_reg) {
        return Party::First;
    }
    Party::Third
}

/// Distinct parties observed on one site.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SiteParties {
    /// First-party FQDNs other than the site's own hostname.
    pub first: BTreeSet<String>,
    /// Third-party FQDNs.
    pub third: BTreeSet<String>,
}

/// Corpus-wide extraction result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThirdPartyExtract {
    /// Per crawled site (keyed by corpus domain).
    pub per_site: BTreeMap<String, SiteParties>,
    /// All distinct first-party FQDNs (excluding the sites' own hosts).
    pub first_party_fqdns: BTreeSet<String>,
    /// All distinct third-party FQDNs.
    pub third_party_fqdns: BTreeSet<String>,
    /// All FQDNs contacted (including site hosts).
    pub contacted_fqdns: BTreeSet<String>,
}

impl ThirdPartyExtract {
    /// Sites on which `fqdn` appears as a third party.
    pub fn sites_with(&self, fqdn: &str) -> usize {
        self.per_site
            .values()
            .filter(|p| p.third.contains(fqdn))
            .count()
    }

    /// Sites on which any FQDN of `registrable` appears as a third party.
    pub fn sites_with_registrable(&self, registrable: &str) -> usize {
        self.per_site
            .values()
            .filter(|p| p.third.iter().any(|f| reg(f) == registrable))
            .count()
    }
}

/// Extracts parties from a crawl. `include_chained` keeps requests caused by
/// embedded frames (RTB inclusion chains); Table 7 excludes them, the main
/// §4.2 analysis includes them.
pub fn extract(crawl: &CrawlRecord, include_chained: bool) -> ThirdPartyExtract {
    scan(crawl.full(), include_chained, &HostCache::new())
}

/// The reduce side: unions per-shard partials, in shard order.
pub fn merge(parts: impl IntoIterator<Item = ThirdPartyExtract>) -> ThirdPartyExtract {
    let mut out = ThirdPartyExtract::default();
    for part in parts {
        for (site, parties) in part.per_site {
            let entry = out.per_site.entry(site).or_default();
            entry.first.extend(parties.first);
            entry.third.extend(parties.third);
        }
        out.first_party_fqdns.extend(part.first_party_fqdns);
        out.third_party_fqdns.extend(part.third_party_fqdns);
        out.contacted_fqdns.extend(part.contacted_fqdns);
    }
    out
}

/// The map side of the extraction: one shard's partial extract, with
/// eTLD+1 resolutions memoized in `hosts`. Merging every shard's partial
/// with [`merge`] reproduces the monolithic [`extract`] exactly (per-site
/// maps and FQDN sets union cleanly).
pub fn scan(slice: CrawlSlice<'_>, include_chained: bool, hosts: &HostCache) -> ThirdPartyExtract {
    let mut out = ThirdPartyExtract::default();
    for record in slice.successful() {
        let visit = &record.visit;
        let Some(final_url) = &visit.final_url else {
            continue;
        };
        let site_host = final_url.host().as_str();
        // The document response's certificate is the site's certificate.
        let site_cert = visit
            .requests
            .iter()
            .find(|r| r.kind == redlight_net::http::ResourceKind::Document && r.cert.is_some())
            .and_then(|r| r.cert.clone());

        let parties = out
            .per_site
            .entry(slice.name(record.domain).to_string())
            .or_default();
        for req in &visit.requests {
            if req.status.is_none() {
                continue; // unreachable: nothing was contacted
            }
            if !include_chained {
                if let Initiator::Frame(_) = req.initiator {
                    continue;
                }
            }
            let host = req.url.host().as_str();
            out.contacted_fqdns.insert(host.to_string());
            if host == site_host {
                continue;
            }
            match classify_in(
                site_host,
                site_cert.as_ref(),
                host,
                req.cert.as_ref(),
                hosts,
            ) {
                Party::First => {
                    parties.first.insert(host.to_string());
                    out.first_party_fqdns.insert(host.to_string());
                }
                Party::Third => {
                    parties.third.insert(host.to_string());
                    out.third_party_fqdns.insert(host.to_string());
                }
            }
        }
    }
    out
}

/// Identity of one extraction: which crawl, whether frame-chained requests
/// were kept, and which visit range was scanned (`0..visits.len()` for the
/// whole crawl; per-shard sub-ranges memoize shard partials).
type ExtractKey = (Country, CorpusLabel, bool, usize, usize);

/// A pipeline-wide memo of third-party extractions.
///
/// Several stages (ats, orgs, sync, geo, monetization) start from "the
/// third parties of crawl X" — before this memo each re-ran [`extract`]
/// over the same records. The memo computes each `(country, corpus,
/// include_chained)` extraction once and hands out `Arc` clones. Concurrent
/// stages may race on a cold key; extraction is deterministic, so both
/// compute the same value and the duplicated work is bounded by one
/// extraction (both count as misses).
pub struct ExtractMemo {
    hosts: Arc<HostCache>,
    map: RwLock<HashMap<ExtractKey, Arc<ThirdPartyExtract>>>,
    hits: Counter,
    misses: Counter,
}

impl ExtractMemo {
    /// Empty memo resolving hosts through `hosts`.
    pub fn new(hosts: Arc<HostCache>) -> Self {
        ExtractMemo {
            hosts,
            map: RwLock::new(HashMap::new()),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// [`ExtractMemo::new`] publishing `cache.thirdparty-extracts.hits` /
    /// `.misses` into `registry` ([`ExtractMemo::stats`] reads the same
    /// cells).
    pub fn in_registry(hosts: Arc<HostCache>, registry: &Registry) -> Self {
        ExtractMemo {
            hits: registry.counter("cache.thirdparty-extracts.hits"),
            misses: registry.counter("cache.thirdparty-extracts.misses"),
            ..Self::new(hosts)
        }
    }

    /// The extraction for `crawl`, computed at most once per key. One
    /// shard scans the whole crawl in one pass. More shards scan each of
    /// the `shards` contiguous visit ranges on its own (memoized under the
    /// range), merge the partials in shard order and cache the result under
    /// the whole-crawl key, so later calls for the crawl hit at any shard
    /// count and see the value a one-pass extraction produces.
    pub fn get(
        &self,
        crawl: &CrawlRecord,
        include_chained: bool,
        shards: usize,
    ) -> Arc<ThirdPartyExtract> {
        if shards <= 1 {
            return self.get_slice(crawl.full(), include_chained);
        }
        let key = Self::key(crawl.full(), include_chained);
        if let Some(found) = self.lookup(&key) {
            return found;
        }
        let parts: Vec<ThirdPartyExtract> = crawl
            .shards(shards)
            .into_iter()
            .map(|slice| (*self.get_slice(slice, include_chained)).clone())
            .collect();
        self.insert(key, merge(parts))
    }

    /// The extraction of one visit range, memoized under that range.
    fn get_slice(&self, slice: CrawlSlice<'_>, include_chained: bool) -> Arc<ThirdPartyExtract> {
        let key = Self::key(slice, include_chained);
        if let Some(found) = self.lookup(&key) {
            return found;
        }
        self.misses.inc();
        self.insert(key, scan(slice, include_chained, &self.hosts))
    }

    fn key(slice: CrawlSlice<'_>, include_chained: bool) -> ExtractKey {
        (
            slice.country,
            slice.corpus,
            include_chained,
            slice.offset,
            slice.offset + slice.len(),
        )
    }

    /// The memoized value under `key`, counting a hit when present.
    fn lookup(&self, key: &ExtractKey) -> Option<Arc<ThirdPartyExtract>> {
        let found = self
            .map
            .read()
            .expect("extract memo lock")
            .get(key)
            .cloned();
        if found.is_some() {
            self.hits.inc();
        }
        found
    }

    /// Caches `extract` under `key` unless a racing caller got there first.
    fn insert(&self, key: ExtractKey, extract: ThirdPartyExtract) -> Arc<ThirdPartyExtract> {
        let mut map = self.map.write().expect("extract memo lock");
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(extract)))
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redlight_net::tls::Certificate;

    fn cs(cn: &str, org: Option<&str>, serial: u64) -> CertSummary {
        (&Certificate::leaf(cn, org, vec![], serial)).into()
    }

    #[test]
    fn registrable_match_is_first_party() {
        assert_eq!(
            classify("pornhub.com", None, "cdn.pornhub.com", None),
            Party::First
        );
    }

    #[test]
    fn cert_identity_is_first_party() {
        let site = cs("site-a.com", Some("Acme Networks"), 1);
        let cdn = cs("static-acme.net", Some("Acme Networks"), 2);
        assert_eq!(
            classify("site-a.com", Some(&site), "static-acme.net", Some(&cdn)),
            Party::First
        );
    }

    #[test]
    fn levenshtein_groups_paper_example() {
        assert_eq!(
            classify("doublepimp.com", None, "doublepimpssl.com", None),
            Party::First
        );
        assert_eq!(
            classify("doublepimp.com", None, "doubleclick.net", None),
            Party::Third
        );
    }

    #[test]
    fn unrelated_hosts_are_third_party() {
        assert_eq!(
            classify("somesite.com", None, "exoclick.com", None),
            Party::Third
        );
    }
}
