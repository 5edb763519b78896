//! Cookie-synchronization detection (§5.1.2, Fig. 4).
//!
//! Browsers wall cookies off per origin, so trackers share identifiers by
//! embedding their cookie **values** in URLs they redirect partners to. The
//! detector checks whether any observed cookie value later appears inside a
//! request URL to a different organization. Like the paper, values are
//! matched whole — never split on `-`/`=` delimiters — giving a lower-bound
//! estimate.

use std::collections::{BTreeMap, BTreeSet};

use crate::util::{reg, same_site};
use redlight_crawler::db::CrawlRecord;
use redlight_text::stats::pct;

/// One syncing pair of domains.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SyncPair {
    /// Registrable domain whose cookie value leaked.
    pub origin: String,
    /// Registrable domain that received it.
    pub destination: String,
}

/// Aggregated sync findings.
#[derive(Debug, Clone)]
pub struct SyncReport {
    /// Porn sites on which at least one sync flow was observed.
    pub sites_with_sync: usize,
    /// Distinct `(origin, destination)` pairs with exchange counts.
    pub pairs: BTreeMap<SyncPair, usize>,
    /// Distinct origin domains.
    pub origins: usize,
    /// Distinct destination domains.
    pub destinations: usize,
    /// Fraction of the most popular `top_k` sites with syncing (the paper
    /// reports 58 % of the Alexa top-100 porn sites).
    pub top_sites_with_sync_pct: f64,
}

impl SyncReport {
    /// Pairs exchanging at least `min` cookies (the Fig. 4 edge filter).
    pub fn heavy_pairs(&self, min: usize) -> Vec<(&SyncPair, usize)> {
        let mut v: Vec<(&SyncPair, usize)> = self
            .pairs
            .iter()
            .filter(|(_, n)| **n >= min)
            .map(|(p, n)| (p, *n))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }
}

/// Minimum cookie-value length to consider (whole-value floor): shorter
/// values would false-positive against ordinary query values.
const MIN_VALUE_LEN: usize = 8;

/// Detector knobs (DESIGN.md ablation 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncOptions {
    /// Additionally match on cookie-value *fragments* split on
    /// `-`/`=`/`|`/`.` (both on the cookie side and inside URL parameter
    /// values). The paper deliberately does NOT do this ("to avoid
    /// introducing false positives, we do not split the cookie value by
    /// delimiters"), so the default is off; `tests/ablations.rs` turns it
    /// on to pin the precision cost — every pair it adds leaks a site's own
    /// first-party value.
    pub split_delimiters: bool,
}

/// Detects syncing across a crawl in two passes: register every cookie
/// value with its earliest setter, then match request parameters against
/// the registrations (session order is honoured via the first-set index).
/// `ranked_sites` orders sites by best Alexa rank for the top-`top_k`
/// statistic; `SyncOptions::default()` is the paper's detector.
pub fn detect(
    crawl: &CrawlRecord,
    ranked_sites: &[String],
    top_k: usize,
    options: SyncOptions,
) -> SyncReport {
    let regs = registrations(crawl, options);
    let (pairs, sites) = matches(crawl, &regs, options);
    let origins: BTreeSet<&str> = pairs.keys().map(|p| p.origin.as_str()).collect();
    let destinations: BTreeSet<&str> = pairs.keys().map(|p| p.destination.as_str()).collect();
    let top: Vec<&String> = ranked_sites.iter().take(top_k).collect();
    let top_with = top.iter().filter(|s| sites.contains(s.as_str())).count();

    SyncReport {
        sites_with_sync: sites.len(),
        origins: origins.len(),
        destinations: destinations.len(),
        pairs,
        top_sites_with_sync_pct: pct(top_with, top.len().max(1)),
    }
}

/// Pass 1: each qualifying cookie value (or fragment) mapped to the
/// registrable domain that owns it and the index of the visit that first
/// set it. The session registers cookies visit by visit, so a value only
/// syncs at visits at-or-after its first registration.
fn registrations(crawl: &CrawlRecord, options: SyncOptions) -> BTreeMap<String, (String, usize)> {
    // Cookie values observed in the session, with their owning domain and
    // first-setting visit, from MIN_VALUE_LEN chars up.
    let mut out = BTreeMap::new();
    for (idx, record) in crawl.visits.iter().enumerate() {
        for obs in &record.visit.cookies {
            if !obs.accepted {
                continue;
            }
            let owner = reg(&obs.effective_domain).to_string();
            if obs.cookie.value.chars().count() >= MIN_VALUE_LEN {
                out.entry(obs.cookie.value.clone())
                    .or_insert_with(|| (owner.clone(), idx));
            }
            if options.split_delimiters {
                for fragment in obs.cookie.value.split(['-', '=', '|', '.']) {
                    if fragment.chars().count() >= MIN_VALUE_LEN {
                        out.entry(fragment.to_string())
                            .or_insert_with(|| (owner.clone(), idx));
                    }
                }
            }
        }
    }
    out
}

/// Pass 2: matches query values against the registrations, honouring
/// session order via the first-set index. Returns the sync pairs with
/// their exchange counts and the sites they were observed on.
fn matches(
    crawl: &CrawlRecord,
    regs: &BTreeMap<String, (String, usize)>,
    options: SyncOptions,
) -> (BTreeMap<SyncPair, usize>, BTreeSet<String>) {
    let mut pairs: BTreeMap<SyncPair, usize> = BTreeMap::new();
    let mut sites = BTreeSet::new();
    for (idx, record) in crawl.visits.iter().enumerate() {
        let mut synced_here = false;
        for req in &record.visit.requests {
            if req.url.query().is_none() {
                continue;
            }
            let dest_host = req.url.host().as_str();
            // Whole-value matching against decoded query parameter values:
            // a hash lookup per parameter keeps the scan linear at crawl
            // scale. Values hidden *inside* longer strings are missed — the
            // same lower-bound stance as the paper's no-delimiter-splitting
            // rule.
            for (_, value) in req.url.query_pairs() {
                let mut candidates: Vec<&str> = Vec::new();
                if value.chars().count() >= MIN_VALUE_LEN {
                    candidates.push(value.as_str());
                }
                if options.split_delimiters {
                    candidates.extend(
                        value
                            .split(['-', '=', '|', '.'])
                            .filter(|f| f.chars().count() >= MIN_VALUE_LEN),
                    );
                }
                for candidate in candidates {
                    let Some((owner, first_set)) = regs.get(candidate) else {
                        continue;
                    };
                    if *first_set > idx {
                        continue; // only set later in the session
                    }
                    let dest = reg(dest_host).to_string();
                    if same_site(owner, &dest) {
                        continue; // first-party echo, not a sync
                    }
                    *pairs
                        .entry(SyncPair {
                            origin: owner.clone(),
                            destination: dest,
                        })
                        .or_default() += 1;
                    synced_here = true;
                }
            }
        }
        if synced_here {
            sites.insert(crawl.name(record.domain).to_string());
        }
    }
    (pairs, sites)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_matches_paper_rules() {
        assert_eq!(MIN_VALUE_LEN, 8);
        assert!(
            !SyncOptions::default().split_delimiters,
            "paper: never split on delimiters"
        );
    }

    #[test]
    fn heavy_pair_filter_orders_by_count() {
        let mut pairs = BTreeMap::new();
        pairs.insert(
            SyncPair {
                origin: "a.com".into(),
                destination: "b.com".into(),
            },
            100,
        );
        pairs.insert(
            SyncPair {
                origin: "c.com".into(),
                destination: "d.com".into(),
            },
            3,
        );
        let report = SyncReport {
            sites_with_sync: 2,
            pairs,
            origins: 2,
            destinations: 2,
            top_sites_with_sync_pct: 0.0,
        };
        let heavy = report.heavy_pairs(50);
        assert_eq!(heavy.len(), 1);
        assert_eq!(heavy[0].0.origin, "a.com");
    }
}
