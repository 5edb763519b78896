//! Cookie-synchronization detection (§5.1.2, Fig. 4).
//!
//! Browsers wall cookies off per origin, so trackers share identifiers by
//! embedding their cookie **values** in URLs they redirect partners to. The
//! detector checks whether any observed cookie value later appears inside a
//! request URL to a different organization. Like the paper, values are
//! matched whole — never split on `-`/`=` delimiters — giving a lower-bound
//! estimate.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::util::{reg, same_site};
use redlight_crawler::db::CrawlRecord;
use redlight_crawler::store::CrawlSlice;

/// One syncing pair of domains.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SyncPair {
    /// Registrable domain whose cookie value leaked.
    pub origin: String,
    /// Registrable domain that received it.
    pub destination: String,
}

/// Aggregated sync findings.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// Detector knobs (DESIGN.md ablation 3).
#[derive(Debug, Clone, Copy)]
pub struct SyncOptions {
    /// Minimum cookie-value length to consider (whole-value floor).
    pub min_value_len: usize,
    /// Additionally match on cookie-value *fragments* split on
    /// `-`/`=`/`|`/`.` (both on the cookie side and inside URL parameter
    /// values). The paper deliberately does NOT do this ("to avoid
    /// introducing false positives, we do not split the cookie value by
    /// delimiters"), so the default is off; `tests/ablations.rs` turns it
    /// on to pin the precision cost — every pair it adds leaks a site's own
    /// first-party value.
    pub split_delimiters: bool,
}

impl Default for SyncOptions {
    fn default() -> Self {
        SyncOptions {
            min_value_len: 8,
            split_delimiters: false,
        }
    }
}

/// Detects syncing across a crawl with the paper's defaults. `ranked_sites`
/// orders sites by best Alexa rank for the top-`top_k` statistic.
pub fn detect(crawl: &CrawlRecord, ranked_sites: &[String], top_k: usize) -> SyncReport {
    detect_with_options(crawl, ranked_sites, top_k, SyncOptions::default())
}

/// Detects syncing with explicit options.
pub fn detect_with_options(
    crawl: &CrawlRecord,
    ranked_sites: &[String],
    top_k: usize,
    options: SyncOptions,
) -> SyncReport {
    // The detector is defined as the two-pass map/reduce run on a single
    // shard, so sharded runs reproduce it by construction.
    let regs = scan_registrations(crawl.full(), options);
    let matches = scan_matches(crawl.full(), &regs, options);
    finalize(matches, ranked_sites, top_k)
}

/// Pass-1 result: each qualifying cookie value (or fragment) mapped to the
/// registrable domain that owns it and the **absolute** index of the visit
/// that first set it. The session registers cookies visit by visit, so a
/// value only syncs at visits at-or-after its first registration.
pub type SyncRegistrations = BTreeMap<String, (String, usize)>;

/// Pass-2 partial: sync pairs and syncing sites observed in one shard.
#[derive(Debug, Clone, Default)]
pub struct SyncMatches {
    pairs: BTreeMap<SyncPair, usize>,
    sites: BTreeSet<String>,
}

/// Merges per-shard registrations, keeping the globally earliest setter of
/// each value (shards cover disjoint visit ranges, so indices never tie).
pub fn merge_registrations(
    parts: impl IntoIterator<Item = SyncRegistrations>,
) -> SyncRegistrations {
    let mut out = SyncRegistrations::new();
    for part in parts {
        for (value, (owner, idx)) in part {
            match out.entry(value) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert((owner, idx));
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    if idx < e.get().1 {
                        e.insert((owner, idx));
                    }
                }
            }
        }
    }
    out
}

/// Merges per-shard match partials (counts add, site sets union).
pub fn merge_matches(parts: impl IntoIterator<Item = SyncMatches>) -> SyncMatches {
    let mut out = SyncMatches::default();
    for part in parts {
        for (pair, n) in part.pairs {
            *out.pairs.entry(pair).or_default() += n;
        }
        out.sites.extend(part.sites);
    }
    out
}

/// Builds the [`SyncReport`] from (merged) match partials.
pub fn finalize(matches: SyncMatches, ranked_sites: &[String], top_k: usize) -> SyncReport {
    let SyncMatches { pairs, sites } = matches;
    let origins: BTreeSet<&str> = pairs.keys().map(|p| p.origin.as_str()).collect();
    let destinations: BTreeSet<&str> = pairs.keys().map(|p| p.destination.as_str()).collect();
    let top: Vec<&String> = ranked_sites.iter().take(top_k).collect();
    let top_with = top.iter().filter(|s| sites.contains(s.as_str())).count();

    SyncReport {
        sites_with_sync: sites.len(),
        origins: origins.len(),
        destinations: destinations.len(),
        pairs,
        top_sites_with_sync_pct: crate::util::pct(top_with, top.len().max(1)),
    }
}

/// Pass 1 over one shard: registers cookie values set during its visits.
pub fn scan_registrations(slice: CrawlSlice<'_>, options: SyncOptions) -> SyncRegistrations {
    // Cookie values observed in the session, with their owning domain and
    // first-setting visit. Values shorter than 8 chars would false-positive
    // against ordinary query values.
    let mut out = SyncRegistrations::new();
    for (i, record) in slice.visits.iter().enumerate() {
        let idx = slice.offset + i;
        for obs in &record.visit.cookies {
            if !obs.accepted {
                continue;
            }
            let owner = reg(&obs.effective_domain).to_string();
            if obs.cookie.value.chars().count() >= options.min_value_len {
                out.entry(obs.cookie.value.clone())
                    .or_insert_with(|| (owner.clone(), idx));
            }
            if options.split_delimiters {
                for fragment in obs.cookie.value.split(['-', '=', '|', '.']) {
                    if fragment.chars().count() >= options.min_value_len {
                        out.entry(fragment.to_string())
                            .or_insert_with(|| (owner.clone(), idx));
                    }
                }
            }
        }
    }
    out
}

/// Pass 2 over one shard: matches query values against the **merged**
/// registrations, honouring session order via the first-set index.
pub fn scan_matches(
    slice: CrawlSlice<'_>,
    regs: &SyncRegistrations,
    options: SyncOptions,
) -> SyncMatches {
    let mut out = SyncMatches::default();
    for (i, record) in slice.visits.iter().enumerate() {
        let idx = slice.offset + i;
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
                if value.chars().count() >= options.min_value_len {
                    candidates.push(value.as_str());
                }
                if options.split_delimiters {
                    candidates.extend(
                        value
                            .split(['-', '=', '|', '.'])
                            .filter(|f| f.chars().count() >= options.min_value_len),
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
                    *out.pairs
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
            out.sites.insert(slice.name(record.domain).to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_matches_paper_rules() {
        let o = SyncOptions::default();
        assert_eq!(o.min_value_len, 8);
        assert!(!o.split_delimiters, "paper: never split on delimiters");
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
