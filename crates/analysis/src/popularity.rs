//! Popularity analyses: the Fig. 1 rank-stability series and the Table 3
//! third-party-by-tier breakdown.

use std::collections::{BTreeMap, BTreeSet};

use redlight_rankings::{PopularityTier, RankHistory, RankStats};

use crate::thirdparty::ThirdPartyExtract;

/// One Fig. 1 point: a site with its longitudinal rank summary.
#[derive(Debug, Clone)]
pub struct Fig1Point {
    /// Domain.
    pub domain: String,
    /// Best.
    pub best: Option<u32>,
    /// Median.
    pub median: Option<u32>,
    /// Fraction of 2018 days inside the top-1M.
    pub presence: f64,
}

/// The Fig. 1 series plus its headline statistics.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Points ordered by best rank (the paper's x-axis).
    pub points: Vec<Fig1Point>,
    /// Sites present in the top-1M on every day of 2018.
    pub always_top1m: usize,
    /// Always top1m percentage.
    pub always_top1m_pct: f64,
    /// Sites never leaving the top-1k.
    pub always_top1k: usize,
}

/// Builds Fig. 1 from per-domain rank histories (the longitudinal toplist
/// dataset of §3).
pub fn fig1(histories: &BTreeMap<String, RankHistory>) -> Fig1 {
    let mut points: Vec<Fig1Point> = histories
        .iter()
        .map(|(domain, h)| {
            let stats = RankStats::from_history(h);
            Fig1Point {
                domain: domain.clone(),
                best: stats.best,
                median: stats.median,
                presence: stats.presence,
            }
        })
        .collect();
    points.sort_by_key(|p| p.best.unwrap_or(u32::MAX));
    let always_top1m = histories.values().filter(|h| h.always_present()).count();
    let always_top1k = histories
        .values()
        .filter(|h| h.always_within(1_000))
        .count();
    Fig1 {
        always_top1m_pct: redlight_text::stats::pct(always_top1m, histories.len().max(1)),
        always_top1m,
        always_top1k,
        points,
    }
}

/// One Table 3 band.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Tier.
    pub tier: PopularityTier,
    /// Sites.
    pub sites: usize,
    /// Third-party FQDNs observed on sites of this tier.
    pub third_party_total: usize,
    /// FQDNs appearing on this tier only.
    pub third_party_unique: usize,
}

/// §4.2.2 extras accompanying Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Rows.
    pub rows: Vec<Table3Row>,
    /// In all tiers percentage.
    pub in_all_tiers_pct: f64,
    /// Third-party FQDNs appearing only on 100k+ sites.
    pub only_unpopular_pct: f64,
}

/// Builds Table 3.
pub fn table3(extract: &ThirdPartyExtract, tier_of: &BTreeMap<String, PopularityTier>) -> Table3 {
    let mut per_tier: BTreeMap<PopularityTier, BTreeSet<&str>> = BTreeMap::new();
    let mut site_count: BTreeMap<PopularityTier, usize> = BTreeMap::new();
    for (site, parties) in &extract.per_site {
        let tier = tier_of
            .get(site)
            .copied()
            .unwrap_or(PopularityTier::Beyond100k);
        *site_count.entry(tier).or_default() += 1;
        let set = per_tier.entry(tier).or_default();
        for f in &parties.third {
            set.insert(f.as_str());
        }
    }

    let tier_count_of = |fqdn: &str| {
        PopularityTier::ALL
            .iter()
            .filter(|t| per_tier.get(t).is_some_and(|s| s.contains(fqdn)))
            .count()
    };

    let rows: Vec<Table3Row> = PopularityTier::ALL
        .into_iter()
        .map(|tier| {
            let fqdns = per_tier.get(&tier).cloned().unwrap_or_default();
            let unique = fqdns.iter().filter(|f| tier_count_of(f) == 1).count();
            Table3Row {
                tier,
                sites: site_count.get(&tier).copied().unwrap_or(0),
                third_party_total: fqdns.len(),
                third_party_unique: unique,
            }
        })
        .collect();

    let all_fqdns = &extract.third_party_fqdns;
    let in_all = all_fqdns.iter().filter(|f| tier_count_of(f) == 4).count();
    let only_unpopular = all_fqdns
        .iter()
        .filter(|f| {
            tier_count_of(f) == 1
                && per_tier
                    .get(&PopularityTier::Beyond100k)
                    .is_some_and(|s| s.contains(f.as_str()))
        })
        .count();

    Table3 {
        rows,
        in_all_tiers_pct: redlight_text::stats::pct(in_all, all_fqdns.len().max(1)),
        only_unpopular_pct: redlight_text::stats::pct(only_unpopular, all_fqdns.len().max(1)),
    }
}

/// Derives each crawled domain's tier from the toplist histories — the
/// observable mapping the other analyses key on.
pub fn tiers_from_histories(
    histories: &BTreeMap<String, RankHistory>,
) -> BTreeMap<String, PopularityTier> {
    histories
        .iter()
        .map(|(d, h)| (d.clone(), PopularityTier::from_best_rank(h.best())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_orders_and_counts() {
        let mut hist = BTreeMap::new();
        hist.insert(
            "always.com".to_string(),
            RankHistory {
                daily: vec![Some(10); 5],
            },
        );
        hist.insert(
            "flaky.com".to_string(),
            RankHistory {
                daily: vec![Some(900_000), None, None, Some(800_000), None],
            },
        );
        let fig = fig1(&hist);
        assert_eq!(fig.points[0].domain, "always.com");
        assert_eq!(fig.always_top1m, 1);
        assert_eq!(fig.always_top1k, 1);
        assert!((fig.points[1].presence - 0.4).abs() < 1e-9);
    }
}
