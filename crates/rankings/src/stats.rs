//! Rank statistics and the popularity tiers used across the paper's tables.

use crate::trajectory::RankHistory;

/// The popularity intervals of Tables 3 and 6, keyed by a site's **highest**
/// (best) Alexa rank throughout 2018.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PopularityTier {
    /// Best rank in 1–1,000.
    Top1k,
    /// Best rank in 1,001–10,000.
    To10k,
    /// Best rank in 10,001–100,000.
    To100k,
    /// Best rank beyond 100,000 — or never indexed at all.
    Beyond100k,
}

impl PopularityTier {
    /// All tiers in table order.
    pub const ALL: [PopularityTier; 4] = [
        PopularityTier::Top1k,
        PopularityTier::To10k,
        PopularityTier::To100k,
        PopularityTier::Beyond100k,
    ];

    /// Classifies a best rank (use `None` for never-indexed sites).
    pub fn from_best_rank(best: Option<u32>) -> PopularityTier {
        match best {
            Some(r) if r <= 1_000 => PopularityTier::Top1k,
            Some(r) if r <= 10_000 => PopularityTier::To10k,
            Some(r) if r <= 100_000 => PopularityTier::To100k,
            _ => PopularityTier::Beyond100k,
        }
    }

    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            PopularityTier::Top1k => "0 — 1k",
            PopularityTier::To10k => "1k — 10k",
            PopularityTier::To100k => "10k — 100k",
            PopularityTier::Beyond100k => "100k+",
        }
    }
}

/// Summary statistics over one site's rank history (the per-site series
/// behind Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankStats {
    /// Best.
    pub best: Option<u32>,
    /// Median.
    pub median: Option<u32>,
    /// Fraction of days in the toplist, `[0, 1]`.
    pub presence: f64,
    /// Tier.
    pub tier: PopularityTier,
}

impl RankStats {
    /// Computes the summary from a history.
    pub fn from_history(history: &RankHistory) -> RankStats {
        let best = history.best();
        RankStats {
            best,
            median: history.median(),
            presence: history.presence(),
            tier: PopularityTier::from_best_rank(best),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_boundaries() {
        assert_eq!(
            PopularityTier::from_best_rank(Some(1)),
            PopularityTier::Top1k
        );
        assert_eq!(
            PopularityTier::from_best_rank(Some(1_000)),
            PopularityTier::Top1k
        );
        assert_eq!(
            PopularityTier::from_best_rank(Some(1_001)),
            PopularityTier::To10k
        );
        assert_eq!(
            PopularityTier::from_best_rank(Some(10_000)),
            PopularityTier::To10k
        );
        assert_eq!(
            PopularityTier::from_best_rank(Some(10_001)),
            PopularityTier::To100k
        );
        assert_eq!(
            PopularityTier::from_best_rank(Some(100_000)),
            PopularityTier::To100k
        );
        assert_eq!(
            PopularityTier::from_best_rank(Some(100_001)),
            PopularityTier::Beyond100k
        );
        assert_eq!(
            PopularityTier::from_best_rank(None),
            PopularityTier::Beyond100k
        );
    }

    #[test]
    fn stats_from_history() {
        let h = RankHistory {
            daily: vec![Some(500), None, Some(2_000), Some(800)],
        };
        let s = RankStats::from_history(&h);
        assert_eq!(s.best, Some(500));
        assert_eq!(s.median, Some(800));
        assert!((s.presence - 0.75).abs() < 1e-9);
        assert_eq!(s.tier, PopularityTier::Top1k);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PopularityTier::Top1k.label(), "0 — 1k");
        assert_eq!(PopularityTier::Beyond100k.label(), "100k+");
    }
}
