//! Daily rank trajectories.
//!
//! A site's daily rank is modeled as `base_rank · exp(x_t)` where `x_t`
//! follows a stationary AR(1) process. Days on which the modeled rank falls
//! below the top-1M cutoff are recorded as *absent* — exactly how a site
//! drops out of the published Alexa list.

use rand::prelude::*;

/// Days in the simulated year (2018).
pub const DAYS_IN_YEAR: usize = 365;

/// The toplist cutoff: Alexa publishes the top one million sites.
pub const TOPLIST_SIZE: u32 = 1_000_000;

/// Parameters of the AR(1) rank model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryParams {
    /// AR(1) persistence in `[0, 1)`; higher ⇒ smoother trajectories.
    pub persistence: f64,
    /// Innovation standard deviation of the log-rank process.
    pub volatility: f64,
    /// Number of days to simulate.
    pub days: usize,
}

/// A site's daily rank series; `None` marks days outside the top-1M.
#[derive(Debug, Clone, PartialEq)]
pub struct RankHistory {
    /// Daily.
    pub daily: Vec<Option<u32>>,
}

impl RankHistory {
    /// Best (numerically lowest) rank achieved, when ever indexed.
    pub fn best(&self) -> Option<u32> {
        self.daily.iter().flatten().copied().min()
    }

    /// Median of indexed-day ranks (lower median), when ever indexed.
    pub(crate) fn median(&self) -> Option<u32> {
        let mut present: Vec<u32> = self.daily.iter().flatten().copied().collect();
        if present.is_empty() {
            return None;
        }
        present.sort_unstable();
        Some(present[(present.len() - 1) / 2])
    }

    /// Fraction of days the site appeared in the toplist, in `[0, 1]`.
    pub(crate) fn presence(&self) -> f64 {
        if self.daily.is_empty() {
            return 0.0;
        }
        self.daily.iter().filter(|d| d.is_some()).count() as f64 / self.daily.len() as f64
    }

    /// `true` when the site was indexed on every simulated day.
    pub fn always_present(&self) -> bool {
        !self.daily.is_empty() && self.daily.iter().all(|d| d.is_some())
    }

    /// `true` when the site never left the top-`k` over the whole period.
    pub fn always_within(&self, k: u32) -> bool {
        !self.daily.is_empty() && self.daily.iter().all(|d| d.is_some_and(|r| r <= k))
    }
}

/// A standard normal sample via Box–Muller (rand ships no normal
/// distribution and this repo adds no extra dependencies).
fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The daily log-rank multipliers of the AR(1) process (rank on day `t` is
/// `base · exp(m[t])`). Exposed separately so callers can re-anchor the
/// same noise path to a different base — e.g. pinning the realized **best**
/// rank, which is what the paper's tables key on.
fn log_multipliers(params: &TrajectoryParams, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let phi = params.persistence.clamp(0.0, 0.999);
    // Start the process from its stationary distribution so day 0 is not
    // special: stationary sd = volatility / sqrt(1 - phi^2).
    let stationary_sd = params.volatility / (1.0 - phi * phi).sqrt();
    let mut x = standard_normal(&mut rng) * stationary_sd;
    (0..params.days)
        .map(|_| {
            x = phi * x + params.volatility * standard_normal(&mut rng);
            x
        })
        .collect()
}

/// Builds a history from a base rank and a multiplier path. Ranks beyond the
/// top-1M cutoff become absent days.
fn history_from_multipliers(base: f64, multipliers: &[f64]) -> RankHistory {
    let daily = multipliers
        .iter()
        .map(|m| {
            let rank = (base * m.exp()).round();
            if rank >= 1.0 && rank <= TOPLIST_SIZE as f64 {
                Some(rank as u32)
            } else if rank < 1.0 {
                Some(1)
            } else {
                None
            }
        })
        .collect();
    RankHistory { daily }
}

/// Simulates a trajectory whose realized **best** (lowest) rank equals
/// `target_best` exactly: the noise path is re-anchored so its minimum lands
/// on the target. This matches how the study keys sites by their highest
/// Alexa rank throughout 2018 (Tables 1, 3, 6).
pub fn trajectory_with_best(params: &TrajectoryParams, target_best: u32, seed: u64) -> RankHistory {
    let mults = log_multipliers(params, seed);
    let min = mults.iter().copied().fold(f64::INFINITY, f64::min);
    let base = target_best.max(1) as f64 / min.exp();
    history_from_multipliers(base, &mults)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sticky ranks with moderate churn.
    const STICKY: TrajectoryParams = TrajectoryParams {
        persistence: 0.9,
        volatility: 0.25,
        days: DAYS_IN_YEAR,
    };

    #[test]
    fn deterministic_for_same_seed() {
        let h = |seed| trajectory_with_best(&STICKY, 5_000, seed);
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn popular_sites_never_leave_the_list() {
        assert!(trajectory_with_best(&STICKY, 100, 7).always_present());
    }

    #[test]
    fn marginal_sites_churn_in_and_out() {
        let p = TrajectoryParams {
            volatility: 0.5,
            ..STICKY
        };
        // Volatile enough that a best rank of 20,000 still leaves the top 1M
        // on some days.
        let presence = trajectory_with_best(&p, 20_000, 11).presence();
        assert!(presence > 0.05 && presence < 1.0, "presence = {presence}");
    }

    #[test]
    fn empty_history_stats() {
        let h = RankHistory { daily: vec![] };
        assert_eq!(h.best(), None);
        assert_eq!(h.median(), None);
        assert_eq!(h.presence(), 0.0);
        assert!(!h.always_present());
    }

    #[test]
    fn never_indexed_site() {
        let h = RankHistory {
            daily: vec![None; 10],
        };
        assert_eq!(h.best(), None);
        assert_eq!(h.presence(), 0.0);
    }

    #[test]
    fn always_within_bounds() {
        let h = RankHistory {
            daily: vec![Some(5), Some(900), Some(50)],
        };
        assert!(h.always_within(1_000));
        assert!(!h.always_within(100));
    }

    #[test]
    fn pinned_best_rank_is_exact() {
        let p = TrajectoryParams {
            volatility: 0.6,
            ..STICKY
        };
        for (target, seed) in [(22u32, 1u64), (5_301, 2), (122_227, 3)] {
            let h = trajectory_with_best(&p, target, seed);
            assert_eq!(h.best(), Some(target), "seed {seed}");
        }
    }

    #[test]
    fn rank_one_floor() {
        let p = TrajectoryParams {
            persistence: 0.5,
            volatility: 0.3,
            days: 50,
        };
        let h = history_from_multipliers(1.0, &log_multipliers(&p, 5));
        assert!(h.daily.iter().flatten().all(|&r| r >= 1));
    }
}
