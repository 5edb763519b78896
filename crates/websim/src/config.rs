//! World generation configuration.
//!
//! Defaults reproduce the paper's scale (§3): 342 directory-indexed porn
//! sites + 22 Alexa-Adult sites + 7,735 keyword-named candidates of which
//! 1,256 are false positives, for a sanitized corpus of 6,843; plus a
//! reference corpus of 9,688 regular websites. [`WorldConfig::small`] builds
//! a proportionally scaled-down world for unit tests and benches.

/// Parameters controlling world generation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Master seed; every stochastic choice derives from it.
    pub seed: u64,
    /// Porn sites listed by the specialized directory/aggregator sites.
    pub(crate) n_directory_porn: usize,
    /// Porn sites indexed by the Alexa-style *Adult* category.
    pub n_alexa_adult_porn: usize,
    /// Sites whose domain contains a porn-related keyword (true porn +
    /// false positives).
    n_keyword_sites: usize,
    /// Of the keyword sites, how many are false positives (non-porn content
    /// or unresponsive at crawl time).
    pub n_false_positives: usize,
    /// Regular (reference) websites drawn from the popular web.
    pub(crate) n_regular: usize,
    /// Long-tail tracker services specialized in the adult ecosystem.
    pub(crate) n_longtail_trackers: usize,
    /// Long-tail tracker services of the regular web.
    pub(crate) n_regular_trackers: usize,
}

impl WorldConfig {
    /// Paper-scale world (§3 counts).
    pub fn paper_scale(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_directory_porn: 342,
            n_alexa_adult_porn: 22,
            n_keyword_sites: 7_735,
            n_false_positives: 1_256,
            n_regular: 9_688,
            n_longtail_trackers: 3_400,
            n_regular_trackers: 160,
        }
    }

    /// A ~20× smaller world with the same proportions, for tests/benches.
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_directory_porn: 18,
            n_alexa_adult_porn: 4,
            n_keyword_sites: 380,
            n_false_positives: 62,
            n_regular: 480,
            n_longtail_trackers: 170,
            n_regular_trackers: 8,
        }
    }

    /// A tiny world for fast unit tests.
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_directory_porn: 6,
            n_alexa_adult_porn: 2,
            n_keyword_sites: 80,
            n_false_positives: 13,
            n_regular: 90,
            n_longtail_trackers: 40,
            n_regular_trackers: 10,
        }
    }

    /// The same world grown `factor`× in every population: site sources,
    /// false positives, the regular reference corpus and both tracker
    /// long tails all scale multiplicatively, so the grown world keeps the
    /// paper's proportions (`reproduce --sites-scale <n>`). `factor == 1`
    /// returns the config unchanged.
    pub fn scaled(mut self, factor: usize) -> Self {
        self.n_directory_porn *= factor;
        self.n_alexa_adult_porn *= factor;
        self.n_keyword_sites *= factor;
        self.n_false_positives *= factor;
        self.n_regular *= factor;
        self.n_longtail_trackers *= factor;
        self.n_regular_trackers *= factor;
        self
    }

    /// Total porn-candidate count before sanitization (the paper's 8,099).
    pub fn candidate_count(&self) -> usize {
        self.n_directory_porn + self.n_alexa_adult_porn + self.n_keyword_sites
    }

    /// Sanitized porn-corpus size (the paper's 6,843).
    pub fn sanitized_count(&self) -> usize {
        self.candidate_count() - self.n_false_positives
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_section3() {
        let c = WorldConfig::paper_scale(1);
        assert_eq!(c.candidate_count(), 8_099);
        assert_eq!(c.sanitized_count(), 6_843);
        assert_eq!(c.n_regular, 9_688);
    }

    #[test]
    fn scaled_multiplies_every_population() {
        let base = WorldConfig::tiny(7);
        let grown = base.clone().scaled(4);
        assert_eq!(grown.candidate_count(), base.candidate_count() * 4);
        assert_eq!(grown.sanitized_count(), base.sanitized_count() * 4);
        assert_eq!(grown.n_regular, base.n_regular * 4);
        assert_eq!(grown.n_longtail_trackers, base.n_longtail_trackers * 4);
        assert_eq!(base.clone().scaled(1), base);
    }

    #[test]
    fn small_world_keeps_proportions() {
        let c = WorldConfig::small(1);
        let fp_ratio = c.n_false_positives as f64 / c.n_keyword_sites as f64;
        let paper = WorldConfig::paper_scale(1);
        let paper_ratio = paper.n_false_positives as f64 / paper.n_keyword_sites as f64;
        assert!((fp_ratio - paper_ratio).abs() < 0.03);
    }
}
