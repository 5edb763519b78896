//! # redlight-core
//!
//! The study façade: one call runs the complete IMC'19 reproduction —
//! corpus compilation, the OpenWPM-style crawls from six countries, the
//! Selenium-style interaction crawls, and every analysis — returning a
//! [`results::StudyResults`] with every table and figure.
//!
//! ```no_run
//! use redlight_core::{Study, StudyConfig};
//!
//! let results = Study::run(StudyConfig::small(42));
//! println!("{}", results.render_summary());
//! ```

#![warn(missing_docs)]

mod paper;
pub mod render;
pub mod results;
pub mod stages;
pub mod study;

pub use results::StudyResults;
pub use study::{Study, StudyConfig};

/// Adapter exposing the simulated VirusTotal ensemble as an analysis-side
/// threat feed: the analysis sees only detection counts per domain.
pub struct WorldThreatFeed<'w>(pub &'w redlight_websim::World);

impl redlight_analysis::ThreatFeed for WorldThreatFeed<'_> {
    fn detections(&self, domain: &str) -> u8 {
        self.0
            .scanners
            .detections(domain, self.0.truly_malicious(domain))
    }
}
