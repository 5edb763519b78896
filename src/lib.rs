//! # redlight
//!
//! A web-privacy measurement platform for sensitive web ecosystems — a
//! from-scratch Rust reproduction of *"Tales from the Porn: A Comprehensive
//! Privacy Analysis of the Web Porn Ecosystem"* (IMC 2019).
//!
//! The platform builds a deterministic synthetic web (calibrated from the
//! paper's published aggregates), crawls it with an instrumented browser
//! (the OpenWPM analog) and an interaction crawler (the Selenium analog),
//! and reproduces every table and figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```no_run
//! use redlight::{Study, StudyConfig};
//!
//! // A ~20×-scaled-down study: full pipeline, every table and figure.
//! let results = Study::run(StudyConfig::small(42));
//! println!("{}", results.render_summary());
//! ```
//!
//! ## Crate map
//!
//! * [`core`] — the [`Study`] pipeline façade;
//! * [`websim`] — the synthetic internet (world model, server, catalog);
//! * [`browser`] — the instrumented browser;
//! * [`crawler`] — corpus compilation, OpenWPM/Selenium crawlers, the DB;
//! * [`analysis`] — every §3–§7 analysis;
//! * [`blocklist`] — the Adblock-Plus filter engine + entity lists;
//! * [`net`] / [`html`] / [`script`] / [`text`] / [`rankings`] — substrates;
//! * [`sim`] — simulated time for the million-visitor traffic workload:
//!   the discrete-event queue, the service model and the workload itself;
//! * [`report`] — table/figure rendering and paper-value comparisons.

#![warn(missing_docs)]

pub use redlight_analysis as analysis;
pub use redlight_blocklist as blocklist;
pub use redlight_browser as browser;
pub use redlight_core as core;
pub use redlight_crawler as crawler;
pub use redlight_html as html;
pub use redlight_net as net;
pub use redlight_obs as obs;
pub use redlight_rankings as rankings;
pub use redlight_report as report;
pub use redlight_script as script;
pub use redlight_sim as sim;
pub use redlight_text as text;
pub use redlight_websim as websim;

pub use redlight_core::{Study, StudyConfig, StudyResults};
pub use redlight_websim::{World, WorldConfig};
