//! # redlight-crawler
//!
//! The study's data-collection layer (paper §3):
//!
//! * [`corpus`] — the semi-supervised corpus compilation: three sources
//!   (specialized directories, the Alexa Adult category, keyword search over
//!   the 2018 top-1M) plus manual-inspection sanitization;
//! * [`openwpm`] — the OpenWPM-style crawler: one long-lived browser
//!   session, landing pages only, 120 s timeout semantics, recording all
//!   HTTP/cookie/JS instrumentation into the measurement DB;
//! * [`selenium`] — the Selenium-style interaction crawler: age-gate
//!   detection and bypass (floating elements + 8-language keywords +
//!   parent/grandparent verification), privacy-policy retrieval, and
//!   monetization-signal collection;
//! * [`db`] — the measurement database (the OpenWPM SQLite stand-in),
//!   indexed by country × corpus, with per-crawl interned string tables;
//! * [`store`] — the columnar store: arena-backed string interning
//!   ([`store::StrTable`] / [`store::Sym`]) behind every crawl record;
//! * [`parallel`] — the study's one worker pool, which runs a job graph
//!   heaviest ready job first, and its telemetry plumbing: a plan's crawls
//!   (independent sessions, so no edges; within a crawl the session is
//!   sequential, preserving cookie-sync observability), and for
//!   `redlight-core` the analysis context's scans and stages;
//! * [`plan`] — the [`CrawlPlan`]: every crawl a study performs, declared
//!   as data and executed through one code path into a [`MeasurementDb`]
//!   with one [`CrawlTiming`] per crawl.
//!
//! Both crawlers run on one crate-private crawl session. It fetches
//! through the transport seam ([`redlight_net::transport`]): the crawl's
//! [`NetProfile`] — carried on the plan specs — assembles the stack (the
//! server, optional fault injection, a meter) and sets the visit
//! [`RetryPolicy`], so a plan fully describes the network weather it runs
//! under. The session's one retry loop counts every crawl's attempts,
//! retries and failed visits; like the paper's crawl, it records no time
//! per visit.

#![warn(missing_docs)]

pub mod corpus;
pub mod db;
pub mod openwpm;
pub mod parallel;
pub mod plan;
pub mod selenium;
mod session;
pub mod store;

pub use corpus::{CorpusCompiler, CorpusReport};
pub use db::{CrawlRecord, InteractionRecord, MeasurementDb, SiteVisitRecord};
pub use openwpm::OpenWpmCrawler;
pub use plan::{CrawlPlan, CrawlSpec, CrawlTiming, DomainSel, InteractionSpec};
pub use redlight_net::transport::{NetProfile, RetryPolicy};
pub use selenium::SeleniumCrawler;
pub use store::{StrTable, Sym};
