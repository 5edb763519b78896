//! # redlight-websim
//!
//! A deterministic synthetic web ecosystem, calibrated from the aggregates
//! published in the IMC'19 study. It stands in for the live web the paper
//! crawled (see DESIGN.md, substitution table): organizations, publishers,
//! third-party services, websites with rank trajectories, landing pages,
//! tracker scripts, certificates, WHOIS records, per-country serving
//! behavior, and a VirusTotal-style threat-intel ensemble.
//!
//! The measurement pipeline (browser, crawlers, analyses) consumes **only**
//! the HTTP surface exposed by [`server::WebServer`]; ground truth inside
//! [`world::World`] is reserved for validation tests and the
//! manual-inspection [`oracle`].
//!
//! Everything is generated from a single seed: two worlds built with the
//! same [`config::WorldConfig`] are identical.

#![warn(missing_docs)]

pub mod catalog;
pub mod config;
pub mod content;
pub mod lists;
pub mod oracle;
pub mod org;
pub mod policygen;
pub mod scriptgen;
pub mod server;
pub mod service;
pub mod sitegen;
pub mod threat;
pub mod world;

pub use config::WorldConfig;
pub use org::{OrgId, OrgKind, Organization};
pub use server::{ClientContext, FetchOutcome, WebServer};
pub use service::{ServiceCategory, ServiceId, ThirdPartyService};
pub use sitegen::{Site, SiteId, SiteKind};
pub use world::World;
