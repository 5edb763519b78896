//! Deterministic discrete-event simulation for the redlight measurement
//! pipeline.
//!
//! The synthetic web answers every request instantly. The traffic
//! workload is where elapsed time is the product — how long many
//! concurrent visitors wait on shared hosts — so this crate gives it
//! logical time and a discrete-event queue. The crawls record what OpenWPM
//! records (requests, cookies, JavaScript calls) and run without a clock.
//!
//! * [`queue`] — [`SimTime`] and the stable-order [`EventQueue`]
//!   (`(time, seq)` tie-breaking).
//! * [`traffic`] — the million-visitor load-generator workload
//!   ([`run_traffic`]): one event loop over the sessions and the host
//!   pools, reporting throughput and latency percentiles through `obs`
//!   histograms.
//!
//! Two private modules serve the workload: `service`, the per-request
//! service model and per-host connection pools, and `flight`, the bounded
//! flight-recorder ring that freezes the causal neighborhood of SLO
//! violations into the journal.
//!
//! Everything is seeded and wall-clock-free: same seed ⇒ same event log,
//! same report, bit for bit.

#![warn(missing_docs)]

mod flight;
pub mod queue;
mod service;
pub mod traffic;

pub use queue::{EventQueue, SimTime};
pub use traffic::{
    run_traffic, TierRow, TimelineReport, TimelineSpec, TrafficConfig, TrafficReport,
};
