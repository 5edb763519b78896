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
//! * [`service`] — the per-request [`ServiceModel`] and per-host
//!   connection [`HostPool`]s.
//! * [`traffic`] — the million-visitor load-generator workload
//!   ([`run_traffic`]): one event loop over the sessions and the host
//!   pools, reporting throughput and latency percentiles through `obs`
//!   histograms.
//! * [`flight`] — the bounded [`FlightRecorder`] ring that freezes the
//!   causal neighborhood of SLO violations into the journal.
//!
//! Everything is seeded and wall-clock-free: same seed ⇒ same event log,
//! same report, bit for bit.

#![warn(missing_docs)]

pub mod flight;
pub mod queue;
pub mod service;
pub mod traffic;

pub use flight::{FlightEvent, FlightKind, FlightRecorder, FlightSnapshot};
pub use queue::{EventQueue, SimTime};
pub use service::{HostPool, ServiceModel};
pub use traffic::{
    run_traffic, TierRow, TimelineReport, TimelineSpec, TrafficConfig, TrafficReport,
};
