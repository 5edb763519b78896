//! Deterministic discrete-event simulation for the redlight measurement
//! pipeline.
//!
//! The synthetic web answers every request instantly, so a crawl has no
//! real time to wait out. This crate adds logical time and a
//! discrete-event queue so elapsed time becomes a first-class simulated
//! quantity:
//!
//! * [`queue`] — [`SimTime`] and the stable-order [`EventQueue`]
//!   (`(time, seq)` tie-breaking).
//! * [`service`] — the per-request [`ServiceModel`] and per-host
//!   connection [`HostPool`]s.
//! * [`transport`] — [`SimTransport`], hosting every crawl's transport
//!   stack on the logical clock so crawler retries and fault stalls cost
//!   logical time without changing any outcome.
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
pub mod transport;

pub use flight::{FlightEvent, FlightKind, FlightRecorder, FlightSnapshot};
pub use queue::{EventQueue, SimTime};
pub use service::{HostPool, ServiceModel};
pub use traffic::{
    run_traffic, TierRow, TimelineReport, TimelineSpec, TrafficConfig, TrafficReport,
};
pub use transport::{SimHandle, SimTransport};
