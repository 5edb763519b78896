//! # redlight-obs
//!
//! The platform's telemetry spine: a deterministic, dependency-free
//! tracing + metrics layer shared by the crawler, the transport stack and
//! the analysis stages.
//!
//! Three pieces:
//!
//! * [`Registry`] — named counters / gauges / log-2 [`Histogram`]s over
//!   lock-free atomics. Handles are cheap clones; per-worker registries
//!   fold into the study-wide one with [`Registry::absorb`] in job order,
//!   so aggregate metrics are deterministic.
//! * [`Trace`] / [`Tracer`] — hierarchical spans recorded into per-shard
//!   buffers (one single-threaded [`Tracer`] per worker, shard names from
//!   job indices), merged by [`Trace::journal`] into a [`Journal`] whose
//!   ids and logical clock depend only on the span structure.
//! * Exporters — [`Journal::json_lines`], [`Journal::chrome_trace`]
//!   (Perfetto-loadable) and [`MetricsSnapshot::prometheus`]. All exported
//!   bytes are a pure function of the seed: wall-clock values stay
//!   in-memory (for `--timings`) and never reach an export.
//!
//! Everything is built so the *unobserved* path stays free: a disabled
//! [`Trace`] records nothing, and a standalone [`Counter`] is exactly the
//! `AtomicU64` the bespoke structs used before this crate existed.

#![warn(missing_docs)]

mod journal;
pub mod json;
mod metrics;
mod span;
mod timeline;

pub use journal::{Journal, JournalSpan};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsSnapshot, Registry, Unit,
    HISTOGRAM_BUCKETS,
};
pub use span::{AttrVal, SpanLink, Trace, Tracer};
pub use timeline::{SloEvent, SloKind, SloPolicy, SloTracker, Timeline, WindowHist, WindowRow};

/// The pair every observed entry point threads through the pipeline: a
/// span collector and a metrics registry.
#[derive(Debug, Clone, Default)]
pub struct ObsContext {
    /// Span collector.
    pub trace: Trace,
    /// Metrics registry.
    pub metrics: Registry,
}

impl ObsContext {
    /// An enabled context: spans recorded, metrics registered.
    pub fn new() -> Self {
        ObsContext {
            trace: Trace::new(),
            metrics: Registry::new(),
        }
    }

    /// The context the unobserved (default) entry points run with: span
    /// recording disabled, metrics land in a throwaway registry.
    pub fn disabled() -> Self {
        ObsContext {
            trace: Trace::disabled(),
            metrics: Registry::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.trace.is_enabled()
    }
}
