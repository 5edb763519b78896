//! Flight recorder: a bounded ring of recent traffic events.
//!
//! A million-session run delivers tens of millions of events; recording
//! them all would drown the journal. The recorder instead keeps only the
//! last `capacity` interesting events (arrivals, requests, faults,
//! retries, failures) in a fixed ring — O(1) per event, no allocation
//! after warm-up — and `FlightRecorder::freeze` clones the ring into a
//! named snapshot whenever something trips (an SLO violation). After the
//! run, `FlightRecorder::emit_spans` attaches each snapshot to the
//! journal as a `flight.freeze.N` span with one child span per ring
//! entry, so the causal neighborhood of a timeout storm is inspectable
//! in the trace viewer without having recorded everything.
//!
//! Everything is logical-time data, so frozen snapshots are as
//! deterministic as the schedule that produced them.

use std::collections::VecDeque;

use redlight_obs::Trace;

use crate::queue::SimTime;

/// What a recorded flight event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A visitor session arrived.
    Arrive,
    /// A session issued its page document request.
    DocRequest,
    /// A session issued a subresource request.
    SubRequest,
    /// A request completed successfully.
    Served,
    /// A request completed with a failure outcome.
    Failed,
    /// The fault injector fired on a request.
    Fault,
    /// A failed request was scheduled for retry (with backoff).
    Retry,
    /// A session exhausted its retry budget and failed outright.
    SessionFailed,
}

impl FlightKind {
    /// Stable label used for journal span names.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            FlightKind::Arrive => "arrive",
            FlightKind::DocRequest => "doc_request",
            FlightKind::SubRequest => "sub_request",
            FlightKind::Served => "served",
            FlightKind::Failed => "failed",
            FlightKind::Fault => "fault",
            FlightKind::Retry => "retry",
            FlightKind::SessionFailed => "session_failed",
        }
    }
}

/// One entry in the flight ring. Plain `Copy` data so recording is a
/// ring write, nothing more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Logical delivery time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: FlightKind,
    /// Session slot involved (`u32::MAX` when not applicable).
    pub slot: u32,
    /// Host index involved (`u32::MAX` when not applicable).
    pub host: u32,
    /// Retry attempt number (0 = first try).
    pub attempt: u8,
}

/// A frozen copy of the ring, taken at a trip point.
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// Why the freeze happened (e.g. `latency`, `error_budget`).
    reason: &'static str,
    /// Timeline window index that tripped.
    pub window: u64,
    /// Logical time of the freeze.
    pub at: SimTime,
    /// Ring contents, oldest first.
    pub events: Vec<FlightEvent>,
}

/// The recorder: one ring, a few frozen snapshots.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    max_snapshots: usize,
    ring: VecDeque<FlightEvent>,
    snapshots: Vec<FlightSnapshot>,
    suppressed: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events and at most
    /// `max_snapshots` freezes (later trips are counted, not stored).
    pub(crate) fn new(capacity: usize, max_snapshots: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            max_snapshots,
            ring: VecDeque::with_capacity(capacity),
            snapshots: Vec::new(),
            suppressed: 0,
        }
    }

    /// Appends one event, evicting the oldest when full.
    pub(crate) fn record(&mut self, event: FlightEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(event);
    }

    /// Freezes the current ring under `reason`. Snapshots beyond the cap
    /// are suppressed (counted only) so a flapping SLO cannot bloat the
    /// journal.
    pub(crate) fn freeze(&mut self, reason: &'static str, window: u64, at: SimTime) {
        if self.snapshots.len() >= self.max_snapshots {
            self.suppressed += 1;
            return;
        }
        self.snapshots.push(FlightSnapshot {
            reason,
            window,
            at,
            events: self.ring.iter().copied().collect(),
        });
    }

    /// Frozen snapshots, in trip order.
    pub(crate) fn snapshots(&self) -> &[FlightSnapshot] {
        &self.snapshots
    }

    /// Trips that arrived after the snapshot cap was reached.
    pub(crate) fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Writes every snapshot into `trace` as one shard (`shard_name`):
    /// a `flight.freeze.N` span per snapshot, one child span per ring
    /// entry carrying its logical time, slot, host and attempt.
    pub(crate) fn emit_spans(&self, trace: &Trace, shard_name: &str) {
        if self.snapshots.is_empty() && self.suppressed == 0 {
            return;
        }
        let mut tracer = trace.tracer(shard_name);
        for (i, snap) in self.snapshots.iter().enumerate() {
            tracer.open(&format!("flight.freeze.{i:03}"));
            tracer.attr("reason", snap.reason);
            tracer.attr("window", snap.window);
            tracer.attr("at_ns", snap.at.as_nanos());
            tracer.attr("events", snap.events.len());
            if self.suppressed > 0 {
                tracer.attr("suppressed", self.suppressed);
            }
            for ev in &snap.events {
                tracer.open(ev.kind.label());
                tracer.attr("t_ns", ev.at.as_nanos());
                if ev.slot != u32::MAX {
                    tracer.attr("slot", ev.slot);
                }
                if ev.host != u32::MAX {
                    tracer.attr("host", ev.host);
                }
                if ev.attempt != 0 {
                    tracer.attr("attempt", u64::from(ev.attempt));
                }
                tracer.close();
            }
            tracer.close();
        }
        tracer.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64, kind: FlightKind) -> FlightEvent {
        FlightEvent {
            at: SimTime::from_nanos(ns),
            kind,
            slot: 1,
            host: 0,
            attempt: 0,
        }
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut rec = FlightRecorder::new(3, 4);
        for i in 0..5 {
            rec.record(ev(i, FlightKind::Served));
        }
        rec.freeze("latency", 7, SimTime::from_nanos(5));
        let snap = &rec.snapshots()[0];
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.events[0].at.as_nanos(), 2, "oldest two evicted");
        assert_eq!(snap.reason, "latency");
        assert_eq!(snap.window, 7);
    }

    #[test]
    fn freezes_beyond_the_cap_are_suppressed() {
        let mut rec = FlightRecorder::new(2, 1);
        rec.record(ev(0, FlightKind::Fault));
        rec.freeze("latency", 0, SimTime::ZERO);
        rec.freeze("error_budget", 1, SimTime::ZERO);
        assert_eq!(rec.snapshots().len(), 1);
        assert_eq!(rec.suppressed(), 1);
    }

    #[test]
    fn snapshots_reach_the_journal_as_spans() {
        let mut rec = FlightRecorder::new(4, 2);
        rec.record(ev(10, FlightKind::Fault));
        rec.record(FlightEvent {
            at: SimTime::from_nanos(20),
            kind: FlightKind::Retry,
            slot: 3,
            host: 2,
            attempt: 1,
        });
        rec.freeze("error_budget", 5, SimTime::from_nanos(25));

        let trace = Trace::new();
        rec.emit_spans(&trace, "traffic.flight");
        let journal = trace.journal();
        let root = journal.find("flight.freeze.000").expect("freeze span");
        assert_eq!(journal.len(), 3, "freeze + two ring entries");
        assert!(journal.spans.iter().any(|s| s.name == "fault"));
        let retry = journal.find("retry").expect("retry span");
        assert_eq!(retry.parent, root.id);
    }

    #[test]
    fn empty_recorder_emits_nothing() {
        let rec = FlightRecorder::new(4, 2);
        let trace = Trace::new();
        rec.emit_spans(&trace, "traffic.flight");
        assert_eq!(trace.journal().len(), 0);
    }
}
