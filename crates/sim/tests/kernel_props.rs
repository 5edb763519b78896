//! Property suite pinning the event queue's determinism contract:
//! delivery order is total and a pure function of the schedule program,
//! every scheduled event delivers exactly once, and the queue drains
//! monotonically in time, also when events are scheduled for the very
//! instant being delivered.

use std::collections::HashSet;

use proptest::collection::vec;
use proptest::prelude::*;
use redlight_sim::{EventQueue, SimTime};

/// Schedules one event per offset (bounded, so ties are common) and
/// drains the queue. The payload of each event is its schedule index, so
/// logs from different runs are directly comparable.
fn run_program(offsets: &[u64]) -> Vec<(u64, usize)> {
    let mut q = EventQueue::new();
    for (idx, &offset) in offsets.iter().enumerate() {
        q.schedule(SimTime::from_nanos(offset), idx);
    }
    std::iter::from_fn(|| q.pop())
        .map(|(at, payload)| (at.as_nanos(), payload))
        .collect()
}

proptest! {
    #[test]
    fn delivery_order_is_total_and_deterministic(offsets in vec(0u64..40, 0..160)) {
        let log_a = run_program(&offsets);
        let log_b = run_program(&offsets);
        // Same program ⇒ identical event log, run to run.
        prop_assert_eq!(&log_a, &log_b);

        // The order is total: time-sorted, ties strictly by schedule order
        // (the payload IS the schedule index).
        for pair in log_a.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time runs backwards");
            if pair[0].0 == pair[1].0 {
                prop_assert!(
                    pair[0].1 < pair[1].1,
                    "same-instant events out of schedule order: {:?}",
                    pair
                );
            }
        }

        // Conservation: every scheduled event is delivered exactly once, at
        // the instant it was scheduled for.
        let delivered: HashSet<usize> = log_a.iter().map(|&(_, p)| p).collect();
        prop_assert_eq!(delivered.len(), log_a.len(), "duplicate delivery");
        prop_assert_eq!(delivered.len(), offsets.len(), "dropped event");
        for &(at, idx) in &log_a {
            prop_assert_eq!(at, offsets[idx]);
        }
    }

    #[test]
    fn queue_drains_monotonically_under_interleaved_pops(
        offsets in vec(0u64..1_000, 1..120),
        pop_every in 2usize..5,
    ) {
        // Pops interleaved with schedules: later schedules may target times
        // earlier than pending ones, but never earlier than anything already
        // popped (the traffic loop only schedules at or after `now`). Model
        // that by clamping each offset to the last popped time.
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        let mut floor = 0u64;
        for (i, &offset) in offsets.iter().enumerate() {
            q.schedule(SimTime::from_nanos(floor + offset), i);
            if i % pop_every == 0 {
                if let Some((at, _)) = q.pop() {
                    popped.push(at.as_nanos());
                    floor = at.as_nanos();
                }
            }
        }
        while let Some((at, _)) = q.pop() {
            popped.push(at.as_nanos());
        }
        prop_assert_eq!(popped.len(), offsets.len());
        for pair in popped.windows(2) {
            prop_assert!(pair[0] <= pair[1], "pop sequence not monotone: {:?}", pair);
        }
    }

    #[test]
    fn interleaved_programs_deliver_in_time_then_schedule_order(
        ops in vec(0u8..12, 0..400),
    ) {
        // Each op either delivers the next event (0..4) or schedules one:
        // at the instant last delivered (4..8), which the traffic loop does
        // for most of its events, or up to 3 ns after it (8..12), which
        // ties with events already pending. The payload is the schedule
        // index.
        let mut q = EventQueue::new();
        let mut scheduled = Vec::new();
        let mut log = Vec::new();
        let mut last = 0u64;
        for op in ops {
            match op {
                0..4 => {
                    if let Some((at, idx)) = q.pop() {
                        last = at.as_nanos();
                        log.push((last, idx));
                    }
                }
                _ => {
                    let at = last + op.saturating_sub(8) as u64;
                    q.schedule(SimTime::from_nanos(at), scheduled.len());
                    scheduled.push((at, scheduled.len()));
                }
            }
        }
        while let Some((at, idx)) = q.pop() {
            log.push((at.as_nanos(), idx));
        }
        // No event is scheduled before the instant last delivered, so the
        // whole log is the reference order: every event, sorted by
        // `(time, schedule index)`.
        scheduled.sort_unstable();
        prop_assert_eq!(log, scheduled);
    }
}
