//! Logical time and the pending-event queue.
//!
//! [`SimTime`] is a nanosecond count since simulation start — no wall
//! clock anywhere. [`EventQueue`] delivers in `(time, seq)` order: the
//! sequence number is assigned at schedule time, so two events scheduled
//! for the same instant always deliver in schedule order and delivery
//! order is a pure function of the schedule calls. Future events wait in a
//! binary heap; events scheduled for the instant being delivered skip it
//! and wait in a FIFO lane.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

/// A point in logical time: nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub(crate) const ZERO: SimTime = SimTime(0);

    /// From raw nanoseconds.
    pub fn from_nanos(nanos: u64) -> SimTime {
        SimTime(nanos)
    }

    /// Raw nanoseconds since start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// As a [`Duration`] since simulation start.
    pub(crate) fn as_duration(self) -> Duration {
        Duration::from_nanos(self.0)
    }

    /// This instant plus `d` (saturating; the simulation horizon is ~584
    /// logical years, far beyond any workload).
    pub(crate) fn after(self, d: Duration) -> SimTime {
        SimTime(
            self.0
                .saturating_add(d.as_nanos().min(u64::MAX as u128) as u64),
        )
    }

    /// Logical time elapsed since `earlier` (zero when `earlier` is later).
    pub(crate) fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

/// Heap entry: ordered by `(time, seq)` so ties break by schedule order.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The pending-event set: a stable-order binary heap plus a FIFO lane for
/// the instant last delivered.
///
/// An event scheduled for exactly that instant (a zero-delay hop) goes to
/// the lane instead of the heap. Heap entries at the same instant were
/// scheduled before the instant was reached, so before every lane entry;
/// [`EventQueue::pop`] serves them first, then the lane, then the rest of
/// the heap. The lane is empty whenever time moves on, so it only ever
/// holds one instant.
///
/// Determinism contract: for a fixed sequence of `schedule` calls, the
/// sequence of `pop` results is identical across runs and platforms —
/// ordering depends only on `(time, seq)`, never on heap internals,
/// hashing, or allocation.
#[derive(Debug, Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Events for `last_popped`, in schedule order.
    lane: VecDeque<E>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `event` for delivery at `at`. Events at the same instant
    /// deliver in the order they were scheduled.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        if at == self.last_popped {
            self.lane.push_back(event);
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Delivers the next event: the pending `(time, seq)` minimum. Panics
    /// if time would run backwards (an event scheduled before an instant
    /// already delivered — a caller bug, not a user-reachable state).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // A heap entry before `last_popped` is a caller bug; popping it
        // trips the assert below.
        let heap_due = matches!(self.heap.peek(), Some(Reverse(e)) if e.at <= self.last_popped);
        if !heap_due {
            if let Some(event) = self.lane.pop_front() {
                return Some((self.last_popped, event));
            }
        }
        let Reverse(entry) = self.heap.pop()?;
        assert!(
            entry.at >= self.last_popped,
            "event queue delivered out of order: {:?} after {:?}",
            entry.at,
            self.last_popped
        );
        self.last_popped = entry.at;
        Some((entry.at, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_then_schedule_order() {
        let mut q = EventQueue::new();
        let t = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
        q.schedule(t(5), "b");
        q.schedule(t(1), "a");
        q.schedule(t(5), "c");
        q.schedule(t(0), "zero");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["zero", "a", "b", "c"]);
    }

    #[test]
    fn same_instant_ties_break_by_seq() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_heap_entries_precede_the_lane() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos;
        q.schedule(t(5), "heap-1");
        q.schedule(t(5), "heap-2");
        q.schedule(t(6), "later");
        assert_eq!(q.pop(), Some((t(5), "heap-1")));
        q.schedule(t(5), "lane-1");
        q.schedule(t(5), "lane-2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["heap-2", "lane-1", "lane-2", "later"]);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn scheduling_into_the_past_panics_at_delivery() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
        q.pop();
    }

    #[test]
    fn sim_time_arithmetic() {
        let t = SimTime::ZERO.after(Duration::from_millis(3));
        assert_eq!(t.as_nanos(), 3_000_000);
        assert_eq!(t.since(SimTime::ZERO), Duration::from_millis(3));
        assert_eq!(SimTime::ZERO.since(t), Duration::ZERO, "saturates");
    }
}
