//! The per-request service model and per-host connection pools.
//!
//! [`ServiceModel`] turns a [`SimSpec`] into logical durations: every
//! served response costs its base service time plus a per-KiB transfer
//! cost, with a deterministic ± jitter drawn from `(spec seed, request
//! uid)` — no wall clock, no global RNG. [`HostPool`] models one host's
//! connection limit: up to `conn_limit` requests are in service at once,
//! the rest wait FIFO, which is what turns overload into queueing delay
//! the latency histograms can see.

use std::collections::VecDeque;
use std::time::Duration;

use redlight_net::transport::{mix, SimSpec};

/// Deterministic service-time model over a [`SimSpec`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceModel {
    spec: SimSpec,
}

impl ServiceModel {
    /// A model with the given parameters.
    pub fn new(spec: SimSpec) -> Self {
        ServiceModel { spec }
    }

    /// Service time of one successful response: `base + per_kbyte ·
    /// ⌈bytes/KiB⌉`, jittered ±`jitter_pm`‰ by a pure function of
    /// `(spec seed, uid)`.
    pub fn service_time(&self, body_bytes: u64, uid: u64) -> Duration {
        let kib = body_bytes.div_ceil(1024);
        let raw = self.spec.base_service + self.spec.per_kbyte * (kib as u32);
        self.jitter(raw, uid)
    }

    /// Time burned on an unreachable host (connect failure), jittered.
    pub fn connect_fail_time(&self, uid: u64) -> Duration {
        self.jitter(self.spec.connect_fail, uid)
    }

    /// Time a stalled request holds the client: the full timeout budget
    /// (no jitter — the budget is the client's, not the server's).
    pub fn timeout_time(&self) -> Duration {
        self.spec.timeout
    }

    fn jitter(&self, d: Duration, uid: u64) -> Duration {
        if self.spec.jitter_pm == 0 {
            return d;
        }
        // Draw in [-jitter_pm, +jitter_pm] per-mille of the duration.
        let span = 2 * self.spec.jitter_pm as u64 + 1;
        let draw = (mix(self.spec.seed, uid) % span) as i64 - self.spec.jitter_pm as i64;
        let nanos = d.as_nanos() as i64;
        Duration::from_nanos((nanos + nanos * draw / 1000).max(0) as u64)
    }
}

/// One host's connection pool: `limit` concurrent services, FIFO queueing
/// beyond that. The pool is a pure token mechanism — it holds whatever
/// request token the workload uses and never inspects it.
#[derive(Debug)]
pub struct HostPool<T> {
    limit: usize,
    in_service: usize,
    waiting: VecDeque<T>,
}

impl<T> HostPool<T> {
    /// A pool serving up to `limit` requests at once (`0` clamps to 1).
    pub fn new(limit: u32) -> Self {
        HostPool {
            limit: (limit as usize).max(1),
            in_service: 0,
            waiting: VecDeque::new(),
        }
    }

    /// Offers a request. When a connection slot is free it is taken and the
    /// token is handed back — the caller starts service now. Otherwise the
    /// token joins the FIFO queue and `None` says "wait".
    pub fn admit(&mut self, token: T) -> Option<T> {
        if self.in_service < self.limit {
            self.in_service += 1;
            Some(token)
        } else {
            self.waiting.push_back(token);
            None
        }
    }

    /// Completes one in-service request, freeing its slot. When a request
    /// was waiting, the slot is immediately re-taken and that token is
    /// returned — the caller starts its service now.
    pub fn complete(&mut self) -> Option<T> {
        debug_assert!(self.in_service > 0, "complete without admit");
        match self.waiting.pop_front() {
            Some(next) => Some(next),
            None => {
                self.in_service -= 1;
                None
            }
        }
    }

    /// Requests currently queued.
    pub fn waiting(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_scales_with_body_and_replays() {
        let model = ServiceModel::new(SimSpec {
            jitter_pm: 0,
            ..SimSpec::default()
        });
        let small = model.service_time(100, 1);
        let large = model.service_time(64 * 1024, 1);
        assert!(large > small);
        assert_eq!(
            small,
            Duration::from_millis(2) + Duration::from_micros(20),
            "base + 1 KiB"
        );
        // Jittered draws replay exactly and stay within the band.
        let jittered = ServiceModel::new(SimSpec::default());
        for uid in 0..200 {
            let a = jittered.service_time(4096, uid);
            let b = jittered.service_time(4096, uid);
            assert_eq!(a, b, "same uid must draw the same jitter");
            let raw = Duration::from_millis(2) + Duration::from_micros(80);
            let band = raw.mul_f64(0.11);
            assert!(a >= raw - band && a <= raw + band, "{a:?} outside ±11%");
        }
    }

    #[test]
    fn pool_admits_up_to_limit_then_queues_fifo() {
        let mut pool: HostPool<u32> = HostPool::new(2);
        assert_eq!(pool.admit(1), Some(1));
        assert_eq!(pool.admit(2), Some(2));
        assert_eq!(pool.admit(3), None);
        assert_eq!(pool.admit(4), None);
        assert_eq!(pool.waiting(), 2);
        // Completions hand slots to waiters in arrival order.
        assert_eq!(pool.complete(), Some(3));
        assert_eq!(pool.complete(), Some(4));
        assert_eq!(pool.waiting(), 0);
        assert_eq!(pool.complete(), None);
        assert_eq!(pool.complete(), None);
        // Both slots are free again: the next two admit at once.
        assert_eq!(pool.admit(5), Some(5));
        assert_eq!(pool.admit(6), Some(6));
    }
}
