//! Hosting the crawl fetch path on the simulated clock.
//!
//! [`SimTransport`] wraps a whole transport stack (server, fault injector,
//! meter) and charges every outcome's modeled cost to its [`SimHandle`]'s
//! logical clock: responses cost their service time, unreachable hosts
//! cost the connect failure, and a stall — notably the ones
//! `FaultTransport` injects — costs the full timeout budget, so "the page
//! load exceeded the crawler's timeout" *takes* that long in logical time.
//! Outcomes pass through byte-identical, so the service model changes when
//! things happen, never what.
//!
//! The crawl session holds the cloneable [`SimHandle`] after boxing the
//! stack into the browser, advances the clock by its retry backoff between
//! attempts, and reads each visit's logical wall off the clock. A single
//! crawl session is sequential, so the host connection limits of the spec
//! never bind here — they shape the concurrent traffic workload
//! (`crate::traffic`), where many clients share the hosts.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use redlight_net::http::Request;
use redlight_net::transport::{ClientContext, FetchOutcome, SimSpec, Transport};

use crate::queue::SimTime;
use crate::service::ServiceModel;

#[derive(Debug, Default)]
struct HandleState {
    now: SimTime,
    backoff_nanos: u64,
    next_uid: u64,
}

/// Shared handle onto a [`SimTransport`]'s logical clock. Cloning yields
/// another view of the same simulation.
#[derive(Debug, Clone)]
pub struct SimHandle {
    model: ServiceModel,
    state: Arc<Mutex<HandleState>>,
}

impl SimHandle {
    /// A fresh simulation at logical time zero.
    pub fn new(spec: SimSpec) -> Self {
        SimHandle {
            model: ServiceModel::new(spec),
            state: Arc::new(Mutex::new(HandleState::default())),
        }
    }

    /// Current logical time since the simulation started.
    pub fn now(&self) -> Duration {
        self.state.lock().expect("sim state").now.as_duration()
    }

    /// Consumes retry backoff: advances the clock by `d` and accounts it,
    /// so recorded schedules and elapsed logical time can be compared
    /// exactly.
    pub fn consume_backoff(&self, d: Duration) {
        let mut state = self.state.lock().expect("sim state");
        state.now = state.now.after(d);
        state.backoff_nanos += d.as_nanos() as u64;
    }

    /// Total backoff consumed so far.
    pub fn backoff_consumed(&self) -> Duration {
        Duration::from_nanos(self.state.lock().expect("sim state").backoff_nanos)
    }
}

/// The simulated-time decorator: outermost in the stack, charging each
/// outcome's modeled cost to the logical clock. Purely additive — the
/// outcome itself is returned untouched.
pub struct SimTransport<T> {
    inner: T,
    handle: SimHandle,
}

impl<T: Transport> SimTransport<T> {
    /// Wraps `inner`, charging time to `handle`'s clock.
    pub fn new(inner: T, handle: SimHandle) -> Self {
        SimTransport { inner, handle }
    }
}

impl<T: Transport> Transport for SimTransport<T> {
    fn fetch(&self, req: &Request, ctx: &ClientContext) -> FetchOutcome {
        let outcome = self.inner.fetch(req, ctx);
        let model = &self.handle.model;
        let mut state = self.handle.state.lock().expect("sim state");
        let uid = state.next_uid;
        state.next_uid += 1;
        let elapsed = match &outcome {
            FetchOutcome::Response(resp) => model.service_time(resp.body.len() as u64, uid),
            FetchOutcome::Unreachable => model.connect_fail_time(uid),
            FetchOutcome::Timeout => model.timeout_time(),
        };
        state.now = state.now.after(elapsed);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redlight_net::geoip::Country;
    use redlight_net::http::{ResourceKind, Response, StatusCode};
    use redlight_net::transport::BrowserKind;
    use redlight_net::url::Url;
    use std::net::Ipv4Addr;

    enum Mode {
        Ok,
        Gone,
        Stall,
    }

    struct Fixed(Mode);

    impl Transport for Fixed {
        fn fetch(&self, _req: &Request, _ctx: &ClientContext) -> FetchOutcome {
            match self.0 {
                Mode::Ok => FetchOutcome::Response(Response::ok("text/html", "x".repeat(2048))),
                Mode::Gone => FetchOutcome::Unreachable,
                Mode::Stall => FetchOutcome::Timeout,
            }
        }
    }

    fn ctx() -> ClientContext {
        ClientContext {
            country: Country::Spain,
            client_ip: Ipv4Addr::new(203, 0, 113, 9),
            session: 1,
            browser: BrowserKind::OpenWpm,
        }
    }

    fn req() -> Request {
        Request::get(
            Url::parse("https://a.example/").unwrap(),
            ResourceKind::Document,
        )
    }

    fn spec() -> SimSpec {
        SimSpec {
            jitter_pm: 0,
            ..SimSpec::default()
        }
    }

    #[test]
    fn responses_charge_service_time() {
        let handle = SimHandle::new(spec());
        let t = SimTransport::new(Fixed(Mode::Ok), handle.clone());
        let FetchOutcome::Response(resp) = t.fetch(&req(), &ctx()) else {
            panic!("passthrough");
        };
        assert_eq!(resp.status, StatusCode(200));
        // 2 KiB body: base 2 ms + 2 × 20 µs.
        assert_eq!(
            handle.now(),
            Duration::from_millis(2) + Duration::from_micros(40)
        );
    }

    #[test]
    fn failures_charge_their_budgets() {
        let handle = SimHandle::new(spec());
        let t = SimTransport::new(Fixed(Mode::Gone), handle.clone());
        assert!(matches!(t.fetch(&req(), &ctx()), FetchOutcome::Unreachable));
        assert_eq!(handle.now(), Duration::from_millis(1));

        let handle = SimHandle::new(spec());
        let t = SimTransport::new(Fixed(Mode::Stall), handle.clone());
        assert!(matches!(t.fetch(&req(), &ctx()), FetchOutcome::Timeout));
        assert_eq!(handle.now(), Duration::from_secs(10), "full timeout budget");
    }

    #[test]
    fn backoff_consumption_is_accounted() {
        let handle = SimHandle::new(spec());
        handle.consume_backoff(Duration::from_millis(250));
        handle.consume_backoff(Duration::from_millis(1000));
        assert_eq!(handle.backoff_consumed(), Duration::from_millis(1250));
        assert_eq!(handle.now(), Duration::from_millis(1250));
    }
}
