//! The transport seam between the browser and whatever serves its
//! requests.
//!
//! [`Transport`] is the one interface the measurement pipeline fetches
//! through: the synthetic [`WebServer`] implements it directly, and two
//! composable decorators ride on top —
//! [`MeteredTransport`] (per-request latency/byte/status counters for the
//! stage report) and [`FaultTransport`] (seeded, deterministic injection
//! of DNS failures, connection resets, stalls, transient 5xx responses
//! and truncated bodies). [`NetProfile`] describes a whole stack as data
//! and [`NetProfile::stack`] assembles it, so crawl plans can carry their
//! network conditions the same way they carry countries and corpora.
//!
//! Determinism rules:
//!
//! * the default profile injects nothing and the stack is the server under
//!   an observational meter — behavior is byte-identical to no seam at all;
//! * fault decisions are pure functions of `(fault seed, session nonce,
//!   request URL, resource kind, attempt number)` — no wall clock, no
//!   global RNG — so the same seed replays the same faults, and two runs
//!   of a study produce identical results;
//! * nothing waits on a real clock: a crawl re-visits a failed load at
//!   once, and the retry backoff and the profile's [`SimSpec`] become time
//!   only on the traffic workload's simulated clock (`redlight-sim`).
//!
//! [`WebServer`]: https://docs.rs/redlight-websim

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use redlight_obs::{Counter, Histogram, Registry, SloPolicy, Unit};

use crate::geoip::Country;
use crate::http::{Request, Response, StatusCode};

/// Which crawler stack is driving the browser (the OpenWPM crawl obeys the
/// 120 s page timeout; the Selenium crawl in the paper ran separately and
/// reached sites the OpenWPM crawl lost to timeouts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrowserKind {
    /// The OpenWPM-style measurement crawler (Firefox 52 profile).
    OpenWpm,
    /// The Selenium-style interaction crawler (Chrome profile).
    Selenium,
}

/// Per-session client context the server sees.
#[derive(Debug, Clone)]
pub struct ClientContext {
    /// Country.
    pub country: Country,
    /// Client ip.
    pub client_ip: Ipv4Addr,
    /// Browser-session nonce: tracker uids are stable per session.
    pub session: u64,
    /// Browser.
    pub browser: BrowserKind,
}

/// Outcome of a fetch attempt.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // responses dominate; boxing buys nothing on this hot path
pub enum FetchOutcome {
    /// Response.
    Response(Response),
    /// DNS failure / connection refused (unknown host, geo-block,
    /// unresponsive site, HTTPS to an HTTP-only server).
    Unreachable,
    /// The page load exceeded the crawler's timeout.
    Timeout,
}

/// The network boundary: everything the browser sends goes through one of
/// these. Implementations must be deterministic for a fixed `(request,
/// context)` sequence — the whole study is a pure function of its seeds.
pub trait Transport {
    /// Performs one request.
    fn fetch(&self, req: &Request, ctx: &ClientContext) -> FetchOutcome;
}

impl<T: Transport + ?Sized> Transport for &T {
    fn fetch(&self, req: &Request, ctx: &ClientContext) -> FetchOutcome {
        (**self).fetch(req, ctx)
    }
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn fetch(&self, req: &Request, ctx: &ClientContext) -> FetchOutcome {
        (**self).fetch(req, ctx)
    }
}

// ---------------------------------------------------------------------------
// Metering
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of one transport stack's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Requests issued.
    pub requests: u64,
    /// Requests answered with a response (any status).
    pub responses: u64,
    /// Requests that died with a DNS failure / connection reset.
    pub unreachable: u64,
    /// Requests that exceeded the crawler timeout.
    pub timeouts: u64,
    /// Responses with a 5xx status.
    pub server_errors: u64,
    /// Responses that were redirects.
    pub redirects: u64,
    /// Response body bytes delivered.
    pub body_bytes: u64,
    /// Wall time spent inside the wrapped transport.
    pub total_latency: Duration,
}

impl TransportStats {
    /// Mean per-request latency, or zero when nothing was fetched.
    pub fn mean_latency(&self) -> Duration {
        if self.requests == 0 {
            Duration::ZERO
        } else {
            self.total_latency / self.requests as u32
        }
    }

    /// Folds another snapshot into this one (for whole-study totals).
    pub fn merge(&mut self, other: &TransportStats) {
        self.requests += other.requests;
        self.responses += other.responses;
        self.unreachable += other.unreachable;
        self.timeouts += other.timeouts;
        self.server_errors += other.server_errors;
        self.redirects += other.redirects;
        self.body_bytes += other.body_bytes;
        self.total_latency += other.total_latency;
    }
}

/// A shared handle onto a [`MeteredTransport`]'s counters: the crawler
/// keeps one after boxing the stack into the browser, then snapshots it
/// when the crawl finishes. The cells are `obs` metric handles — a plain
/// default `TransportMeter` counts into private cells exactly as
/// before, while [`TransportMeter::in_registry`] shares its cells with a
/// [`Registry`] so the same counts surface in metrics exports. Either way
/// [`TransportMeter::snapshot`] renders the familiar [`TransportStats`]
/// view.
#[derive(Clone, Default)]
pub struct TransportMeter {
    requests: Counter,
    responses: Counter,
    unreachable: Counter,
    timeouts: Counter,
    server_errors: Counter,
    redirects: Counter,
    body_bytes: Counter,
    latency_nanos: Counter,
    body_hist: Histogram,
}

impl TransportMeter {
    /// A meter whose cells are the registry's `transport.*` metrics:
    /// `transport.requests`, `transport.responses`, `transport.unreachable`,
    /// `transport.timeouts`, `transport.server_errors`,
    /// `transport.redirects`, `transport.body_bytes`,
    /// `transport.latency_ns` plus the `transport.body_bytes_hist`
    /// size histogram.
    pub fn in_registry(registry: &Registry) -> Self {
        TransportMeter {
            requests: registry.counter("transport.requests"),
            responses: registry.counter("transport.responses"),
            unreachable: registry.counter("transport.unreachable"),
            timeouts: registry.counter("transport.timeouts"),
            server_errors: registry.counter("transport.server_errors"),
            redirects: registry.counter("transport.redirects"),
            body_bytes: registry.counter_with_unit("transport.body_bytes", Unit::Bytes),
            latency_nanos: registry.counter_with_unit("transport.latency_ns", Unit::Nanos),
            body_hist: registry.histogram_with_unit("transport.body_bytes_hist", Unit::Bytes),
        }
    }

    /// Reads the counters.
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            requests: self.requests.get(),
            responses: self.responses.get(),
            unreachable: self.unreachable.get(),
            timeouts: self.timeouts.get(),
            server_errors: self.server_errors.get(),
            redirects: self.redirects.get(),
            body_bytes: self.body_bytes.get(),
            total_latency: Duration::from_nanos(self.latency_nanos.get()),
        }
    }
}

impl std::fmt::Debug for TransportMeter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportMeter")
            .field("stats", &self.snapshot())
            .finish()
    }
}

/// Counts every request flowing through the wrapped transport. Purely
/// observational: outcomes pass through untouched, so a metered stack is
/// behavior-identical to an unmetered one.
pub struct MeteredTransport<T> {
    inner: T,
    meter: TransportMeter,
}

impl<T: Transport> MeteredTransport<T> {
    /// Wraps `inner`, recording into `meter`.
    pub(crate) fn new(inner: T, meter: TransportMeter) -> Self {
        MeteredTransport { inner, meter }
    }
}

impl<T: Transport> Transport for MeteredTransport<T> {
    fn fetch(&self, req: &Request, ctx: &ClientContext) -> FetchOutcome {
        let m = &self.meter;
        m.requests.inc();
        let start = Instant::now();
        let outcome = self.inner.fetch(req, ctx);
        m.latency_nanos.add(start.elapsed().as_nanos() as u64);
        match &outcome {
            FetchOutcome::Response(resp) => {
                m.responses.inc();
                m.body_bytes.add(resp.body.len() as u64);
                m.body_hist.record(resp.body.len() as u64);
                if resp.status.is_redirect() {
                    m.redirects.inc();
                }
                if resp.status.0 >= 500 {
                    m.server_errors.inc();
                }
            }
            FetchOutcome::Unreachable => {
                m.unreachable.inc();
            }
            FetchOutcome::Timeout => {
                m.timeouts.inc();
            }
        }
        outcome
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// The fault classes the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Name never resolves / SYN never answered → `Unreachable`.
    Dns,
    /// Connection reset mid-handshake → `Unreachable`.
    Reset,
    /// The response arrives slower than the crawler budget → `Timeout`.
    Stall,
    /// The origin answers `503 Service Unavailable`.
    ServerError,
    /// The body is cut off halfway through the transfer.
    Truncate,
}

/// Per-mille fault rates for a [`FaultTransport`]. Rates are cumulative —
/// their sum must stay ≤ 1000 — and each request draws once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// ‰ of requests whose host fails to resolve.
    pub dns_pm: u16,
    /// ‰ of requests reset mid-connection.
    pub reset_pm: u16,
    /// ‰ of requests that stall past the crawler timeout.
    pub stall_pm: u16,
    /// ‰ of requests answered with a transient 503.
    pub server_error_pm: u16,
    /// ‰ of requests whose body is truncated to half its length.
    pub truncate_pm: u16,
    /// Faults on a given request clear after at most this many attempts
    /// (each faulted request draws its own persistence in
    /// `1..=transient_attempts`); `0` makes every fault permanent.
    pub transient_attempts: u32,
}

impl FaultSpec {
    /// The "flaky" preset: ~10% of requests fault, everything transient —
    /// a crawl with a retry budget of 3 recovers nearly all of it.
    fn flaky() -> Self {
        FaultSpec {
            dns_pm: 15,
            reset_pm: 20,
            stall_pm: 25,
            server_error_pm: 30,
            truncate_pm: 10,
            transient_attempts: 2,
        }
    }

    /// The "lossy" preset: ~24% of requests fault and faults persist
    /// longer, so even retried crawls visibly lose sites.
    fn lossy() -> Self {
        FaultSpec {
            dns_pm: 40,
            reset_pm: 50,
            stall_pm: 60,
            server_error_pm: 60,
            truncate_pm: 30,
            transient_attempts: 3,
        }
    }

    /// How many attempts a fault persists for, given a uniform `draw`:
    /// `1 + draw % transient_attempts`, or `u32::MAX` (permanent) when
    /// `transient_attempts` is 0. Each caller supplies its own draw.
    pub fn persistence(&self, draw: u64) -> u32 {
        if self.transient_attempts == 0 {
            u32::MAX
        } else {
            1 + (draw % self.transient_attempts as u64) as u32
        }
    }

    /// Total fault probability in per-mille.
    fn total_pm(&self) -> u16 {
        self.dns_pm + self.reset_pm + self.stall_pm + self.server_error_pm + self.truncate_pm
    }

    /// Maps a 0..1000 draw onto a fault, `None` for the healthy majority.
    /// Public so simulated workloads (the traffic generator) can draw from
    /// the same cumulative fault distribution a [`FaultTransport`] uses.
    pub fn classify(&self, draw: u16) -> Option<Fault> {
        debug_assert!(self.total_pm() <= 1000, "fault rates exceed 100%");
        let mut edge = self.dns_pm;
        if draw < edge {
            return Some(Fault::Dns);
        }
        edge += self.reset_pm;
        if draw < edge {
            return Some(Fault::Reset);
        }
        edge += self.stall_pm;
        if draw < edge {
            return Some(Fault::Stall);
        }
        edge += self.server_error_pm;
        if draw < edge {
            return Some(Fault::ServerError);
        }
        edge += self.truncate_pm;
        if draw < edge {
            return Some(Fault::Truncate);
        }
        None
    }
}

/// Deterministic fault injector.
///
/// Whether a request faults — and for how many attempts the fault persists
/// — is a pure hash of `(fault seed, session nonce, request URL, resource
/// kind)`; the attempt counter lives in the transport so a retried fetch
/// of the same URL eventually clears a transient fault. One instance
/// serves one crawl session, and visits within a crawl are sequential, so
/// the injected sequence never depends on thread interleaving.
pub struct FaultTransport<T> {
    inner: T,
    spec: FaultSpec,
    seed: u64,
    attempts: Mutex<HashMap<u64, u32>>,
    injected: Counter,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner` with the given fault plan.
    pub(crate) fn new(inner: T, spec: FaultSpec, seed: u64) -> Self {
        FaultTransport {
            inner,
            spec,
            seed,
            attempts: Mutex::new(HashMap::new()),
            injected: Counter::new(),
        }
    }

    /// Counts injected faults into `counter` (e.g. a registry's
    /// `transport.faults_injected`) instead of a private cell.
    fn with_injected_counter(mut self, counter: Counter) -> Self {
        self.injected = counter;
        self
    }

    /// The per-request decision key.
    fn key(&self, req: &Request, ctx: &ClientContext) -> u64 {
        let url_hash = fnv1a(req.url.without_fragment().as_bytes());
        mix(self.seed ^ ctx.session, url_hash ^ (req.kind as u64))
    }

    /// The fault drawn for this key, if any.
    fn fault_for(&self, key: u64) -> Option<Fault> {
        let draw = (mix(key, 0x9e37_79b9) % 1000) as u16;
        self.spec.classify(draw)
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn fetch(&self, req: &Request, ctx: &ClientContext) -> FetchOutcome {
        let key = self.key(req, ctx);
        if let Some(fault) = self.fault_for(key) {
            let attempt = {
                let mut attempts = self.attempts.lock().expect("fault map");
                let n = attempts.entry(key).or_insert(0);
                *n += 1;
                *n
            };
            if attempt <= self.spec.persistence(mix(key, 0x85eb_ca6b)) {
                self.injected.inc();
                return match fault {
                    Fault::Dns | Fault::Reset => FetchOutcome::Unreachable,
                    Fault::Stall => FetchOutcome::Timeout,
                    Fault::ServerError => FetchOutcome::Response(Response::error(StatusCode(503))),
                    Fault::Truncate => match self.inner.fetch(req, ctx) {
                        FetchOutcome::Response(mut resp) => {
                            let keep = resp.body.len() / 2;
                            resp.body = bytes::Bytes::copy_from_slice(&resp.body[..keep]);
                            FetchOutcome::Response(resp)
                        }
                        other => other,
                    },
                };
            }
        }
        self.inner.fetch(req, ctx)
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Bounded visit retries with a deterministic backoff schedule.
///
/// The backoff is never slept on a real wire. A crawl re-visits a failed
/// load at once and records no time; the traffic workload consumes the
/// backoff on its logical clock between a session's attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total visit attempts (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    base_backoff: Duration,
    /// Multiplier applied per further retry.
    backoff_factor: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// Single attempt, no retries — the paper's crawls.
    pub(crate) fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            backoff_factor: 1,
        }
    }

    /// `max_attempts` total tries with exponential backoff from `base`.
    pub fn retries(max_attempts: u32, base: Duration, factor: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: base,
            backoff_factor: factor.max(1),
        }
    }

    /// The (simulated) backoff before attempt `n` (1-based; attempt 1 has
    /// none).
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let mut d = self.base_backoff;
        for _ in 2..attempt {
            d *= self.backoff_factor;
        }
        d
    }
}

// ---------------------------------------------------------------------------
// Simulated time
// ---------------------------------------------------------------------------

/// Parameters of the simulated-time service model, as data.
///
/// The `redlight-sim` traffic workload runs under its [`NetProfile`]'s
/// `SimSpec`: every request costs a modeled service time on a logical
/// clock — a base cost plus a per-KiB transfer cost with deterministic
/// ±jitter — unreachable hosts cost the connect-fail time, stalls the full
/// timeout budget, and each host serves `conn_limit` requests at once.
/// Crawls fetch without a clock and never read the spec. It is plain data
/// so `net` needs no dependency on `redlight-sim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSpec {
    /// Base per-request service time (connection + server think time).
    pub base_service: Duration,
    /// Added transfer time per KiB of response body.
    pub per_kbyte: Duration,
    /// Time burned learning that a host is unreachable.
    pub connect_fail: Duration,
    /// Logical time a stalled (timed-out) request holds the client.
    pub timeout: Duration,
    /// ± jitter on the service time, in per-mille of its value.
    pub jitter_pm: u16,
    /// Concurrent connections one host serves before requests queue FIFO.
    pub conn_limit: u32,
    /// Seed of the deterministic jitter draws.
    pub seed: u64,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            base_service: Duration::from_millis(2),
            per_kbyte: Duration::from_micros(20),
            connect_fail: Duration::from_millis(1),
            timeout: Duration::from_secs(10),
            jitter_pm: 100,
            conn_limit: 8,
            seed: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// A whole transport stack plus crawl retry behavior, as data. Carried on
/// crawl specs so a plan fully describes the network it runs over. The
/// default injects nothing and retries nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetProfile {
    /// Fault plan, `None` for a healthy network.
    pub faults: Option<FaultSpec>,
    /// Seed for the fault injector (independent of the world seed so the
    /// same web can be crawled under different weather).
    pub fault_seed: u64,
    /// Visit retry policy.
    pub retry: RetryPolicy,
    /// Simulated-time service model of the traffic workload (crawls run
    /// without a clock and ignore it).
    pub sim: SimSpec,
    /// Service-level objectives the traffic simulator's timeline
    /// telemetry evaluates per window.
    pub slo: SloPolicy,
}

impl NetProfile {
    /// The profile names [`NetProfile::named`] accepts.
    pub const NAMES: [&'static str; 3] = ["default", "flaky", "lossy"];

    /// Looks up a named profile (`default`, `flaky`, `lossy`).
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "default" => Some(NetProfile::default()),
            "flaky" => Some(NetProfile {
                faults: Some(FaultSpec::flaky()),
                fault_seed: 1,
                retry: RetryPolicy::retries(3, Duration::from_millis(250), 4),
                ..NetProfile::default()
            }),
            "lossy" => Some(NetProfile {
                faults: Some(FaultSpec::lossy()),
                fault_seed: 1,
                retry: RetryPolicy::retries(4, Duration::from_millis(250), 4),
                ..NetProfile::default()
            }),
            _ => None,
        }
    }

    /// Replaces the fault seed (no-op for fault-free profiles' behavior).
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Replaces the service model the traffic workload's logical clock
    /// charges. Crawls ignore it.
    pub fn with_sim(mut self, spec: SimSpec) -> Self {
        self.sim = spec;
        self
    }

    /// Assembles the decorator stack over `inner`: faults first (closest
    /// to the wire, when the profile injects any), then the meter, so the
    /// meter observes what the browser observes. Injected faults publish `registry`'s
    /// `transport.faults_injected` counter; the meter should come from
    /// [`TransportMeter::in_registry`] to publish its counters there too.
    pub fn stack<'a, T: Transport + 'a>(
        &self,
        inner: T,
        meter: &TransportMeter,
        registry: &Registry,
    ) -> Box<dyn Transport + 'a> {
        match self.faults {
            Some(spec) => Box::new(MeteredTransport::new(
                FaultTransport::new(inner, spec, self.fault_seed)
                    .with_injected_counter(registry.counter("transport.faults_injected")),
                meter.clone(),
            )),
            None => Box::new(MeteredTransport::new(inner, meter.clone())),
        }
    }
}

// ---------------------------------------------------------------------------
// Hashing (splitmix64 finalizer + FNV-1a). The simulated web and the
// traffic workload draw with the same two functions, on every request and
// event, so both are `#[inline]`: without it no call from another crate is
// inlined.
// ---------------------------------------------------------------------------

/// splitmix64-style mixer: uniform, seedable, and stable across platforms.
#[inline]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over bytes.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::ResourceKind;
    use crate::url::Url;

    /// A transport that always answers 200 with a fixed body.
    struct Always;

    impl Transport for Always {
        fn fetch(&self, _req: &Request, _ctx: &ClientContext) -> FetchOutcome {
            FetchOutcome::Response(Response::ok("text/html", "<html>0123456789</html>"))
        }
    }

    fn ctx() -> ClientContext {
        ClientContext {
            country: Country::Spain,
            client_ip: Ipv4Addr::new(203, 0, 113, 9),
            session: 42,
            browser: BrowserKind::OpenWpm,
        }
    }

    fn req(url: &str) -> Request {
        Request::get(Url::parse(url).unwrap(), ResourceKind::Document)
    }

    #[test]
    fn meter_counts_outcomes_and_bytes() {
        let meter = TransportMeter::default();
        let t = MeteredTransport::new(Always, meter.clone());
        for i in 0..5 {
            t.fetch(&req(&format!("https://a{i}.example/")), &ctx());
        }
        let stats = meter.snapshot();
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.responses, 5);
        assert_eq!(stats.unreachable, 0);
        assert_eq!(stats.body_bytes, 5 * 23);
        assert!(stats.total_latency >= stats.mean_latency());
    }

    #[test]
    fn fault_decisions_replay_exactly() {
        let spec = FaultSpec::lossy();
        let urls: Vec<String> = (0..400).map(|i| format!("https://s{i}.example/")).collect();
        let run = |seed: u64| -> Vec<bool> {
            let t = FaultTransport::new(Always, spec, seed);
            urls.iter()
                .map(|u| matches!(t.fetch(&req(u), &ctx()), FetchOutcome::Response(r) if r.status.is_success()))
                .collect()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must replay the same faults");
        let c = run(8);
        assert_ne!(a, c, "a different seed must fault differently");
        // Sanity on the rate: ~24% of 400 requests should fault.
        let faulted = a.iter().filter(|ok| !**ok).count();
        assert!((40..200).contains(&faulted), "faulted {faulted}/400");
    }

    #[test]
    fn transient_faults_clear_within_budget() {
        let spec = FaultSpec {
            dns_pm: 1000,
            reset_pm: 0,
            stall_pm: 0,
            server_error_pm: 0,
            truncate_pm: 0,
            transient_attempts: 2,
        };
        let t = FaultTransport::new(Always, spec, 3);
        let r = req("https://flappy.example/");
        let mut outcomes = Vec::new();
        for _ in 0..4 {
            outcomes.push(matches!(t.fetch(&r, &ctx()), FetchOutcome::Response(_)));
        }
        // First 1–2 attempts fault, everything after succeeds forever.
        assert!(!outcomes[0]);
        assert!(outcomes[2] && outcomes[3]);
        let first_ok = outcomes.iter().position(|ok| *ok).unwrap();
        assert!(first_ok <= 2);
    }

    #[test]
    fn permanent_faults_never_clear() {
        let spec = FaultSpec {
            dns_pm: 1000,
            reset_pm: 0,
            stall_pm: 0,
            server_error_pm: 0,
            truncate_pm: 0,
            transient_attempts: 0,
        };
        let injected = Counter::new();
        let t = FaultTransport::new(Always, spec, 3).with_injected_counter(injected.clone());
        let r = req("https://gone.example/");
        for _ in 0..6 {
            assert!(matches!(t.fetch(&r, &ctx()), FetchOutcome::Unreachable));
        }
        assert_eq!(injected.get(), 6);
    }

    #[test]
    fn truncation_halves_bodies() {
        let spec = FaultSpec {
            dns_pm: 0,
            reset_pm: 0,
            stall_pm: 0,
            server_error_pm: 0,
            truncate_pm: 1000,
            transient_attempts: 0,
        };
        let t = FaultTransport::new(Always, spec, 1);
        let FetchOutcome::Response(resp) = t.fetch(&req("https://cut.example/"), &ctx()) else {
            panic!("truncation still responds");
        };
        assert_eq!(resp.body.len(), 23 / 2);
    }

    #[test]
    fn default_profile_stack_is_passthrough() {
        let meter = TransportMeter::default();
        let stack = NetProfile::default().stack(Always, &meter, &Registry::new());
        let out = stack.fetch(&req("https://ok.example/"), &ctx());
        assert!(matches!(out, FetchOutcome::Response(r) if r.status.is_success()));
        assert_eq!(meter.snapshot().requests, 1);
    }

    #[test]
    fn named_profiles_resolve() {
        for name in NetProfile::NAMES {
            assert!(NetProfile::named(name).is_some(), "{name} must resolve");
        }
        assert!(NetProfile::named("underwater").is_none());
        assert!(NetProfile::named("flaky").unwrap().faults.is_some());
        assert_eq!(NetProfile::named("default").unwrap(), NetProfile::default());
    }

    #[test]
    fn backoff_schedule_is_exponential_and_bounded() {
        let p = RetryPolicy::retries(4, Duration::from_millis(100), 3);
        assert_eq!(p.backoff_before(1), Duration::ZERO);
        assert_eq!(p.backoff_before(2), Duration::from_millis(100));
        assert_eq!(p.backoff_before(3), Duration::from_millis(300));
        assert_eq!(p.backoff_before(4), Duration::from_millis(900));
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }
}
