//! The traffic workload: a seeded population of visitors walking the porn
//! web under the simulated clock.
//!
//! The generator first *harvests* one page template per reachable porn
//! site — a single real [`Browser`] visit through the bare [`WebServer`]
//! yields the document plus its third-party fan-out, so the workload's
//! request mix is the websim ecosystem's, not an invented one. It then
//! drains one [`EventQueue`] in a single loop over one state machine that
//! owns both sides of the wire:
//!
//! * the **sessions** (the clients): seeded arrivals, a
//!   popularity-weighted site choice, one-to-three page walks with dwell
//!   time between pages, document retries consuming real backoff on the
//!   logical clock;
//! * the **host pools** (the servers): one [`HostPool`] per distinct host
//!   — connection limits, FIFO queueing, per-request service times from
//!   the [`ServiceModel`], and fault draws from the *same* cumulative
//!   [`FaultSpec`] distribution and persistence rule the synchronous
//!   `FaultTransport` uses.
//!
//! Before handling an event the loop closes every timeline window the
//! event's instant has reached, so a window's row covers exactly the
//! events strictly inside it.
//!
//! Everything measurable flows through `obs`: counters and latency
//! histograms on the shared [`Registry`], batch spans on the `traffic`
//! tracer shard. All quantities in the final [`TrafficReport`] are
//! logical, so the rendered report is byte-identical across runs of the
//! same seed.

use std::collections::HashMap;
use std::time::Duration;

use redlight_browser::Browser;
use redlight_net::geoip::Country;
use redlight_net::http::ResourceKind;
use redlight_net::transport::{fnv1a, mix, BrowserKind, Fault, FaultSpec, NetProfile, RetryPolicy};
use redlight_net::url::Url;
use redlight_obs::{
    Counter, Gauge, Histogram, ObsContext, Registry, SloEvent, SloPolicy, SloTracker, Timeline,
    Trace, Tracer,
};
use redlight_rankings::PopularityTier;
use redlight_report::figure::{self, Series};
use redlight_report::table::{fmt_count, Table};
use redlight_websim::{server::WebServer, World, WorldConfig};

use crate::flight::{FlightEvent, FlightKind, FlightRecorder};
use crate::queue::{EventQueue, SimTime};
use crate::service::{HostPool, ServiceModel};

/// Sub-resources kept per page template (beyond the document itself).
const MAX_SUBS: usize = 12;

/// Mean gap between session arrivals in logical nanoseconds (gaps are
/// uniform on `[0, 2·mean)`).
const MEAN_GAP_NS: u64 = 2_000_000;

/// Sessions per tracer batch span.
const SPAN_BATCH: u64 = 10_000;

/// Flight-recorder ring capacity (recent traffic events kept).
const FLIGHT_CAPACITY: usize = 96;

/// Flight snapshots kept; later SLO trips are counted, not stored.
const MAX_FREEZES: usize = 4;

/// Draw-stream salts: each stochastic choice mixes its own salt so the
/// streams are independent functions of `(seed, key)`.
mod salt {
    pub(super) const GAP: u64 = 0x0067_6170;
    pub(super) const PAGES: u64 = 0x0070_6167_6573;
    pub(super) const SITE: u64 = 0x7369_7465;
    pub(super) const DWELL: u64 = 0x0064_7765_6c6c;
    pub(super) const WEIGHT: u64 = 0x7765_6967_6874;
    pub(super) const BYTES: u64 = 0x0062_7974_6573;
    pub(super) const FAULT: u64 = 0x0066_6175_6c74;
    pub(super) const PERSIST: u64 = 0x7065_7273;
}

fn draw(seed: u64, s: u64, key: u64) -> u64 {
    mix(mix(seed, s), key)
}

/// Configuration of one traffic run.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Visitor sessions to simulate.
    pub sessions: u64,
    /// Workload seed: arrivals, site choices, page counts, dwell, faults.
    pub seed: u64,
    /// The web the visitors browse.
    pub world: WorldConfig,
    /// Network weather: `net.sim` supplies the service model, `net.faults`
    /// the fault mix and `net.slo` the timeline's objectives.
    pub net: NetProfile,
    /// Windowed timeline telemetry; `None` (the default) samples no
    /// windows and keeps no flight ring.
    pub timeline: Option<TimelineSpec>,
}

impl TrafficConfig {
    /// Defaults: tiny world, default profile, no timeline.
    pub fn new(sessions: u64) -> Self {
        TrafficConfig {
            sessions,
            seed: 2019,
            world: WorldConfig::tiny(2019),
            net: NetProfile::default(),
            timeline: None,
        }
    }
}

/// Configuration of the timeline telemetry a traffic run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSpec {
    /// Logical width of one timeline window.
    pub window: Duration,
}

impl Default for TimelineSpec {
    fn default() -> Self {
        TimelineSpec::with_window(Duration::from_secs(1))
    }
}

impl TimelineSpec {
    /// A spec with the given window width.
    pub fn with_window(window: Duration) -> Self {
        TimelineSpec { window }
    }
}

/// One request of a harvested page template.
#[derive(Debug, Clone, Copy)]
struct ReqTemplate {
    host: u32,
    bytes: u32,
}

/// One site's harvested page: the document plus its third-party fan-out.
#[derive(Debug)]
struct SiteTemplate {
    tier: u8,
    doc: ReqTemplate,
    subs: Vec<ReqTemplate>,
}

/// The harvested workload universe.
struct Universe {
    templates: Vec<SiteTemplate>,
    /// Cumulative popularity weights, parallel to `templates`.
    cum_weights: Vec<u64>,
    total_weight: u64,
    hosts: usize,
}

/// Harvests one page template per reachable porn site by really visiting
/// it through the bare server, then weights sites by popularity tier.
fn harvest(world: &World, seed: u64) -> Universe {
    let ctx = Browser::context_for(world, Country::Usa, BrowserKind::Selenium);
    let mut browser = Browser::with_transport(Box::new(WebServer::new(world)), ctx);
    let mut host_ids: HashMap<String, u32> = HashMap::new();
    let intern = |host: &str, ids: &mut HashMap<String, u32>| -> u32 {
        let next = ids.len() as u32;
        *ids.entry(host.to_owned()).or_insert(next)
    };

    let mut templates = Vec::new();
    let mut cum_weights = Vec::new();
    let mut total_weight = 0u64;
    for (idx, site) in world.sites.iter().enumerate() {
        if !site.is_porn() || site.unresponsive || site.blocked_in.contains(&Country::Usa) {
            continue;
        }
        let Ok(url) = Url::parse(&format!("https://{}/", site.domain)) else {
            continue;
        };
        let visit = browser.visit(&url);
        if !visit.success {
            continue;
        }
        let answered: Vec<_> = visit
            .requests
            .iter()
            .filter(|r| r.status.is_some())
            .collect();
        let Some(doc_req) = answered.first() else {
            continue;
        };
        let doc = ReqTemplate {
            host: intern(doc_req.url.host().as_str(), &mut host_ids),
            bytes: visit.dom_html.len().max(1024) as u32,
        };
        let subs = answered[1..]
            .iter()
            .take(MAX_SUBS)
            .map(|r| ReqTemplate {
                host: intern(r.url.host().as_str(), &mut host_ids),
                bytes: synth_bytes(
                    r.kind,
                    fnv1a(r.url.host().as_str().as_bytes()) ^ fnv1a(r.url.path().as_bytes()),
                ),
            })
            .collect();
        let tier = tier_index(site.tier);
        // Popularity-tier base weight with deterministic intra-tier
        // variation: tiers are roughly zipf-spaced, sites within a tier
        // vary ±2× around the base.
        let base = [420u64, 120, 30, 6][tier as usize];
        let weight = base + draw(seed, salt::WEIGHT, idx as u64) % base;
        total_weight += weight;
        cum_weights.push(total_weight);
        templates.push(SiteTemplate { tier, doc, subs });
    }
    Universe {
        templates,
        cum_weights,
        total_weight,
        hosts: host_ids.len(),
    }
}

fn tier_index(tier: PopularityTier) -> u8 {
    PopularityTier::ALL
        .iter()
        .position(|t| *t == tier)
        .unwrap_or(3) as u8
}

/// Synthesized body size for a sub-resource: the browser's request log
/// has no transfer sizes, so sizes are a pure function of the URL, scaled
/// by resource kind.
fn synth_bytes(kind: ResourceKind, h: u64) -> u32 {
    let (base, span) = match kind {
        ResourceKind::Document | ResourceKind::Frame => (8 * 1024, 56 * 1024),
        ResourceKind::Script => (8 * 1024, 64 * 1024),
        ResourceKind::Image => (4 * 1024, 36 * 1024),
        ResourceKind::Stylesheet => (2 * 1024, 14 * 1024),
        ResourceKind::Xhr | ResourceKind::Beacon | ResourceKind::Other => (300, 1_700),
    };
    base + (mix(salt::BYTES, h) % span) as u32
}

/// One in-flight request token, passed from a session to its host's pool
/// and back.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    session: u32,
    host: u32,
    bytes: u32,
    tier: u8,
    doc: bool,
    attempt: u8,
    /// Service-jitter uid (fresh per attempt).
    uid: u64,
    /// Fault identity (stable across attempts of the same request).
    fkey: u64,
    enqueued: SimTime,
}

/// The traffic event alphabet.
enum Ev {
    /// A new session arrives.
    Arrive,
    /// A session's dwell ended; walk the next page.
    NextPage { session: u32 },
    /// A request reaches its host.
    Request { t: Ticket },
    /// A host finished serving a request.
    Served { t: Ticket, ok: bool },
    /// The outcome reaches the requesting session (a zero-delay hop).
    Done {
        session: u32,
        doc: bool,
        ok: bool,
        attempt: u8,
    },
}

/// Registry handles the run updates and the report reads.
struct Hooks {
    sessions: Counter,
    sessions_done: Counter,
    sessions_failed: Counter,
    pages: Counter,
    requests: Counter,
    requests_failed: Counter,
    retries: Counter,
    faults: Counter,
    backoff_ns: Counter,
    request_us: Histogram,
    page_us: Histogram,
    session_us: Histogram,
    /// Sessions currently in flight (gauge, for the timeline).
    in_flight: Gauge,
    /// Requests currently queued behind host connection limits.
    queue_depth: Gauge,
    /// Deepest queue seen in the current timeline window (published at
    /// window close from [`TimelineRt::window_peak_queue`]).
    queue_peak: Gauge,
    tier_sessions: Vec<Counter>,
    tier_requests: Vec<Counter>,
    tier_request_us: Vec<Histogram>,
}

impl Hooks {
    fn new(registry: &Registry) -> Self {
        let tier = |stem: &str| {
            PopularityTier::ALL
                .iter()
                .enumerate()
                .map(|(i, _)| format!("traffic.{stem}.tier{i}"))
                .collect::<Vec<_>>()
        };
        Hooks {
            sessions: registry.counter("traffic.sessions"),
            sessions_done: registry.counter("traffic.sessions_completed"),
            sessions_failed: registry.counter("traffic.sessions_failed"),
            pages: registry.counter("traffic.pages"),
            requests: registry.counter("traffic.requests"),
            requests_failed: registry.counter("traffic.requests_failed"),
            retries: registry.counter("traffic.retries"),
            faults: registry.counter("traffic.faults_injected"),
            backoff_ns: registry.counter("traffic.backoff_logical_ns"),
            request_us: registry.histogram("traffic.request_us"),
            page_us: registry.histogram("traffic.page_us"),
            session_us: registry.histogram("traffic.session_us"),
            in_flight: registry.gauge("traffic.in_flight"),
            queue_depth: registry.gauge("traffic.queue_depth"),
            queue_peak: registry.gauge("traffic.queue_peak"),
            tier_sessions: tier("sessions")
                .iter()
                .map(|n| registry.counter(n))
                .collect(),
            tier_requests: tier("requests")
                .iter()
                .map(|n| registry.counter(n))
                .collect(),
            tier_request_us: tier("request_us")
                .iter()
                .map(|n| registry.histogram(n))
                .collect(),
        }
    }
}

/// Concurrency peaks over the whole run.
#[derive(Debug, Default)]
struct Peaks {
    in_flight: u64,
    peak_in_flight: u64,
    peak_queue: usize,
}

/// One visitor session's live state.
#[derive(Debug, Clone, Copy, Default)]
struct SessionSlot {
    sid: u64,
    site: u32,
    pages_done: u8,
    pages_total: u8,
    pending_subs: u16,
    started: SimTime,
    page_started: SimTime,
}

/// One traffic run: the pending events, every live session, every host's
/// connection pool and fault dice, and the telemetry both sides feed.
struct Traffic {
    queue: EventQueue<Ev>,
    universe: Universe,
    target: u64,
    seed: u64,
    fault_seed: u64,
    retry: RetryPolicy,
    faults: Option<FaultSpec>,
    model: ServiceModel,
    slots: Vec<SessionSlot>,
    free: Vec<u32>,
    pools: Vec<HostPool<Ticket>>,
    next_session: u64,
    finished: u64,
    next_uid: u64,
    hooks: Hooks,
    peaks: Peaks,
    tracer: Tracer,
    batch_open: bool,
    /// Windowed telemetry and the flight ring; `None` on bare runs.
    timeline: Option<TimelineRt>,
}

impl Traffic {
    /// Delivers every event in `(time, seq)` order, returning the instant
    /// of the last one and how many were delivered.
    fn run(&mut self) -> (SimTime, u64) {
        let (mut end, mut events) = (SimTime::ZERO, 0);
        while let Some((now, ev)) = self.queue.pop() {
            (end, events) = (now, events + 1);
            if let Some(rt) = &mut self.timeline {
                rt.close_due(now.as_nanos());
            }
            match ev {
                Ev::Arrive => self.arrive(now),
                Ev::NextPage { session } => {
                    self.slots[session as usize].page_started = now;
                    self.send_doc(now, session, 1, Duration::ZERO);
                }
                Ev::Request { t } => self.request(now, t),
                Ev::Served { t, ok } => self.served(now, t, ok),
                Ev::Done {
                    session,
                    doc,
                    ok,
                    attempt,
                } => self.done(now, session, doc, ok, attempt),
            }
        }
        (end, events)
    }

    /// Records one event in the flight ring (`host` is `u32::MAX` for
    /// session events); a no-op on bare runs.
    fn flight_note(&mut self, at: SimTime, kind: FlightKind, slot: u32, host: u32, attempt: u8) {
        if let Some(rt) = &mut self.timeline {
            rt.flight.record(FlightEvent {
                at,
                kind,
                slot,
                host,
                attempt,
            });
        }
    }

    fn arrive(&mut self, now: SimTime) {
        let sid = self.next_session;
        self.next_session += 1;
        if sid.is_multiple_of(SPAN_BATCH) {
            if self.batch_open {
                self.tracer.close();
            }
            self.tracer.open(&format!("sessions.{}", sid / SPAN_BATCH));
            self.tracer.attr("first_session", sid);
            self.batch_open = true;
        }
        let w = draw(self.seed, salt::SITE, sid) % self.universe.total_weight;
        let site = self.universe.cum_weights.partition_point(|&c| c <= w) as u32;
        let pages = 1 + (draw(self.seed, salt::PAGES, sid) % 3) as u8;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(SessionSlot::default());
            (self.slots.len() - 1) as u32
        });
        self.slots[slot as usize] = SessionSlot {
            sid,
            site,
            pages_done: 0,
            pages_total: pages,
            pending_subs: 0,
            started: now,
            page_started: now,
        };
        self.hooks.sessions.inc();
        self.hooks.tier_sessions[self.universe.templates[site as usize].tier as usize].inc();
        self.hooks.in_flight.add(1);
        self.flight_note(now, FlightKind::Arrive, slot, u32::MAX, 0);
        self.peaks.in_flight += 1;
        self.peaks.peak_in_flight = self.peaks.peak_in_flight.max(self.peaks.in_flight);
        self.send_doc(now, slot, 1, Duration::ZERO);
        if self.next_session < self.target {
            let gap = draw(self.seed, salt::GAP, self.next_session) % (2 * MEAN_GAP_NS);
            self.queue
                .schedule(now.after(Duration::from_nanos(gap)), Ev::Arrive);
        }
    }

    fn send_doc(&mut self, now: SimTime, slot: u32, attempt: u8, delay: Duration) {
        let sess = self.slots[slot as usize];
        let t = &self.universe.templates[sess.site as usize];
        let uid = self.next_uid;
        self.next_uid += 1;
        let fkey = draw(
            self.fault_seed,
            salt::FAULT,
            mix(sess.sid, 0x1_0000 + sess.pages_done as u64),
        );
        self.queue.schedule(
            now.after(delay),
            Ev::Request {
                t: Ticket {
                    session: slot,
                    host: t.doc.host,
                    bytes: t.doc.bytes,
                    tier: t.tier,
                    doc: true,
                    attempt,
                    uid,
                    fkey,
                    enqueued: SimTime::ZERO,
                },
            },
        );
    }

    fn send_subs(&mut self, now: SimTime, slot: u32) -> u16 {
        let sess = self.slots[slot as usize];
        let t = &self.universe.templates[sess.site as usize];
        for (i, sub) in t.subs.iter().enumerate() {
            let uid = self.next_uid;
            self.next_uid += 1;
            let fkey = draw(
                self.fault_seed,
                salt::FAULT,
                mix(
                    sess.sid,
                    0x2_0000 + ((sess.pages_done as u64) << 8) + i as u64,
                ),
            );
            self.queue.schedule(
                now,
                Ev::Request {
                    t: Ticket {
                        session: slot,
                        host: sub.host,
                        bytes: sub.bytes,
                        tier: t.tier,
                        doc: false,
                        attempt: 1,
                        uid,
                        fkey,
                        enqueued: SimTime::ZERO,
                    },
                },
            );
        }
        t.subs.len() as u16
    }

    fn page_done(&mut self, now: SimTime, slot: u32) {
        self.hooks.pages.inc();
        let sess = &mut self.slots[slot as usize];
        self.hooks
            .page_us
            .record(now.since(sess.page_started).as_micros() as u64);
        sess.pages_done += 1;
        if sess.pages_done < sess.pages_total {
            let dwell = Duration::from_secs(1)
                + Duration::from_nanos(
                    draw(
                        self.seed,
                        salt::DWELL,
                        mix(sess.sid, sess.pages_done as u64),
                    ) % 2_000_000_000,
                );
            self.queue
                .schedule(now.after(dwell), Ev::NextPage { session: slot });
        } else {
            self.hooks.sessions_done.inc();
            self.hooks
                .session_us
                .record(now.since(sess.started).as_micros() as u64);
            self.teardown(slot);
        }
    }

    fn teardown(&mut self, slot: u32) {
        self.free.push(slot);
        self.finished += 1;
        self.hooks.in_flight.add(-1);
        self.peaks.in_flight -= 1;
        if self.finished == self.target && self.batch_open {
            self.tracer.attr("last_batch", true);
            self.tracer.close();
            self.batch_open = false;
        }
    }

    fn done(&mut self, now: SimTime, session: u32, doc: bool, ok: bool, attempt: u8) {
        if doc {
            if ok {
                let subs = self.send_subs(now, session);
                self.slots[session as usize].pending_subs = subs;
                if subs == 0 {
                    self.page_done(now, session);
                }
            } else if (attempt as u32) < self.retry.max_attempts {
                // The retry consumes its backoff as logical delay before
                // the request is re-issued — recorded and elapsed time
                // agree by construction.
                let pause = self.retry.backoff_before(attempt as u32 + 1);
                self.hooks.retries.inc();
                self.hooks.backoff_ns.add(pause.as_nanos() as u64);
                self.flight_note(now, FlightKind::Retry, session, u32::MAX, attempt + 1);
                self.send_doc(now, session, attempt + 1, pause);
            } else {
                self.hooks.sessions_failed.inc();
                self.flight_note(now, FlightKind::SessionFailed, session, u32::MAX, attempt);
                self.teardown(session);
            }
        } else {
            let sess = &mut self.slots[session as usize];
            sess.pending_subs -= 1;
            if sess.pending_subs == 0 {
                self.page_done(now, session);
            }
        }
    }

    fn request(&mut self, now: SimTime, mut t: Ticket) {
        t.enqueued = now;
        self.hooks.requests.inc();
        self.hooks.tier_requests[t.tier as usize].inc();
        let kind = if t.doc {
            FlightKind::DocRequest
        } else {
            FlightKind::SubRequest
        };
        self.flight_note(now, kind, t.session, t.host, t.attempt);
        let host = t.host as usize;
        if let Some(admitted) = self.pools[host].admit(t) {
            self.start(now, admitted);
        } else {
            self.hooks.queue_depth.add(1);
            let depth = self.pools[host].waiting();
            self.peaks.peak_queue = self.peaks.peak_queue.max(depth);
            if let Some(rt) = &mut self.timeline {
                rt.window_peak_queue = rt.window_peak_queue.max(depth);
            }
        }
    }

    fn served(&mut self, now: SimTime, t: Ticket, ok: bool) {
        let us = now.since(t.enqueued).as_micros() as u64;
        self.hooks.request_us.record(us);
        self.hooks.tier_request_us[t.tier as usize].record(us);
        let kind = if ok {
            FlightKind::Served
        } else {
            self.hooks.requests_failed.inc();
            FlightKind::Failed
        };
        self.flight_note(now, kind, t.session, t.host, t.attempt);
        if let Some(next) = self.pools[t.host as usize].complete() {
            self.hooks.queue_depth.add(-1);
            self.start(now, next);
        }
        self.queue.schedule(
            now,
            Ev::Done {
                session: t.session,
                doc: t.doc,
                ok,
                attempt: t.attempt,
            },
        );
    }

    /// Starts serving `t`: draws its outcome and schedules its completion.
    fn start(&mut self, now: SimTime, t: Ticket) {
        let (ok, service, faulted) = self.outcome(&t);
        if faulted {
            self.hooks.faults.inc();
            self.flight_note(now, FlightKind::Fault, t.session, t.host, t.attempt);
        }
        self.queue
            .schedule(now.after(service), Ev::Served { t, ok });
    }

    /// Decides a request's fate and its service duration. Fault identity
    /// is the ticket's `fkey`, so retries of the same request re-roll
    /// persistence exactly like `FaultTransport` does.
    fn outcome(&self, t: &Ticket) -> (bool, Duration, bool) {
        if let Some(spec) = self.faults {
            let roll = (draw(self.fault_seed, salt::FAULT, t.fkey) % 1000) as u16;
            if let Some(fault) = spec.classify(roll) {
                let persistence = spec.persistence(draw(self.fault_seed, salt::PERSIST, t.fkey));
                if (t.attempt as u32) <= persistence {
                    return match fault {
                        Fault::Dns | Fault::Reset => {
                            (false, self.model.connect_fail_time(t.uid), true)
                        }
                        Fault::Stall => (false, self.model.timeout_time(), true),
                        Fault::ServerError => (false, self.model.service_time(1024, t.uid), true),
                        Fault::Truncate => (
                            true,
                            self.model.service_time(t.bytes as u64 / 2, t.uid),
                            true,
                        ),
                    };
                }
            }
        }
        (true, self.model.service_time(t.bytes as u64, t.uid), false)
    }
}

/// The timeline runtime: the recorder plus SLO tracking and the flight
/// ring, sampled by the run loop.
struct TimelineRt {
    tl: Timeline,
    tracker: SloTracker,
    flight: FlightRecorder,
    req_ix: usize,
    fail_ix: usize,
    lat_ix: usize,
    queue_peak: Gauge,
    /// Deepest queue seen since the current window opened.
    window_peak_queue: usize,
}

impl TimelineRt {
    /// Tracks the traffic series in `registry` at `spec`'s window width.
    fn new(spec: &TimelineSpec, registry: &Registry, slo: SloPolicy, queue_peak: Gauge) -> Self {
        let mut tl = Timeline::new(spec.window);
        for name in [
            "traffic.sessions",
            "traffic.sessions_completed",
            "traffic.sessions_failed",
            "traffic.pages",
            "traffic.requests",
            "traffic.requests_failed",
            "traffic.retries",
            "traffic.faults_injected",
        ] {
            tl.track_counter(registry, name);
        }
        for i in 0..PopularityTier::ALL.len() {
            tl.track_counter(registry, &format!("traffic.requests.tier{i}"));
        }
        for name in [
            "traffic.in_flight",
            "traffic.queue_depth",
            "traffic.queue_peak",
        ] {
            tl.track_gauge(registry, name);
        }
        tl.track_histogram(registry, "traffic.request_us");
        TimelineRt {
            req_ix: tl.counter_index("traffic.requests").expect("tracked"),
            fail_ix: tl
                .counter_index("traffic.requests_failed")
                .expect("tracked"),
            lat_ix: tl.hist_index("traffic.request_us").expect("tracked"),
            tl,
            tracker: SloTracker::new(slo),
            flight: FlightRecorder::new(FLIGHT_CAPACITY, MAX_FREEZES),
            queue_peak,
            window_peak_queue: 0,
        }
    }

    /// Publishes the closing window's peak queue depth, then resets the
    /// accumulator so the next window starts from the current depth.
    fn publish_queue_peak(&mut self) {
        self.queue_peak.set(self.window_peak_queue as i64);
        self.window_peak_queue = 0;
    }

    /// Feeds the most recent row to the SLO tracker; violations entered
    /// this window freeze the flight ring.
    fn post_window(&mut self) {
        let row = self.tl.windows().last().expect("a row was just closed");
        let (window, end_ns) = (row.index, row.end_ns);
        let total = row.counters[self.req_ix];
        let bad = row.counters[self.fail_ix];
        let p99 = row.hists[self.lat_ix].p99;
        let before = self.tracker.events().len();
        self.tracker
            .observe(window, total.saturating_sub(bad), bad, p99);
        for i in before..self.tracker.events().len() {
            let ev = self.tracker.events()[i];
            if ev.entered {
                self.flight
                    .freeze(ev.kind.label(), ev.window, SimTime::from_nanos(end_ns));
            }
        }
    }

    /// Closes every full window that ends at or before `now_ns`, so an
    /// event landing on a boundary counts toward the window it opens. Idle
    /// gaps close as explicit zero rows.
    fn close_due(&mut self, now_ns: u64) {
        while now_ns >= self.tl.next_boundary() {
            self.publish_queue_peak();
            self.tl.sample_window();
            self.post_window();
        }
    }

    /// Seals the series with the final partial window at `end_ns`, exports
    /// the SLO transitions and frozen flights into `trace`, and reports.
    fn finish(mut self, end_ns: u64, trace: &Trace) -> TimelineReport {
        self.close_due(end_ns);
        self.publish_queue_peak();
        self.tl.finish(end_ns);
        self.post_window();
        // SLO transitions become journal spans; frozen flight snapshots
        // attach their causal neighborhoods next to them. Both tracers are
        // no-ops when spans are disabled.
        let mut slo_tracer = trace.tracer("traffic.slo");
        for ev in self.tracker.events() {
            slo_tracer.open(&format!("slo.{}", ev.kind.label()));
            slo_tracer.attr("window", ev.window);
            slo_tracer.attr("entered", ev.entered);
            slo_tracer.attr("burn_x100", ev.burn_x100);
            slo_tracer.attr("value", ev.value);
            slo_tracer.close();
        }
        slo_tracer.finish();
        self.flight.emit_spans(trace, "traffic.flight");
        TimelineReport {
            window: Duration::from_nanos(self.tl.window_ns()),
            slo_events: self.tracker.events().to_vec(),
            flight_freezes: self.flight.snapshots().len(),
            flight_suppressed: self.flight.suppressed(),
            timeline: self.tl,
        }
    }
}

/// Per-tier latency row of a [`TrafficReport`].
#[derive(Debug, Clone)]
pub struct TierRow {
    /// Tier label (`"0 — 1k"` …).
    pub label: String,
    /// Sessions that chose a site in this tier.
    pub sessions: u64,
    /// Requests issued on behalf of those sessions.
    pub requests: u64,
    /// Median request latency (µs, histogram bucket bound).
    p50_us: u64,
    /// Tail request latency (µs, histogram bucket bound).
    pub p99_us: u64,
}

/// Everything a traffic run measured. All fields except [`wall`]
/// (`TrafficReport::wall`) are logical and deterministic in the seed.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Sessions requested.
    pub sessions: u64,
    /// Sessions whose every page completed.
    pub completed: u64,
    /// Sessions abandoned after a document failed all retries.
    pub failed: u64,
    /// Pages fully loaded.
    pub pages: u64,
    /// Requests issued (documents + sub-resources, retries included).
    pub requests: u64,
    /// Requests that failed (after queueing/service).
    pub failed_requests: u64,
    /// Document retries issued.
    pub retries: u64,
    /// Faults injected by the fault plan.
    pub faults: u64,
    /// Logical time from first arrival to last completion.
    pub makespan: Duration,
    /// Total retry backoff consumed on the logical clock.
    pub backoff: Duration,
    /// Request latency percentiles (µs, inclusive bucket bounds).
    pub request_p50_us: u64,
    /// p95.
    request_p95_us: u64,
    /// p99.
    pub request_p99_us: u64,
    /// Page-load percentiles (µs).
    page_p50_us: u64,
    /// p99.
    page_p99_us: u64,
    /// Most sessions ever simultaneously in flight.
    pub peak_in_flight: u64,
    /// Deepest any host's FIFO connection queue got.
    pub peak_queue: usize,
    /// Distinct sites in the workload universe.
    pub sites: usize,
    /// Distinct hosts behind them.
    pub hosts: usize,
    /// Kernel events delivered.
    pub events: u64,
    /// Per-popularity-tier breakdown.
    pub tiers: Vec<TierRow>,
    /// Timeline telemetry, present when the run configured a
    /// [`TimelineSpec`].
    pub timeline: Option<TimelineReport>,
    /// Real wall time of the run — the one non-deterministic field; never
    /// rendered by [`TrafficReport::render`].
    pub wall: Duration,
}

/// The timeline side of a traffic run: the windowed series, the SLO
/// transitions and the flight-recorder outcome. All logical, all
/// deterministic in the seed.
#[derive(Debug, Clone)]
pub struct TimelineReport {
    /// Window width the run sampled at.
    pub window: Duration,
    /// The sealed series recorder.
    pub timeline: Timeline,
    /// Every SLO transition, in window order.
    pub slo_events: Vec<SloEvent>,
    /// Flight snapshots frozen (at most four).
    pub flight_freezes: usize,
    /// SLO trips past the snapshot cap (counted, not stored).
    pub flight_suppressed: u64,
}

impl TimelineReport {
    /// JSON-lines export: the timeline's `meta` + `window` lines, one
    /// `slo` line per transition, and a final `flight` summary line.
    pub fn json_lines(&self) -> String {
        let mut out = self.timeline.json_lines();
        for ev in &self.slo_events {
            out.push_str(&format!(
                "{{\"type\":\"slo\",\"window\":{},\"kind\":\"{}\",\"entered\":{},\
                 \"burn_x100\":{},\"value\":{}}}\n",
                ev.window,
                ev.kind.label(),
                ev.entered,
                ev.burn_x100,
                ev.value
            ));
        }
        out.push_str(&format!(
            "{{\"type\":\"flight\",\"freezes\":{},\"suppressed\":{}}}\n",
            self.flight_freezes, self.flight_suppressed
        ));
        out
    }

    /// CSV export of the windowed series (plot-ready; one row per window).
    pub fn csv(&self) -> String {
        self.timeline.csv()
    }

    /// Terminal sparkline summary of the headline series.
    pub fn render(&self) -> String {
        let tl = &self.timeline;
        let as_f64 = |v: Vec<u64>| v.into_iter().map(|x| x as f64).collect::<Vec<_>>();
        let series = vec![
            Series::new(
                "requests / window",
                as_f64(tl.counter_series("traffic.requests").unwrap_or_default()),
            ),
            Series::new(
                "request p99 (µs)",
                tl.hist_series("traffic.request_us")
                    .unwrap_or_default()
                    .iter()
                    .map(|h| h.p99 as f64)
                    .collect(),
            ),
            Series::new(
                "in-flight sessions",
                tl.gauge_series("traffic.in_flight")
                    .unwrap_or_default()
                    .iter()
                    .map(|&v| v as f64)
                    .collect(),
            ),
            Series::new(
                "peak host queue",
                tl.gauge_series("traffic.queue_peak")
                    .unwrap_or_default()
                    .iter()
                    .map(|&v| v as f64)
                    .collect(),
            ),
        ];
        let mut out = figure::render("Timeline", &series, 64);
        out.push_str(&format!(
            "windows: {} × {:.3} s   SLO transitions: {}   flight freezes: {} ({} suppressed)\n",
            tl.windows().len(),
            self.window.as_secs_f64(),
            self.slo_events.len(),
            self.flight_freezes,
            self.flight_suppressed,
        ));
        out
    }
}

impl TrafficReport {
    /// Completed-plus-failed sessions per logical second.
    fn sessions_per_sec(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.completed + self.failed) as f64 / secs
        }
    }

    /// Requests per logical second.
    fn requests_per_sec(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.requests as f64 / secs
        }
    }

    /// The deterministic text report: logical quantities only.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Traffic workload ==\n");
        out.push_str(&format!(
            "sessions: {} ({} completed, {} failed)   pages: {}\n",
            fmt_count(self.sessions as usize),
            fmt_count(self.completed as usize),
            fmt_count(self.failed as usize),
            fmt_count(self.pages as usize),
        ));
        out.push_str(&format!(
            "requests: {} ({} failed, {} retried, {} faults injected)\n",
            fmt_count(self.requests as usize),
            fmt_count(self.failed_requests as usize),
            fmt_count(self.retries as usize),
            fmt_count(self.faults as usize),
        ));
        out.push_str(&format!(
            "logical makespan: {:.3} s   throughput: {:.1} sessions/s, {:.1} requests/s\n",
            self.makespan.as_secs_f64(),
            self.sessions_per_sec(),
            self.requests_per_sec(),
        ));
        out.push_str(&format!(
            "request latency (µs): p50 {}   p95 {}   p99 {}\n",
            fmt_count(self.request_p50_us as usize),
            fmt_count(self.request_p95_us as usize),
            fmt_count(self.request_p99_us as usize),
        ));
        out.push_str(&format!(
            "page load (µs):       p50 {}   p99 {}\n",
            fmt_count(self.page_p50_us as usize),
            fmt_count(self.page_p99_us as usize),
        ));
        out.push_str(&format!(
            "backoff consumed: {:.3} s   peak in-flight: {} sessions   peak host queue: {}\n",
            self.backoff.as_secs_f64(),
            fmt_count(self.peak_in_flight as usize),
            fmt_count(self.peak_queue),
        ));
        out.push_str(&format!(
            "universe: {} sites, {} hosts   kernel events: {}\n",
            fmt_count(self.sites),
            fmt_count(self.hosts),
            fmt_count(self.events as usize),
        ));
        out
    }

    /// The `--timings`-style "Traffic layer" table.
    pub fn render_table(&self) -> String {
        let mut table = Table::new(
            "Traffic layer",
            &["tier", "sessions", "requests", "p50 (µs)", "p99 (µs)"],
        )
        .align_right(&[1, 2, 3, 4]);
        for row in &self.tiers {
            table.row(&[
                row.label.clone(),
                fmt_count(row.sessions as usize),
                fmt_count(row.requests as usize),
                fmt_count(row.p50_us as usize),
                fmt_count(row.p99_us as usize),
            ]);
        }
        table.row(&[
            "all".to_owned(),
            fmt_count((self.completed + self.failed) as usize),
            fmt_count(self.requests as usize),
            fmt_count(self.request_p50_us as usize),
            fmt_count(self.request_p99_us as usize),
        ]);
        table.render()
    }
}

/// Runs the traffic workload to completion and reports what happened.
///
/// Memory stays bounded in the session count: live state is the in-flight
/// session set (arrival-rate × session-duration, a few thousand) plus the
/// pending-event heap — finished sessions recycle their slots.
pub fn run_traffic(config: &TrafficConfig, obs: &ObsContext) -> TrafficReport {
    let world = World::build(config.world.clone());
    let universe = harvest(&world, config.seed);
    assert!(
        universe.total_weight > 0,
        "traffic universe is empty: no reachable porn site in the world"
    );

    let hooks = Hooks::new(&obs.metrics);
    let mut tracer = obs.trace.tracer("traffic");
    tracer.open("traffic");
    tracer.attr("sessions", config.sessions);
    tracer.attr("sites", universe.templates.len() as u64);
    tracer.attr("hosts", universe.hosts as u64);
    let timeline = config
        .timeline
        .as_ref()
        .map(|spec| TimelineRt::new(spec, &obs.metrics, config.net.slo, hooks.queue_peak.clone()));

    let spec = config.net.sim;
    let mut traffic = Traffic {
        queue: EventQueue::new(),
        pools: (0..universe.hosts)
            .map(|_| HostPool::new(spec.conn_limit))
            .collect(),
        universe,
        target: config.sessions,
        seed: config.seed,
        fault_seed: config.net.fault_seed,
        retry: config.net.retry.clone(),
        faults: config.net.faults,
        model: ServiceModel::new(spec),
        slots: Vec::new(),
        free: Vec::new(),
        next_session: 0,
        finished: 0,
        next_uid: 0,
        hooks,
        peaks: Peaks::default(),
        tracer,
        batch_open: false,
        timeline,
    };
    if config.sessions > 0 {
        traffic.queue.schedule(SimTime::ZERO, Ev::Arrive);
    }
    let wall_start = std::time::Instant::now();
    let (end, events) = traffic.run();
    let wall = wall_start.elapsed();

    let Traffic {
        universe,
        hooks,
        peaks,
        tracer,
        timeline,
        ..
    } = traffic;
    tracer.finish();
    let timeline = timeline.map(|rt| rt.finish(end.as_nanos(), &obs.trace));

    let request_us = hooks.request_us.snapshot();
    let page_us = hooks.page_us.snapshot();
    let tiers = PopularityTier::ALL
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let snap = hooks.tier_request_us[i].snapshot();
            TierRow {
                label: t.label().to_owned(),
                sessions: hooks.tier_sessions[i].get(),
                requests: hooks.tier_requests[i].get(),
                p50_us: snap.quantile(0.50),
                p99_us: snap.quantile(0.99),
            }
        })
        .collect();

    TrafficReport {
        sessions: config.sessions,
        completed: hooks.sessions_done.get(),
        failed: hooks.sessions_failed.get(),
        pages: hooks.pages.get(),
        requests: hooks.requests.get(),
        failed_requests: hooks.requests_failed.get(),
        retries: hooks.retries.get(),
        faults: hooks.faults.get(),
        makespan: end.as_duration(),
        backoff: Duration::from_nanos(hooks.backoff_ns.get()),
        request_p50_us: request_us.quantile(0.50),
        request_p95_us: request_us.quantile(0.95),
        request_p99_us: request_us.quantile(0.99),
        page_p50_us: page_us.quantile(0.50),
        page_p99_us: page_us.quantile(0.99),
        peak_in_flight: peaks.peak_in_flight,
        peak_queue: peaks.peak_queue,
        sites: universe.templates.len(),
        hosts: universe.hosts,
        events,
        tiers,
        timeline,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(sessions: u64) -> TrafficConfig {
        TrafficConfig {
            world: WorldConfig::tiny(7),
            ..TrafficConfig::new(sessions)
        }
    }

    #[test]
    fn accounting_balances_and_sessions_finish() {
        let obs = ObsContext::new();
        let report = run_traffic(&tiny_config(200), &obs);
        assert_eq!(report.completed + report.failed, 200);
        assert!(
            report.pages >= report.completed,
            "≥1 page per completed session"
        );
        assert!(report.requests > report.pages, "documents plus fan-out");
        assert_eq!(report.failed_requests, 0, "healthy default profile");
        assert_eq!(report.backoff, Duration::ZERO);
        assert!(report.makespan > Duration::ZERO);
        assert!(report.request_p99_us >= report.request_p50_us);
        let tier_sessions: u64 = report.tiers.iter().map(|t| t.sessions).sum();
        assert_eq!(tier_sessions, 200);
    }

    #[test]
    fn same_seed_same_report_different_seed_diverges() {
        let a = run_traffic(&tiny_config(150), &ObsContext::new());
        let b = run_traffic(&tiny_config(150), &ObsContext::new());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render_table(), b.render_table());
        assert_eq!(a.events, b.events);
        let mut other = tiny_config(150);
        other.seed = 99;
        let c = run_traffic(&other, &ObsContext::new());
        assert_ne!(a.render(), c.render(), "seed must steer the workload");
    }

    #[test]
    fn faulty_weather_slows_and_fails_traffic() {
        let healthy = run_traffic(&tiny_config(150), &ObsContext::new());
        let mut flaky = tiny_config(150);
        flaky.net = NetProfile::named("flaky").unwrap();
        let stormy = run_traffic(&flaky, &ObsContext::new());
        assert!(stormy.faults > 0);
        assert!(stormy.retries > 0, "doc faults must trigger retries");
        assert!(stormy.backoff > Duration::ZERO);
        assert!(
            stormy.makespan > healthy.makespan,
            "faults cost logical time: {:?} vs {:?}",
            stormy.makespan,
            healthy.makespan
        );
    }

    #[test]
    fn timeline_windows_sum_to_the_final_counters() {
        let mut config = tiny_config(200);
        config.timeline = Some(TimelineSpec::with_window(Duration::from_millis(250)));
        let report = run_traffic(&config, &ObsContext::new());
        let tl = report.timeline.as_ref().expect("timeline configured");
        assert!(tl.timeline.is_finished());
        assert!(!tl.timeline.windows().is_empty());
        let sum = |name: &str| -> u64 {
            tl.timeline
                .counter_series(name)
                .expect("tracked")
                .iter()
                .sum()
        };
        assert_eq!(sum("traffic.requests"), report.requests);
        assert_eq!(sum("traffic.sessions"), report.sessions);
        assert_eq!(sum("traffic.pages"), report.pages);
        // The report's own renders never change shape because a timeline
        // rode along.
        let bare = run_traffic(&tiny_config(200), &ObsContext::new());
        assert_eq!(bare.render(), report.render());
        assert_eq!(bare.render_table(), report.render_table());
    }

    #[test]
    fn timeline_flags_slo_violations_and_freezes_flights() {
        let mut config = tiny_config(400);
        config.net = NetProfile::named("flaky").unwrap();
        // An unmeetable latency objective guarantees transitions.
        config.net.slo = SloPolicy {
            latency_p99_us: 1,
            ..SloPolicy::default()
        };
        config.timeline = Some(TimelineSpec::with_window(Duration::from_millis(500)));
        let obs = ObsContext::new();
        let report = run_traffic(&config, &obs);
        let tl = report.timeline.as_ref().expect("timeline configured");
        assert!(
            tl.slo_events.iter().any(|e| e.entered),
            "1µs p99 objective must trip"
        );
        assert!(tl.flight_freezes > 0, "entering a violation freezes");
        let journal = obs.trace.journal();
        assert!(journal.find("slo.latency").is_some(), "SLO span exported");
        assert!(
            journal.find("flight.freeze.000").is_some(),
            "flight snapshot exported"
        );
        let lines = tl.json_lines();
        assert!(lines.contains("\"type\":\"slo\""));
        assert!(lines.contains("\"type\":\"flight\""));
        assert!(tl.render().contains("requests / window"));
    }
}
