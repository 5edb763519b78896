//! The crawl session both crawlers drive (paper §3.1): one long-lived
//! browser fetching through the crawl's [`NetProfile`] stack, on a logical
//! clock.
//!
//! [`Session::open`] assembles [`NetProfile::stack`] with [`SimTransport`]
//! outermost, so every fetch, fault stall and retry backoff is charged to
//! the session's simulated clock under the profile's
//! [`SimSpec`](redlight_net::transport::SimSpec); nothing waits on a real
//! one. [`Session::load`] is the one retry loop: it re-visits a failed
//! document load up to the profile's [`RetryPolicy`] budget, consumes each
//! backoff on the clock, and returns the visit with its attempts and its
//! logical wall. The session counts sites, attempts, retries and failed
//! visits, publishes the shared `transport.retries` counter and
//! `crawl.attempts` histogram, and [`finish`](Session::finish)es into the
//! crawl's [`CrawlTiming`].

use std::time::{Duration, Instant};

use redlight_browser::{Browser, PageVisit};
use redlight_net::geoip::Country;
use redlight_net::transport::{BrowserKind, NetProfile, RetryPolicy, TransportMeter};
use redlight_net::url::Url;
use redlight_obs::{Counter, Histogram, Registry, Tracer};
use redlight_sim::{SimHandle, SimTransport};
use redlight_websim::server::WebServer;
use redlight_websim::World;

use crate::db::CorpusLabel;
use crate::plan::CrawlTiming;

/// Sites per `visits.NNN` batch span in the crawl journal.
const VISIT_BATCH: usize = 25;

/// One crawl's browser session and its visit bookkeeping.
pub(crate) struct Session<'w> {
    browser: Browser<'w>,
    clock: SimHandle,
    retry: RetryPolicy,
    /// The stack's meter, kept only when the profile meters.
    meter: Option<TransportMeter>,
    started: Instant,
    retry_counter: Counter,
    attempts_hist: Histogram,
    sites: usize,
    attempts: u64,
    retries: u64,
    failures: u64,
}

/// One document load through [`Session::load`].
pub(crate) struct Load {
    /// The last attempt's visit.
    pub(crate) visit: PageVisit,
    /// Attempts spent (at least one).
    pub(crate) attempts: u32,
    /// Logical time from the first fetch to the last outcome, backoff
    /// included.
    pub(crate) wall: Duration,
}

impl<'w> Session<'w> {
    /// Opens a `kind` browser session from `country` over `net`, publishing
    /// the stack's `transport.*` counters into `registry`.
    pub(crate) fn open(
        world: &'w World,
        country: Country,
        kind: BrowserKind,
        net: &NetProfile,
        registry: &Registry,
    ) -> Self {
        let started = Instant::now();
        let ctx = Browser::context_for(world, country, kind);
        let meter = TransportMeter::in_registry(registry);
        let clock = SimHandle::new(net.sim);
        let stack = SimTransport::new(
            net.stack(WebServer::new(world), &meter, registry),
            clock.clone(),
        );
        Session {
            browser: Browser::with_transport(Box::new(stack), ctx),
            clock,
            retry: net.retry.clone(),
            meter: net.metered.then_some(meter),
            started,
            retry_counter: registry.counter("transport.retries"),
            attempts_hist: registry.histogram("crawl.attempts"),
            sites: 0,
            attempts: 0,
            retries: 0,
            failures: 0,
        }
    }

    /// The session's browser, for fetches beyond the landing page.
    pub(crate) fn browser(&mut self) -> &mut Browser<'w> {
        &mut self.browser
    }

    /// Loads `url`, re-visiting a failed load until it succeeds or the
    /// retry budget is spent, with each backoff consumed on the clock.
    ///
    /// # Panics
    ///
    /// If the backoff the clock consumed differs from
    /// [`RetryPolicy::total_backoff`] for the attempts spent.
    pub(crate) fn load(&mut self, url: &Url) -> Load {
        let (t0, b0) = (self.clock.now(), self.clock.backoff_consumed());
        let mut attempts = 1u32;
        let mut visit = self.browser.visit(url);
        while !visit.success && attempts < self.retry.max_attempts {
            attempts += 1;
            self.clock
                .consume_backoff(self.retry.backoff_before(attempts));
            visit = self.browser.visit(url);
        }
        assert_eq!(
            self.clock.backoff_consumed() - b0,
            self.retry.total_backoff(attempts),
            "recorded backoff must equal logical time consumed"
        );
        self.count(attempts, visit.success);
        Load {
            wall: self.clock.now() - t0,
            visit,
            attempts,
        }
    }

    /// Counts a corpus entry that never parsed into a URL: a failed visit
    /// that spent no attempt.
    pub(crate) fn skip(&mut self) {
        self.count(0, false);
    }

    fn count(&mut self, attempts: u32, success: bool) {
        let retries = attempts.saturating_sub(1) as u64;
        self.retry_counter.add(retries);
        self.attempts_hist.record(attempts as u64);
        self.sites += 1;
        self.attempts += attempts as u64;
        self.retries += retries;
        self.failures += u64::from(!success);
    }

    /// Crawls `domains` in order, `site` visiting one domain through the
    /// session. Every [`VISIT_BATCH`] sites form a `visits.NNN` span in
    /// `tracer` carrying the batch's sites, attempts and failed visits.
    pub(crate) fn sweep(
        &mut self,
        domains: &[String],
        tracer: &mut Tracer,
        mut site: impl FnMut(&mut Self, &str),
    ) {
        for (batch_idx, batch) in domains.chunks(VISIT_BATCH).enumerate() {
            tracer.open(&format!("visits.{batch_idx:03}"));
            let (attempts, failures) = (self.attempts, self.failures);
            for domain in batch {
                site(self, domain);
            }
            tracer.attr("sites", batch.len());
            tracer.attr("attempts", self.attempts - attempts);
            tracer.attr("failures", self.failures - failures);
            tracer.close();
        }
    }

    /// Closes the session into its crawl's timing: the host wall time
    /// since [`open`](Self::open), the session's counts, and the transport
    /// counters when the profile meters.
    pub(crate) fn finish(self, corpus: Option<CorpusLabel>) -> CrawlTiming {
        let client = self.browser.client();
        CrawlTiming {
            crawler: match client.browser {
                BrowserKind::OpenWpm => "openwpm",
                BrowserKind::Selenium => "selenium",
            },
            country: client.country,
            corpus,
            sites: self.sites,
            attempts: self.attempts,
            retries: self.retries,
            failures: self.failures,
            wall: self.started.elapsed(),
            net: self.meter.map(|meter| meter.snapshot()),
        }
    }
}
