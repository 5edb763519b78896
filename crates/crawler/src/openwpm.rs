//! The OpenWPM-style crawler (paper §3.1).
//!
//! One long-lived browser session per crawl — the study deliberately never
//! restarts the browser between visits so cookie synchronization stays
//! observable — visiting only each site's landing page, recording every
//! HTTP exchange, cookie and instrumented JS call. Visits are attempted
//! HTTPS-first with HTTP downgrade; pages may hit the 120 s timeout.
//!
//! The crawl runs as one crawl session: a browser fetching through the
//! stack its [`NetProfile`] assembles — the in-process server under a
//! meter, optionally with a deterministic fault-injection decorator
//! between them. Failed document loads are retried up to the profile's
//! [`RetryPolicy`](redlight_net::transport::RetryPolicy) budget, with the
//! attempt count recorded on every
//! [`SiteVisitRecord`](crate::db::SiteVisitRecord).

use redlight_net::geoip::Country;
use redlight_net::transport::{BrowserKind, NetProfile};
use redlight_net::url::Url;
use redlight_obs::{Registry, Trace, Tracer};
use redlight_websim::World;

use crate::db::{CorpusLabel, CrawlRecord};
use crate::plan::CrawlTiming;
use crate::session::{Load, Session};

/// Crawl configuration.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Country.
    pub country: Country,
    /// Corpus.
    pub corpus: CorpusLabel,
    /// Keep the fetched document markup in the DB (needed for consent-banner
    /// and owner analyses; dropped for pure-geo sweeps to save memory).
    pub store_dom: bool,
}

/// The crawler.
pub struct OpenWpmCrawler<'w> {
    world: &'w World,
    config: CrawlConfig,
    net: NetProfile,
}

impl<'w> OpenWpmCrawler<'w> {
    /// Creates a crawler for `world` with `config` over a default (healthy,
    /// metered, no-retry) network.
    pub fn new(world: &'w World, config: CrawlConfig) -> Self {
        OpenWpmCrawler {
            world,
            config,
            net: NetProfile::default(),
        }
    }

    /// Replaces the network profile the crawl runs over.
    pub fn with_net(mut self, net: NetProfile) -> Self {
        self.net = net;
        self
    }

    /// Crawls `domains` sequentially in one browser session.
    pub fn crawl(&self, domains: &[String]) -> CrawlRecord {
        let mut tracer = Trace::disabled().tracer("crawl");
        self.crawl_observed(domains, &mut tracer, &Registry::new())
            .0
    }

    /// [`crawl`](Self::crawl) with telemetry, also returning the crawl's
    /// [`CrawlTiming`]: the crawl records a
    /// `crawl.openwpm.<country>.<corpus>` span with one `visits.NNN` child
    /// per 25 sites into `tracer`, and publishes `transport.*` counters,
    /// `transport.retries`, `crawl.failed_visits` and the `crawl.attempts`
    /// / `crawl.requests_per_visit` histograms into `registry`. The record
    /// is byte-identical to [`crawl`](Self::crawl)'s.
    pub(crate) fn crawl_observed(
        &self,
        domains: &[String],
        tracer: &mut Tracer,
        registry: &Registry,
    ) -> (CrawlRecord, CrawlTiming) {
        let mut session = Session::open(
            self.world,
            self.config.country,
            BrowserKind::OpenWpm,
            &self.net,
            registry,
        );
        let requests_hist = registry.histogram("crawl.requests_per_visit");

        tracer.open(&format!(
            "crawl.openwpm.{}.{}",
            self.config.country.code().to_ascii_lowercase(),
            corpus_slug(self.config.corpus),
        ));
        tracer.attr("sites", domains.len());
        tracer.attr("store_dom", self.config.store_dom);

        let client_ip = session.browser().client().client_ip;
        let mut record = CrawlRecord::new(self.config.country, self.config.corpus, client_ip);
        record.visits.reserve(domains.len());
        session.sweep(domains, tracer, |session, domain| {
            let Ok(url) = Url::parse(&format!("https://{domain}/")) else {
                // A corpus entry that never parses still costs a visit
                // slot: dropping it here would silently shrink the crawl
                // and skew every per-corpus denominator downstream.
                session.skip();
                requests_hist.record(0);
                record.push_visit_with(domain, unparsable_visit(), 0);
                return;
            };
            let Load {
                mut visit,
                attempts,
            } = session.load(&url);
            requests_hist.record(visit.requests.len() as u64);
            if !self.config.store_dom {
                visit.dom_html = String::new();
            }
            record.push_visit_with(domain, visit, attempts);
        });
        tracer.close();

        let timing = session.finish(Some(self.config.corpus));
        registry.counter("crawl.failed_visits").add(timing.failures);
        (record, timing)
    }
}

/// Lower-case label for span/metric names.
pub(crate) fn corpus_slug(corpus: CorpusLabel) -> &'static str {
    match corpus {
        CorpusLabel::Porn => "porn",
        CorpusLabel::Regular => "regular",
    }
}

/// The failed-visit placeholder for corpus entries that are not valid
/// hostnames (`invalid.` is the RFC 2606 reserved TLD, so the sentinel can
/// never collide with a generated site).
fn unparsable_visit() -> redlight_browser::PageVisit {
    redlight_browser::PageVisit::failed(
        Url::parse("https://invalid.invalid/").expect("static sentinel URL"),
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusCompiler;
    use redlight_websim::WorldConfig;

    #[test]
    fn crawl_visits_all_domains_and_records_failures() {
        let world = World::build(WorldConfig::tiny(7));
        let corpus = CorpusCompiler::new(&world).compile();
        let crawler = OpenWpmCrawler::new(
            &world,
            CrawlConfig {
                country: Country::Spain,
                corpus: CorpusLabel::Porn,
                store_dom: true,
            },
        );
        let crawl = crawler.crawl(&corpus.sanitized);
        assert_eq!(crawl.visits.len(), corpus.sanitized.len());
        // The record carries the Spanish vantage point's public IP.
        let spain_ip = redlight_net::geoip::VantagePoint::study_default()
            .into_iter()
            .find(|v| v.country == Country::Spain)
            .unwrap()
            .client_ip;
        assert_eq!(crawl.client_ip, spain_ip);
        let expected_success = world
            .sites
            .iter()
            .filter(|s| s.is_porn() && !s.unresponsive && !s.openwpm_timeout)
            .count();
        assert_eq!(crawl.success_count(), expected_success);
        // Timeouts show up as timeout-flagged failures.
        let timeouts = crawl.visits.iter().filter(|v| v.visit.timeout).count();
        let expected_timeouts = world
            .sites
            .iter()
            .filter(|s| s.is_porn() && !s.unresponsive && s.openwpm_timeout)
            .count();
        assert_eq!(timeouts, expected_timeouts);
        // Without a retry budget every visit spends exactly one attempt.
        assert!(crawl.visits.iter().all(|v| v.attempts == 1));
        assert_eq!(crawl.total_retries(), 0);
    }

    #[test]
    fn malformed_domains_become_failed_visits_not_gaps() {
        let world = World::build(WorldConfig::tiny(7));
        let domains = vec![
            "not a hostname".to_string(),
            world
                .sites
                .iter()
                .find(|s| s.is_porn() && !s.unresponsive && !s.openwpm_timeout)
                .unwrap()
                .domain
                .clone(),
        ];
        let crawl = OpenWpmCrawler::new(
            &world,
            CrawlConfig {
                country: Country::Spain,
                corpus: CorpusLabel::Porn,
                store_dom: false,
            },
        )
        .crawl(&domains);
        // Visit counts always equal corpus size, malformed entries included.
        assert_eq!(crawl.visits.len(), domains.len());
        let bad = &crawl.visits[0];
        assert_eq!(crawl.name(bad.domain), "not a hostname");
        assert!(!bad.visit.success);
        assert_eq!(bad.attempts, 0, "nothing was ever fetched");
        assert!(crawl.visits[1].visit.success);
    }

    #[test]
    fn store_dom_flag_prunes_markup() {
        let world = World::build(WorldConfig::tiny(7));
        let corpus = CorpusCompiler::new(&world).compile();
        let slim = OpenWpmCrawler::new(
            &world,
            CrawlConfig {
                country: Country::Usa,
                corpus: CorpusLabel::Porn,
                store_dom: false,
            },
        )
        .crawl(&corpus.sanitized[..4.min(corpus.sanitized.len())]);
        assert!(slim.visits.iter().all(|v| v.visit.dom_html.is_empty()));
        // Requests are still recorded.
        assert!(slim.visits.iter().any(|v| !v.visit.requests.is_empty()));
    }
}
