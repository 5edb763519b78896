//! The Selenium-style interaction crawler (paper §3.1).
//!
//! For each site it: (1) loads the landing page; (2) searches for an
//! age-verification mechanism — floating elements containing "Yes",
//! "Enter", "Agree", "Continue", "Accept" in eight languages, verified by
//! inspecting the text of the candidate's parent and grandparent elements
//! for age/adult vocabulary; (3) clicks through the gate when one is found;
//! (4) searches the (post-gate) landing page for a privacy-policy link
//! ("Privacy"/"Policy" in eight languages) and fetches it; (5) records
//! monetization signals (account/premium keywords) and fetches the premium
//! page when advertised.

use redlight_browser::{Browser, Initiator};
use redlight_html::dom::Document;
use redlight_html::{parser, query, style};
use redlight_net::geoip::Country;
use redlight_net::http::ResourceKind;
use redlight_net::transport::{BrowserKind, NetProfile, Transport, TransportMeter, TransportStats};
use redlight_net::url::Url;
use redlight_obs::{Registry, Trace, Tracer};
use redlight_sim::{SimHandle, SimTransport};
use redlight_text::lang;
use redlight_websim::server::WebServer;
use redlight_websim::World;

use crate::db::InteractionRecord;
use crate::openwpm::VISIT_BATCH;

/// One interaction crawl's output plus its network bookkeeping.
#[derive(Debug)]
pub struct InteractionCrawl {
    /// One record per crawled domain, in input order.
    pub records: Vec<InteractionRecord>,
    /// Transport counters when the profile meters (`None` on bare stacks).
    pub transport: Option<TransportStats>,
    /// Landing-page load attempts across all sites.
    pub attempts: u64,
    /// Attempts beyond each site's first.
    pub retries: u64,
}

/// The interaction crawler.
pub struct SeleniumCrawler<'w> {
    world: &'w World,
    country: Country,
    net: NetProfile,
}

impl<'w> SeleniumCrawler<'w> {
    /// Creates a crawler from the given vantage point over a default
    /// (healthy, metered, no-retry) network.
    pub fn new(world: &'w World, country: Country) -> Self {
        SeleniumCrawler {
            world,
            country,
            net: NetProfile::default(),
        }
    }

    /// Replaces the network profile the crawl runs over.
    pub fn with_net(mut self, net: NetProfile) -> Self {
        self.net = net;
        self
    }

    /// Crawls `domains`, producing one record each.
    pub fn crawl(&self, domains: &[String]) -> Vec<InteractionRecord> {
        let mut tracer = Trace::disabled().tracer("crawl");
        self.crawl_observed(domains, &mut tracer, &Registry::new())
            .records
    }

    /// [`crawl`](Self::crawl) with telemetry, keeping the transport
    /// counters and per-crawl attempt totals alongside the records: records
    /// a `crawl.selenium.<country>` span with `visits.NNN` batch children
    /// into `tracer` and publishes `transport.*` counters,
    /// `transport.retries`, `crawl.unreachable_sites` and the
    /// `crawl.attempts` histogram into `registry`. Records are
    /// byte-identical to [`crawl`](Self::crawl)'s.
    pub fn crawl_observed(
        &self,
        domains: &[String],
        tracer: &mut Tracer,
        registry: &Registry,
    ) -> InteractionCrawl {
        let ctx = Browser::context_for(self.world, self.country, BrowserKind::Selenium);
        let meter = TransportMeter::in_registry(registry);
        let transport = self.net.stack(WebServer::new(self.world), &meter, registry);
        // Sim profiles rehost the stack on the logical clock (outcomes are
        // unchanged; retries consume their backoff as simulated time).
        let sim = self.net.sim.map(SimHandle::new);
        let transport: Box<dyn Transport + '_> = match &sim {
            Some(handle) => Box::new(SimTransport::new(transport, handle.clone())),
            None => transport,
        };
        let mut browser = Browser::with_transport(transport, ctx);

        let retry_counter = registry.counter("transport.retries");
        let unreachable = registry.counter("crawl.unreachable_sites");
        let attempts_hist = registry.histogram("crawl.attempts");

        tracer.open(&format!(
            "crawl.selenium.{}",
            self.country.code().to_ascii_lowercase()
        ));
        tracer.attr("sites", domains.len());

        let mut attempts_total = 0u64;
        let mut retries = 0u64;
        let mut records = Vec::with_capacity(domains.len());
        for (batch_idx, batch) in domains.chunks(VISIT_BATCH).enumerate() {
            tracer.open(&format!("visits.{batch_idx:03}"));
            let mut batch_attempts = 0u64;
            let mut batch_failures = 0u64;
            for d in batch {
                let (record, attempts) = self.crawl_site(&mut browser, d, sim.as_ref());
                attempts_total += attempts as u64;
                retries += attempts.saturating_sub(1) as u64;
                retry_counter.add(attempts.saturating_sub(1) as u64);
                attempts_hist.record(attempts as u64);
                batch_attempts += attempts as u64;
                if !record.reachable {
                    unreachable.inc();
                    batch_failures += 1;
                }
                records.push(record);
            }
            tracer.attr("sites", batch.len());
            tracer.attr("attempts", batch_attempts);
            tracer.attr("failures", batch_failures);
            tracer.close();
        }
        tracer.close();

        InteractionCrawl {
            records,
            transport: self.net.metered.then(|| meter.snapshot()),
            attempts: attempts_total,
            retries,
        }
    }

    /// Crawls one site, returning its record with the number of
    /// landing-page attempts spent (0 when the domain never parsed). Under
    /// a sim profile, retry backoff is consumed on the logical clock and
    /// checked against the recorded schedule.
    fn crawl_site(
        &self,
        browser: &mut Browser<'w>,
        domain: &str,
        sim: Option<&SimHandle>,
    ) -> (InteractionRecord, u32) {
        let mut record = InteractionRecord {
            domain: domain.to_string(),
            country: self.country,
            reachable: false,
            age_gate_detected: false,
            age_gate_bypassed: false,
            social_login_gate: false,
            policy_url: None,
            policy_text: None,
            login_signal: false,
            premium_signal: false,
            premium_page: None,
        };
        let Ok(url) = Url::parse(&format!("https://{domain}/")) else {
            // Malformed corpus entry: recorded as unreachable, never dropped.
            return (record, 0);
        };
        let backoff_mark = sim.map(|h| h.backoff_consumed());
        let mut attempts = 1u32;
        let mut visit = browser.visit(&url);
        while !visit.success && attempts < self.net.retry.max_attempts {
            attempts += 1;
            if let Some(handle) = sim {
                handle.consume_backoff(self.net.retry.backoff_before(attempts));
            }
            visit = browser.visit(&url);
        }
        if let Some((handle, before)) = sim.zip(backoff_mark) {
            assert_eq!(
                handle.backoff_consumed() - before,
                self.net.retry.total_backoff(attempts),
                "recorded backoff must equal logical time consumed"
            );
        }
        if !visit.success {
            return (record, attempts);
        }
        record.reachable = true;
        let Some(mut page_url) = visit.final_url.clone() else {
            return (record, attempts);
        };
        let mut doc = parser::parse(&visit.dom_html);

        // --- Age-gate detection & bypass. ---
        if let Some(gate) = detect_age_gate(&doc) {
            record.age_gate_detected = true;
            match gate {
                GateAction::Click(href) => {
                    if let Ok(target) = page_url.join(&href) {
                        if let Some((final_url, resp)) = browser.fetch_resource(
                            &mut visit,
                            &target,
                            ResourceKind::Document,
                            Some(&page_url),
                            Initiator::Document,
                        ) {
                            if resp.status.is_success() {
                                record.age_gate_bypassed = true;
                                page_url = final_url;
                                doc = parser::parse(&resp.text());
                            }
                        }
                    }
                }
                GateAction::SocialLogin => {
                    record.social_login_gate = true;
                    // No way through; analysis continues on the gated page.
                }
            }
        }

        // --- Privacy-policy link. ---
        if let Some(href) = find_policy_link(&doc) {
            if let Ok(target) = page_url.join(&href) {
                record.policy_url = Some(target.without_fragment());
                if let Some((_, resp)) = browser.fetch_resource(
                    &mut visit,
                    &target,
                    ResourceKind::Document,
                    Some(&page_url),
                    Initiator::Document,
                ) {
                    if resp.status.is_success() {
                        let text = extract_main_text(&resp.text());
                        record.policy_text = Some(text);
                    }
                }
            }
        }

        // --- Monetization signals (§4.1). ---
        let body_text = doc.text_content(doc.root());
        record.login_signal = lang::matches_account(&body_text);
        record.premium_signal = lang::matches_premium(&body_text);
        if record.premium_signal {
            if let Ok(premium) = page_url.join("/premium") {
                if let Some((_, resp)) = browser.fetch_resource(
                    &mut visit,
                    &premium,
                    ResourceKind::Document,
                    Some(&page_url),
                    Initiator::Document,
                ) {
                    if resp.status.is_success() {
                        record.premium_page = Some(resp.text());
                    }
                }
            }
        }

        (record, attempts)
    }
}

enum GateAction {
    /// Click the affirmative element (href of the enclosing anchor).
    Click(String),
    /// The gate demands a social login — cannot be passed automatically.
    SocialLogin,
}

/// Detects an age gate: a floating element whose subtree holds an
/// affirmative keyword, verified by age/adult vocabulary in the candidate's
/// parent/grandparent text (the §3.1 false-positive filter).
fn detect_age_gate(doc: &Document) -> Option<GateAction> {
    for float_id in style::floating_elements(doc) {
        let float_text = doc.text_content(float_id);
        if !lang::matches_age_warning(&float_text) {
            continue;
        }
        // Affirmative button inside the floating element?
        for node in doc.subtree(float_id) {
            let Some(el) = doc.element(node) else {
                continue;
            };
            if el.tag != "button" && el.tag != "a" {
                continue;
            }
            let label = doc.text_content(node);
            if !lang::matches_affirmative(&label) {
                continue;
            }
            // Parent/grandparent verification: the surrounding context must
            // actually be an age warning, not ordinary page copy.
            let ancestors = doc.ancestors(node);
            let verified = ancestors
                .iter()
                .take(3)
                .any(|&a| lang::matches_age_warning(&doc.text_content(a)));
            if !verified {
                continue;
            }
            // Find the click target: the element itself or its anchor parent.
            let href = std::iter::once(node)
                .chain(ancestors.iter().copied())
                .find_map(|n| {
                    doc.element(n)
                        .filter(|e| e.tag == "a")
                        .and_then(|e| e.attr("href"))
                        .map(str::to_string)
                });
            if let Some(href) = href {
                return Some(GateAction::Click(href));
            }
        }
        // A floating age warning with a form but no clickable affirmative
        // element: the social-login style gate.
        let has_form = doc
            .subtree(float_id)
            .any(|n| doc.element(n).is_some_and(|e| e.tag == "form"));
        if has_form {
            return Some(GateAction::SocialLogin);
        }
    }
    None
}

/// Finds a privacy-policy link by anchor text or href keywords in any of the
/// eight languages.
fn find_policy_link(doc: &Document) -> Option<String> {
    query::links(doc).into_iter().find_map(|(id, href)| {
        let text = doc.text_content(id);
        if lang::matches_privacy(&text) || lang::matches_privacy(&href) {
            Some(href)
        } else {
            None
        }
    })
}

/// Extracts readable text from a fetched policy page.
fn extract_main_text(html: &str) -> String {
    let doc = parser::parse(html);
    doc.text_content(doc.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use redlight_websim::sitegen::AgeGateKind;
    use redlight_websim::WorldConfig;

    fn crawl_one(world: &World, domain: &str, country: Country) -> InteractionRecord {
        let crawler = SeleniumCrawler::new(world, country);
        crawler.crawl(&[domain.to_string()]).remove(0)
    }

    #[test]
    fn detects_and_bypasses_simple_gates() {
        let world = World::build(WorldConfig::tiny(55));
        let gated = world
            .sites
            .iter()
            .find(|s| {
                s.is_porn()
                    && !s.unresponsive
                    && s.age_gate.default == Some(AgeGateKind::SimpleButton)
            })
            .expect("tiny world has gated sites");
        let rec = crawl_one(&world, &gated.domain, Country::Spain);
        assert!(rec.reachable);
        assert!(rec.age_gate_detected, "gate on {} missed", gated.domain);
        assert!(rec.age_gate_bypassed, "simple gates must be bypassable");
        assert!(!rec.social_login_gate);
    }

    #[test]
    fn social_login_gate_is_not_bypassable() {
        let world = World::build(WorldConfig::tiny(55));
        let rec = crawl_one(&world, "pornhub.com", Country::Russia);
        assert!(rec.age_gate_detected);
        assert!(rec.social_login_gate);
        assert!(!rec.age_gate_bypassed);
        // Outside Russia the same site has a simple gate.
        let rec_es = crawl_one(&world, "pornhub.com", Country::Spain);
        assert!(rec_es.age_gate_detected);
        assert!(rec_es.age_gate_bypassed);
    }

    #[test]
    fn ungated_sites_have_no_gate_detected() {
        let world = World::build(WorldConfig::tiny(55));
        let plain = world
            .sites
            .iter()
            .find(|s| s.is_porn() && !s.unresponsive && s.age_gate.default.is_none())
            .unwrap();
        let rec = crawl_one(&world, &plain.domain, Country::Spain);
        assert!(rec.reachable);
        assert!(!rec.age_gate_detected, "false positive on {}", plain.domain);
    }

    #[test]
    fn fetches_policies_including_behind_gates() {
        let world = World::build(WorldConfig::small(56));
        let site = world
            .sites
            .iter()
            .find(|s| {
                s.is_porn() && !s.unresponsive && s.policy.as_ref().is_some_and(|p| !p.broken)
            })
            .unwrap();
        let rec = crawl_one(&world, &site.domain, Country::Spain);
        assert!(
            rec.policy_url.is_some(),
            "policy link missed on {}",
            site.domain
        );
        let text = rec.policy_text.expect("policy fetch succeeded");
        assert!(text.len() > 400, "policy too short: {}", text.len());
    }

    #[test]
    fn broken_policy_links_yield_no_text() {
        let world = World::build(WorldConfig::small(56));
        let Some(site) = world.sites.iter().find(|s| {
            s.is_porn() && !s.unresponsive && s.policy.as_ref().is_some_and(|p| p.broken)
        }) else {
            return;
        };
        let rec = crawl_one(&world, &site.domain, Country::Spain);
        assert!(rec.policy_url.is_some());
        assert!(rec.policy_text.is_none(), "broken policy must not fetch");
    }

    #[test]
    fn monetization_signals_follow_ground_truth() {
        let world = World::build(WorldConfig::small(57));
        let premium_site = world
            .sites
            .iter()
            .find(|s| s.is_porn() && !s.unresponsive && s.premium && s.age_gate.default.is_none())
            .unwrap();
        let rec = crawl_one(&world, &premium_site.domain, Country::Spain);
        assert!(rec.premium_signal);
        let page = rec.premium_page.expect("premium page fetched");
        if premium_site.premium_paid {
            assert!(page.contains('$'));
        } else {
            assert!(page.to_lowercase().contains("free"));
        }
    }
}
