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

use redlight_browser::Initiator;
use redlight_html::dom::Document;
use redlight_html::{parser, query, style};
use redlight_net::geoip::Country;
use redlight_net::http::ResourceKind;
use redlight_net::transport::{BrowserKind, NetProfile};
use redlight_net::url::Url;
use redlight_obs::{Registry, Trace, Tracer};
use redlight_text::lang;
use redlight_websim::World;

use crate::db::InteractionRecord;
use crate::plan::CrawlTiming;
use crate::session::{Load, Session};

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
    pub(crate) fn with_net(mut self, net: NetProfile) -> Self {
        self.net = net;
        self
    }

    /// Crawls `domains`, producing one record each.
    pub fn crawl(&self, domains: &[String]) -> Vec<InteractionRecord> {
        let mut tracer = Trace::disabled().tracer("crawl");
        self.crawl_observed(domains, &mut tracer, &Registry::new())
            .0
    }

    /// [`crawl`](Self::crawl) with telemetry, also returning the crawl's
    /// [`CrawlTiming`]: records a `crawl.selenium.<country>` span with
    /// `visits.NNN` batch children into `tracer` and publishes
    /// `transport.*` counters, `transport.retries`,
    /// `crawl.unreachable_sites` and the `crawl.attempts` histogram into
    /// `registry`. Records are byte-identical to [`crawl`](Self::crawl)'s.
    pub(crate) fn crawl_observed(
        &self,
        domains: &[String],
        tracer: &mut Tracer,
        registry: &Registry,
    ) -> (Vec<InteractionRecord>, CrawlTiming) {
        let mut session = Session::open(
            self.world,
            self.country,
            BrowserKind::Selenium,
            &self.net,
            registry,
        );

        tracer.open(&format!(
            "crawl.selenium.{}",
            self.country.code().to_ascii_lowercase()
        ));
        tracer.attr("sites", domains.len());

        let mut records = Vec::with_capacity(domains.len());
        session.sweep(domains, tracer, |session, domain| {
            records.push(self.crawl_site(session, domain));
        });
        tracer.close();

        let timing = session.finish(None);
        registry
            .counter("crawl.unreachable_sites")
            .add(timing.failures);
        (records, timing)
    }

    /// Crawls one site: the landing page through the session's retry
    /// loop, then the age gate, the policy link and the premium page. A
    /// domain that never parses is recorded unreachable.
    fn crawl_site(&self, session: &mut Session<'w>, domain: &str) -> InteractionRecord {
        let mut record = InteractionRecord {
            domain: domain.to_string(),
            country: self.country,
            reachable: false,
            age_gate_detected: false,
            age_gate_bypassed: false,
            social_login_gate: false,
            policy_url: None,
            policy_text: None,
            premium_signal: false,
            premium_page: None,
        };
        let Ok(url) = Url::parse(&format!("https://{domain}/")) else {
            // Malformed corpus entry: recorded as unreachable, never dropped.
            session.skip();
            return record;
        };
        let Load { mut visit, .. } = session.load(&url);
        if !visit.success {
            return record;
        }
        record.reachable = true;
        let Some(mut page_url) = visit.final_url.clone() else {
            return record;
        };
        let browser = session.browser();
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

        record
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
