//! Human-readable rendering of study results: one printable block per
//! table/figure of the paper.

use redlight_net::geoip::Country;
use redlight_report::figure::{self, Series};
use redlight_report::paper::{self, Comparison};
use redlight_report::table::{fmt_count, fmt_pct, Table};

use crate::results::StudyResults;

impl StudyResults {
    /// §3 corpus compilation.
    fn render_corpus(&self) -> String {
        let c = &self.corpus;
        let mut t = Table::new("Corpus compilation (paper §3)", &["source", "count"]);
        t.row(&["directory aggregators", &fmt_count(c.from_directories)]);
        t.row(&["Alexa Adult category", &fmt_count(c.from_adult_category)]);
        t.row(&["keyword search (top-1M, 2018)", &fmt_count(c.from_keywords)]);
        t.row(&["candidates (union)", &fmt_count(c.candidates)]);
        t.row(&["false positives removed", &fmt_count(c.false_positives)]);
        t.row(&["sanitized porn corpus", &fmt_count(c.sanitized)]);
        t.row(&["regular reference corpus", &fmt_count(c.regular_reference)]);
        t.row(&["manual inspections spent", &fmt_count(c.manual_inspections)]);
        t.render()
    }

    /// Fig. 1.
    fn render_fig1(&self) -> String {
        let best: Vec<f64> = self
            .fig1
            .points
            .iter()
            .filter_map(|p| p.best.map(|b| b as f64))
            .collect();
        let median: Vec<f64> = self
            .fig1
            .points
            .iter()
            .filter_map(|p| p.median.map(|m| m as f64))
            .collect();
        let presence: Vec<f64> = self
            .fig1
            .points
            .iter()
            .map(|p| p.presence * 100.0)
            .collect();
        let mut out = figure::render(
            "Fig. 1 — rank stability (sites ordered by best 2018 rank)",
            &[
                Series::new("best rank", best),
                Series::new("median rank", median),
                Series::new("% days in top-1M", presence),
            ],
            60,
        );
        out.push_str(&format!(
            "always in top-1M: {} ({:.1}%)   always in top-1k: {}\n",
            fmt_count(self.fig1.always_top1m),
            self.fig1.always_top1m_pct,
            self.fig1.always_top1k
        ));
        out
    }

    /// Table 1.
    fn render_table1(&self) -> String {
        let mut t = Table::new(
            "Table 1 — largest porn-publisher clusters",
            &["company", "# sites", "most popular site (best rank)"],
        );
        for cluster in self.ownership.clusters.iter().take(15) {
            let popular = cluster
                .most_popular
                .as_ref()
                .map(|(d, r)| format!("{d} ({})", fmt_count(*r as usize)))
                .unwrap_or_else(|| "—".to_string());
            t.row(&[
                cluster.company.clone(),
                cluster.sites.len().to_string(),
                popular,
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "companies: {}   attributed sites: {}   unattributed: {:.1}% of corpus   template clusters discarded: {}\n",
            self.ownership.companies,
            self.ownership.attributed_sites,
            self.ownership.unattributed_pct,
            self.ownership.template_clusters_discarded,
        ));
        out.push_str(&format!(
            "monetization: {:.1}% offer subscriptions; {:.1}% of those are paid ({} manual overrides)\n",
            self.monetization.with_subscription_pct,
            self.monetization.paid_pct,
            self.monetization.manual_overrides,
        ));
        out
    }

    /// Table 2.
    pub fn render_table2(&self) -> String {
        let t2 = &self.table2;
        let mut t = Table::new(
            "Table 2 — first/third-party domains",
            &["domain category", "porn (P)", "regular (R)", "|P ∩ R|"],
        );
        t.row(&[
            "corpus size".to_string(),
            fmt_count(t2.porn_corpus_size),
            fmt_count(t2.regular_corpus_size),
            "—".to_string(),
        ]);
        t.row(&[
            "first-party".to_string(),
            fmt_count(t2.porn_first_party),
            fmt_count(t2.regular_first_party),
            "—".to_string(),
        ]);
        t.row(&[
            "third-party".to_string(),
            fmt_count(t2.porn_third_party),
            fmt_count(t2.regular_third_party),
            fmt_count(t2.third_party_intersection),
        ]);
        t.row(&[
            "third-party ATS".to_string(),
            fmt_count(t2.porn_ats),
            fmt_count(t2.regular_ats),
            fmt_count(t2.ats_intersection),
        ]);
        t.render()
    }

    /// Table 3.
    fn render_table3(&self) -> String {
        let mut t = Table::new(
            "Table 3 — third-party presence by popularity interval",
            &["interval", "porn sites", "third-party (unique)"],
        );
        for row in &self.table3.rows {
            t.row(&[
                row.tier.label().to_string(),
                fmt_count(row.sites),
                format!(
                    "{} ({})",
                    fmt_count(row.third_party_total),
                    fmt_count(row.third_party_unique)
                ),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "present in all four tiers: {:.1}%   only on 100k+ sites: {:.1}%\n",
            self.table3.in_all_tiers_pct, self.table3.only_unpopular_pct
        ));
        out
    }

    /// Fig. 3.
    fn render_fig3(&self) -> String {
        let mut t = Table::new(
            "Fig. 3 — top third-party organizations",
            &["organization", "porn sites", "porn %", "regular %"],
        );
        for p in self.fig3_porn.iter().take(19) {
            let regular_pct = self
                .fig3_regular
                .iter()
                .find(|r| r.organization == p.organization)
                .map(|r| fmt_pct(r.fraction * 100.0))
                .unwrap_or_else(|| "–".to_string());
            t.row(&[
                p.organization.clone(),
                fmt_count(p.sites),
                fmt_pct(p.fraction * 100.0),
                regular_pct,
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "attribution: {} of {} third-party FQDNs resolved ({:.1}%); {} via Disconnect alone; {} companies\n",
            fmt_count(self.attribution.resolved_fqdns),
            fmt_count(self.attribution.total_fqdns),
            redlight_text::stats::pct(self.attribution.resolved_fqdns, self.attribution.total_fqdns),
            fmt_count(self.attribution.resolved_by_disconnect),
            fmt_count(self.attribution.companies),
        ));
        out
    }

    /// Table 4 + §5.1.1 statistics.
    fn render_table4(&self) -> String {
        let s = &self.cookie_stats;
        let mut t = Table::new(
            "Table 4 — top third-party domains delivering ID cookies",
            &[
                "domain",
                "% porn sites",
                "# cookies",
                "ATS",
                "web eco",
                "% with IP",
            ],
        );
        for row in &self.table4 {
            t.row(&[
                row.domain.clone(),
                fmt_pct(row.site_pct),
                fmt_count(row.cookies),
                tick(row.is_ats),
                tick(row.in_web_ecosystem),
                fmt_pct(row.ip_pct),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "cookies: {} total on {:.1}% of sites; {} survive the ID filter; {} third-party \
             from {} domains on {:.1}% of sites\n",
            fmt_count(s.total_cookies),
            s.sites_with_cookies_pct,
            fmt_count(s.id_cookies),
            fmt_count(s.third_party_id_cookies),
            fmt_count(s.third_party_domains),
            s.sites_with_third_party_pct,
        ));
        out.push_str(&format!(
            "the 100 most popular name=value cookies cover {:.1}% of sites\n",
            s.top100_cookie_site_pct
        ));
        out.push_str(&format!(
            "encoded payloads: {} cookies embed the client IP ({:.1}% from the top family, \
             {} sites); {} geolocation cookies on {} sites via {:?}; {} values >1k chars \
             (max {})\n",
            fmt_count(s.ip_cookies),
            s.ip_cookies_top_org_pct,
            s.ip_cookie_sites,
            s.geo_cookies,
            s.geo_cookie_sites,
            s.geo_cookie_domains,
            fmt_count(s.long_cookies),
            fmt_count(s.max_value_len),
        ));
        out
    }

    /// Fig. 4 + §5.1.2 statistics.
    fn render_fig4(&self, min_exchanges: usize) -> String {
        let mut t = Table::new(
            "Fig. 4 — cookie syncing (heaviest pairs)",
            &["origin", "destination", "# cookies"],
        );
        for (pair, count) in self.sync.heavy_pairs(min_exchanges).into_iter().take(20) {
            t.row(&[
                pair.origin.clone(),
                pair.destination.clone(),
                fmt_count(count),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "sites with syncing: {}   pairs: {}   origins: {}   destinations: {}   \
             top-100 sites syncing: {:.1}%\n",
            fmt_count(self.sync.sites_with_sync),
            fmt_count(self.sync.pairs.len()),
            fmt_count(self.sync.origins),
            fmt_count(self.sync.destinations),
            self.sync.top_sites_with_sync_pct,
        ));
        out
    }

    /// Table 5 + §5.1.3/5.1.4 statistics.
    fn render_table5(&self) -> String {
        let mut t = Table::new(
            "Table 5 — fingerprinting third parties",
            &[
                "domain",
                "porn sites",
                "ATS",
                "regular web",
                "canvas",
                "webrtc",
            ],
        );
        for row in &self.table5 {
            t.row(&[
                row.domain.clone(),
                fmt_count(row.presence),
                tick(row.is_ats),
                tick(row.in_regular_web),
                row.canvas_scripts.to_string(),
                row.webrtc_scripts.to_string(),
            ]);
        }
        let fp = &self.fingerprint;
        let mut out = t.render();
        out.push_str(&format!(
            "canvas: {} scripts on {} sites from {} third-party services \
             ({:.1}% third-party); {:.1}% not indexed by the lists; decoys rejected: {}\n",
            fmt_count(fp.canvas_scripts.len()),
            fmt_count(fp.canvas_sites.len()),
            fmt_count(fp.canvas_services.len()),
            fp.third_party_script_pct,
            fp.unindexed_pct,
            fp.rejected_executions,
        ));
        out.push_str(&format!(
            "font fingerprinting: {} script(s) on {} site(s)\n",
            fp.font_scripts.len(),
            fp.font_sites.len()
        ));
        let rtc = &self.webrtc;
        out.push_str(&format!(
            "webrtc: {} scripts on {} sites from {} services ({} ATS-listed); \
             {} sites combine it with other tracking\n",
            rtc.scripts.len(),
            rtc.sites.len(),
            rtc.services.len(),
            rtc.ats_services.len(),
            rtc.sites_with_other_tracking,
        ));
        out
    }

    /// Table 6 + §5.2.
    fn render_table6(&self) -> String {
        let mut t = Table::new(
            "Table 6 — HTTPS usage",
            &[
                "interval",
                "porn sites",
                "sites HTTPS",
                "3rd-party FQDNs",
                "3rd-party HTTPS",
            ],
        );
        for row in &self.https.rows {
            t.row(&[
                row.tier.label().to_string(),
                fmt_count(row.sites),
                fmt_pct(row.sites_https_pct),
                fmt_count(row.third_party_fqdns),
                fmt_pct(row.third_party_https_pct),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "not fully HTTPS: {} sites ({:.1}%); of those, {:.1}% send cookies in clear\n",
            fmt_count(self.https.not_fully_https),
            self.https.not_fully_https_pct,
            self.https.clear_cookie_pct,
        ));
        out
    }

    /// Table 7 + §6.
    fn render_table7(&self) -> String {
        let mut t = Table::new(
            "Table 7 — per-country comparison",
            &[
                "country",
                "FQDNs",
                "web eco %",
                "unique",
                "ATS",
                "unique ATS",
            ],
        );
        for row in &self.table7.rows {
            t.row(&[
                row.country.name().to_string(),
                fmt_count(row.fqdns),
                fmt_pct(row.web_ecosystem_pct),
                fmt_count(row.unique_fqdns),
                fmt_count(row.ats),
                fmt_count(row.unique_ats),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "totals: {} FQDNs, {} country-unique, {} ATS, {} country-unique ATS\n",
            fmt_count(self.table7.total_fqdns),
            fmt_count(self.table7.total_unique),
            fmt_count(self.table7.total_ats),
            fmt_count(self.table7.total_unique_ats),
        ));
        let gm = &self.geo_malware;
        out.push_str("malware by country:");
        for (country, domains, sites) in &gm.per_country {
            out.push_str(&format!(
                " {}={} dom/{} sites",
                country.code(),
                domains,
                sites
            ));
        }
        out.push_str(&format!(
            "\nstable malicious domains: {}   sites with malware everywhere (lower bound): {}\n",
            gm.stable_domains, gm.stable_sites_lower_bound
        ));
        out
    }

    /// Table 8 + §7.1.
    fn render_table8(&self) -> String {
        let mut t = Table::new(
            "Table 8 — cookie banners (EU vs USA)",
            &["type", "EU", "USA"],
        );
        for kind in ["No Option", "Confirmation", "Binary", "Others"] {
            t.row(&[
                kind.to_string(),
                fmt_pct(
                    self.banners_eu
                        .pct_by_type
                        .get(kind)
                        .copied()
                        .unwrap_or(0.0),
                ),
                fmt_pct(
                    self.banners_usa
                        .pct_by_type
                        .get(kind)
                        .copied()
                        .unwrap_or(0.0),
                ),
            ]);
        }
        t.row(&[
            "Total".to_string(),
            fmt_pct(self.banners_eu.total_pct),
            fmt_pct(self.banners_usa.total_pct),
        ]);
        let mut out = t.render();
        out.push_str(&format!(
            "no-option share of bannered sites (EU): {:.1}%   manual rejections: EU {} / USA {}\n",
            self.banners_eu.no_option_share_pct,
            self.banners_eu.rejected,
            self.banners_usa.rejected,
        ));
        out
    }

    /// §7.2 age verification.
    fn render_agegates(&self) -> String {
        let mut t = Table::new(
            "Age verification (paper §7.2, top-sites subset)",
            &[
                "country",
                "studied",
                "with gate",
                "%",
                "bypassed",
                "social login",
            ],
        );
        for c in &self.agegates.per_country {
            t.row(&[
                c.country.name().to_string(),
                c.studied.to_string(),
                c.with_gate.to_string(),
                fmt_pct(c.with_gate_pct),
                c.bypassed.to_string(),
                c.social_login.to_string(),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "russia-only gates: {:.1}%   gates everywhere-but-russia: {:.1}%   bypass rate: {:.1}%\n",
            self.agegates.russia_only_pct,
            self.agegates.not_in_russia_pct,
            self.agegates.bypass_rate_pct,
        ));
        out
    }

    /// §7.3 privacy policies.
    fn render_policies(&self) -> String {
        let p = &self.policies;
        let (checked, disclosing, full) = self.disclosure_check;
        format!(
            "== Privacy policies (paper §7.3) ==\n\
             with policy: {} ({:.1}% of corpus)   sanitized out: {}\n\
             GDPR mentions: {} ({:.1}%)\n\
             letters: mean {:.0}, min {}, max {}\n\
             pairs with TF-IDF ≥ 0.5: {:.1}% (of {} pairs examined)\n\
             top tracker-heavy sites: {}/{} disclose cookies+data+third parties; {} name the full list\n",
            fmt_count(p.with_policy),
            p.with_policy_pct,
            p.sanitized_out,
            p.gdpr_mentions,
            p.gdpr_pct,
            p.mean_letters,
            fmt_count(p.min_letters),
            fmt_count(p.max_letters),
            p.similar_pairs_pct,
            fmt_count(p.pairs_examined),
            disclosing,
            checked,
            full,
        )
    }

    /// Everything, in paper order.
    pub fn render_summary(&self) -> String {
        [
            self.render_corpus(),
            self.render_fig1(),
            self.render_table1(),
            self.render_table2(),
            self.render_table3(),
            self.render_fig3(),
            self.render_table4(),
            self.render_fig4(2),
            self.render_table5(),
            self.render_table6(),
            self.render_table7(),
            self.render_table8(),
            self.render_agegates(),
            self.render_policies(),
        ]
        .join("\n")
    }

    /// One paper-vs-measured row per [`paper::EXPECTED`] key, in registry
    /// order. `scale` is the paper's world size over this run's: counts are
    /// multiplied by it, percentages are scale-free.
    pub fn comparisons(&self, scale: f64) -> Vec<Comparison> {
        let org = |name: &str| {
            self.fig3_porn
                .iter()
                .find(|o| o.organization == name)
                .map_or(0.0, |o| o.fraction * 100.0)
        };
        let t4 = |domain: &str| {
            self.table4
                .iter()
                .find(|row| row.domain == domain)
                .map_or((0.0, 0.0), |row| (row.site_pct, row.ip_pct))
        };
        let geo = |country| self.table7.rows.iter().find(|row| row.country == country);
        let gate_pct = |country| {
            self.agegates
                .per_country
                .iter()
                .find(|c| c.country == country)
                .map_or(0.0, |c| c.with_gate_pct)
        };
        let count = |n: usize| n as f64 * scale;
        let (exosrv_pct, exosrv_ip) = t4("exosrv.com");
        let (exoclick_pct, exoclick_ip) = t4("exoclick.com");
        let (spain, russia) = (geo(Country::Spain), geo(Country::Russia));
        let (corpus, t2, cookies, fp) = (
            &self.corpus,
            &self.table2,
            &self.cookie_stats,
            &self.fingerprint,
        );
        let (sync, webrtc, https, malware) = (&self.sync, &self.webrtc, &self.https, &self.malware);
        let (attribution, policies) = (&self.attribution, &self.policies);

        [
            // §3 corpus.
            ("corpus.candidates", count(corpus.candidates)),
            ("corpus.false_positives", count(corpus.false_positives)),
            ("corpus.sanitized", count(corpus.sanitized)),
            ("corpus.regular_reference", count(corpus.regular_reference)),
            // Fig. 1.
            ("fig1.always_top1m_pct", self.fig1.always_top1m_pct),
            ("fig1.always_top1k", count(self.fig1.always_top1k)),
            // §4.1.
            ("owners.companies", self.ownership.companies as f64),
            (
                "owners.attributed_sites",
                count(self.ownership.attributed_sites),
            ),
            ("owners.unattributed_pct", self.ownership.unattributed_pct),
            (
                "monetization.subscription_pct",
                self.monetization.with_subscription_pct,
            ),
            ("monetization.paid_pct", self.monetization.paid_pct),
            // Table 2.
            ("table2.porn_crawled", count(t2.porn_corpus_size)),
            ("table2.regular_crawled", count(t2.regular_corpus_size)),
            ("table2.porn_third_party", count(t2.porn_third_party)),
            ("table2.regular_third_party", count(t2.regular_third_party)),
            ("table2.porn_ats", count(t2.porn_ats)),
            ("table2.regular_ats", count(t2.regular_ats)),
            ("table2.ats_intersection", count(t2.ats_intersection)),
            // §4.2(3) / Fig. 3.
            (
                "orgs.resolved_pct",
                100.0 * attribution.resolved_fqdns as f64 / attribution.total_fqdns.max(1) as f64,
            ),
            ("orgs.companies", count(attribution.companies)),
            ("fig3.alphabet_pct", org("Alphabet")),
            ("fig3.exoclick_pct", org("ExoClick")),
            ("fig3.cloudflare_pct", org("Cloudflare")),
            // §5.1.1 / Table 4.
            ("cookies.total", count(cookies.total_cookies)),
            ("cookies.sites_pct", cookies.sites_with_cookies_pct),
            ("cookies.id_cookies", count(cookies.id_cookies)),
            (
                "cookies.third_party_id",
                count(cookies.third_party_id_cookies),
            ),
            (
                "cookies.third_party_domains",
                count(cookies.third_party_domains),
            ),
            (
                "cookies.third_party_sites_pct",
                cookies.sites_with_third_party_pct,
            ),
            ("cookies.ip_cookies", count(cookies.ip_cookies)),
            ("cookies.ip_top_org_pct", cookies.ip_cookies_top_org_pct),
            ("cookies.geo_cookies", count(cookies.geo_cookies)),
            ("cookies.top100_site_pct", cookies.top100_cookie_site_pct),
            ("table4.exosrv_pct", exosrv_pct),
            ("table4.exosrv_ip_pct", exosrv_ip),
            ("table4.exoclick_pct", exoclick_pct),
            ("table4.exoclick_ip_pct", exoclick_ip),
            ("table4.addthis_pct", t4("addthis.com").0),
            // §5.1.2.
            ("sync.sites", count(sync.sites_with_sync)),
            ("sync.pairs", count(sync.pairs.len())),
            ("sync.origins", count(sync.origins)),
            ("sync.destinations", count(sync.destinations)),
            ("sync.top100_pct", sync.top_sites_with_sync_pct),
            // §5.1.3 / §5.1.4.
            ("fp.canvas_scripts", count(fp.canvas_scripts.len())),
            ("fp.canvas_sites", count(fp.canvas_sites.len())),
            ("fp.canvas_services", fp.canvas_services.len() as f64),
            ("fp.third_party_script_pct", fp.third_party_script_pct),
            ("fp.unindexed_pct", fp.unindexed_pct),
            ("fp.font_scripts", fp.font_scripts.len() as f64),
            ("webrtc.scripts", count(webrtc.scripts.len())),
            ("webrtc.sites", count(webrtc.sites.len())),
            ("webrtc.services", webrtc.services.len() as f64),
            ("webrtc.ats_services", webrtc.ats_services.len() as f64),
            // §5.2 / Table 6.
            ("table6.top1k_sites_pct", https.rows[0].sites_https_pct),
            ("table6.to10k_sites_pct", https.rows[1].sites_https_pct),
            ("table6.to100k_sites_pct", https.rows[2].sites_https_pct),
            ("table6.beyond_sites_pct", https.rows[3].sites_https_pct),
            ("https.not_fully_pct", https.not_fully_https_pct),
            // §5.3.
            ("malware.flagged_sites", count(malware.flagged_sites.len())),
            (
                "malware.flagged_services",
                malware.flagged_services.len() as f64,
            ),
            (
                "malware.sites_with_flagged",
                count(malware.sites_with_flagged_services),
            ),
            ("malware.mining_sites", count(malware.mining_sites.len())),
            (
                "malware.mining_services",
                malware.mining_services.len() as f64,
            ),
            // §6 / Table 7.
            (
                "table7.spain_fqdns",
                spain.map_or(0.0, |row| count(row.fqdns)),
            ),
            (
                "table7.russia_fqdns",
                russia.map_or(0.0, |row| count(row.fqdns)),
            ),
            (
                "table7.russia_unique_ats",
                russia.map_or(0.0, |row| count(row.unique_ats)),
            ),
            ("table7.total_ats", count(self.table7.total_ats)),
            // §7.1 / Table 8.
            ("table8.eu_total_pct", self.banners_eu.total_pct),
            ("table8.usa_total_pct", self.banners_usa.total_pct),
            (
                "table8.no_option_share_pct",
                self.banners_eu.no_option_share_pct,
            ),
            // §7.2.
            ("agegate.west_pct", gate_pct(Country::Spain)),
            ("agegate.russia_pct", gate_pct(Country::Russia)),
            ("agegate.russia_only_pct", self.agegates.russia_only_pct),
            ("agegate.not_in_russia_pct", self.agegates.not_in_russia_pct),
            // §7.3.
            ("policies.with_policy_pct", policies.with_policy_pct),
            ("policies.gdpr_pct", policies.gdpr_pct),
            ("policies.mean_letters", policies.mean_letters),
            ("policies.similar_pairs_pct", policies.similar_pairs_pct),
        ]
        .into_iter()
        .map(|(key, measured)| paper::compare(key, measured))
        .collect()
    }

    /// Pipeline instrumentation: per-crawl and per-stage wall times with
    /// record counts (`reproduce --timings`). Kept out of
    /// [`render_summary`](Self::render_summary) so the summary stays
    /// byte-identical across runs of the same seed.
    pub fn render_timings(&self) -> String {
        self.stage_report.render()
    }
}

impl crate::results::StageReport {
    /// Renders the crawl and stage timing tables. Numeric columns are
    /// right-aligned and every duration prints with fixed precision
    /// (`ms` to 3 decimals, `µs` to 1), so columns line up run to run.
    pub fn render(&self) -> String {
        let ms = fmt_ms;

        let mut crawls = Table::new(
            "Collection layer — one row per crawl",
            &[
                "crawler",
                "country",
                "corpus",
                "sites",
                "attempts",
                "retries",
                "failed",
                "wall (ms)",
            ],
        )
        .align_right(&[3, 4, 5, 6, 7]);
        for c in &self.crawls {
            let corpus = c
                .corpus
                .map(|l| format!("{l:?}").to_lowercase())
                .unwrap_or_else(|| "interaction".to_string());
            crawls.row(&[
                c.crawler.to_string(),
                format!("{:?}", c.country),
                corpus,
                fmt_count(c.sites),
                fmt_count(c.attempts as usize),
                fmt_count(c.retries as usize),
                fmt_count(c.failures as usize),
                ms(c.wall),
            ]);
        }
        let crawl_total: std::time::Duration = self.crawls.iter().map(|c| c.wall).sum();
        let (visits, retries, failures) = self.crawls.iter().fold((0u64, 0u64, 0u64), |acc, c| {
            (
                acc.0 + c.sites as u64,
                acc.1 + c.retries,
                acc.2 + c.failures,
            )
        });

        let mut stages = Table::new(
            "Analysis layer — one row per stage",
            &["stage", "input records", "output records", "wall (ms)"],
        )
        .align_right(&[1, 2, 3]);
        for s in &self.stages {
            stages.row(&[
                s.name.to_string(),
                fmt_count(s.input_records),
                fmt_count(s.output_records),
                ms(s.wall),
            ]);
        }
        let stage_total: std::time::Duration = self.stages.iter().map(|s| s.wall).sum();

        let mut out = format!(
            "{}visits: {}   retries: {}   failed visits: {}\n\
             total crawl wall time: {} ms\n\n{}total stage wall time: {} ms\n",
            crawls.render(),
            fmt_count(visits as usize),
            fmt_count(retries as usize),
            fmt_count(failures as usize),
            ms(crawl_total),
            stages.render(),
            ms(stage_total),
        );

        if self.crawls.iter().any(|c| c.net.is_some()) {
            let us = |d: std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e6);
            let mut transport = Table::new(
                "Transport layer — per-crawl wire counters",
                &[
                    "crawler", "country", "corpus", "requests", "ok", "unreach", "timeout", "5xx",
                    "KiB", "µs/req",
                ],
            )
            .align_right(&[3, 4, 5, 6, 7, 8, 9]);
            let mut total = redlight_net::transport::TransportStats::default();
            for c in self.crawls.iter().filter(|c| c.net.is_some()) {
                let stats = c.net.as_ref().expect("filtered");
                let corpus = c
                    .corpus
                    .map(|l| format!("{l:?}").to_lowercase())
                    .unwrap_or_else(|| "interaction".to_string());
                transport.row(&[
                    c.crawler.to_string(),
                    format!("{:?}", c.country),
                    corpus,
                    fmt_count(stats.requests as usize),
                    fmt_count(stats.responses as usize),
                    fmt_count(stats.unreachable as usize),
                    fmt_count(stats.timeouts as usize),
                    fmt_count(stats.server_errors as usize),
                    fmt_count((stats.body_bytes / 1024) as usize),
                    us(stats.mean_latency()),
                ]);
                total.merge(stats);
            }
            let t = total;
            out.push('\n');
            out.push_str(&transport.render());
            out.push_str(&format!(
                "transport totals: {} requests, {} answered, {} unreachable, {} timed out, \
                 {} KiB over the wire\n",
                fmt_count(t.requests as usize),
                fmt_count(t.responses as usize),
                fmt_count(t.unreachable as usize),
                fmt_count(t.timeouts as usize),
                fmt_count((t.body_bytes / 1024) as usize),
            ));
        }

        out
    }
}

impl crate::results::StageReport {
    /// Serializes the report as JSON (`reproduce --timings --json`):
    /// `{"crawls": [...], "stages": [...]}` with wall
    /// times as fixed-precision `wall_ms` floats. Hand-rolled on the
    /// [`redlight_obs::json`] helpers — no serde in the pipeline.
    pub fn to_json(&self) -> String {
        use redlight_obs::json::push_str_literal;

        let mut out = String::from("{\"crawls\":[");
        for (i, c) in self.crawls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"crawler\":");
            push_str_literal(&mut out, c.crawler);
            out.push_str(",\"country\":");
            push_str_literal(&mut out, c.country.code());
            out.push_str(",\"corpus\":");
            match c.corpus {
                Some(l) => push_str_literal(&mut out, &format!("{l:?}").to_lowercase()),
                None => out.push_str("null"),
            }
            out.push_str(&format!(
                ",\"sites\":{},\"attempts\":{},\"retries\":{},\"failures\":{},\"wall_ms\":{:.3}",
                c.sites,
                c.attempts,
                c.retries,
                c.failures,
                c.wall.as_secs_f64() * 1e3
            ));
            out.push_str(",\"net\":");
            match &c.net {
                Some(n) => out.push_str(&format!(
                    "{{\"requests\":{},\"responses\":{},\"unreachable\":{},\"timeouts\":{},\
                     \"server_errors\":{},\"redirects\":{},\"body_bytes\":{}}}",
                    n.requests,
                    n.responses,
                    n.unreachable,
                    n.timeouts,
                    n.server_errors,
                    n.redirects,
                    n.body_bytes
                )),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("],\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_str_literal(&mut out, s.name);
            out.push_str(&format!(
                ",\"input_records\":{},\"output_records\":{},\"wall_ms\":{:.3}}}",
                s.input_records,
                s.output_records,
                s.wall.as_secs_f64() * 1e3
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Fixed-precision milliseconds (3 decimals) for the timing tables.
fn fmt_ms(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

fn tick(b: bool) -> String {
    if b {
        "✓".to_string()
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Study, StudyConfig};
    use redlight_report::paper;

    #[test]
    fn comparisons_cover_every_expected_key_once_in_registry_order() {
        let results = Study::run(StudyConfig::tiny(2019));
        let compared: Vec<&str> = results.comparisons(20.0).iter().map(|c| c.key).collect();
        let registered: Vec<&str> = paper::EXPECTED.iter().map(|e| e.key).collect();
        assert_eq!(compared, registered);
    }
}
