//! Canvas and font fingerprinting detection (§5.1.3, Table 5).
//!
//! Canvas criteria (after Englehardt & Narayanan): the canvas is at least
//! 16×16 px; the script paints with at least two colors **or** draws text
//! with more than 10 distinct characters; the bitmap is read back via
//! `toDataURL` or a sufficiently large `getImageData`; and the script never
//! touches `save`, `restore` or `addEventListener` on the context (UI
//! widgets do, fingerprinters don't).
//!
//! Font fingerprinting uses the paper's stricter rule: the script sets the
//! `font` property and calls `measureText` on the **same text** at least 50
//! times.

use std::collections::{BTreeMap, BTreeSet};

use redlight_browser::canvas::CanvasActivity;
use redlight_text::stats::pct;

use crate::ats::AtsClassifier;
use crate::util::{reg, same_site};
use redlight_crawler::db::CrawlRecord;

/// Minimum canvas edge (px).
pub const MIN_CANVAS_EDGE: u32 = 16;
/// Minimum `getImageData` area (px²) to count as a readback.
pub const MIN_READBACK_AREA: u32 = 320;
/// Minimum same-text `measureText` calls for font fingerprinting.
pub const MIN_MEASURE_CALLS: usize = 50;

/// Verdict for one script execution.
pub fn passes_canvas_criteria(activity: &CanvasActivity) -> bool {
    if activity.width < MIN_CANVAS_EDGE || activity.height < MIN_CANVAS_EDGE {
        return false;
    }
    if activity.fill_styles.len() < 2 && !activity.has_rich_text() {
        return false;
    }
    let readback = activity.to_data_url_calls > 0
        || activity
            .get_image_data
            .iter()
            .any(|(w, h)| w * h >= MIN_READBACK_AREA);
    if !readback {
        return false;
    }
    activity.save_calls == 0
        && activity.restore_calls == 0
        && activity.add_event_listener_calls == 0
}

/// Font-fingerprinting verdict: ≥ 50 `measureText` calls on one text, with
/// fonts being swapped.
pub fn passes_font_criteria(activity: &CanvasActivity) -> bool {
    if activity.fonts_set == 0 {
        return false;
    }
    let mut per_text: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, text) in &activity.measured {
        *per_text.entry(text.as_str()).or_default() += 1;
    }
    per_text.values().any(|&n| n >= MIN_MEASURE_CALLS)
}

/// Identity of a fingerprinting script: its URL, or `(site, inline)` for
/// first-party inline scripts.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScriptId {
    /// Serving host (site itself for inline/first-party scripts).
    pub host: String,
    /// Path, or `"<inline>"`.
    pub path: String,
}

/// Aggregated fingerprinting findings.
#[derive(Debug, Clone)]
pub struct FingerprintReport {
    /// Distinct canvas-fingerprinting scripts.
    pub canvas_scripts: BTreeSet<ScriptId>,
    /// Sites on which at least one canvas script passed.
    pub canvas_sites: BTreeSet<String>,
    /// Third-party services (registrable domains) delivering canvas scripts.
    pub canvas_services: BTreeSet<String>,
    /// Fraction of canvas scripts delivered by third parties.
    pub third_party_script_pct: f64,
    /// Canvas scripts whose URL matches EasyList/EasyPrivacy in full.
    pub indexed_scripts: usize,
    /// Fraction of canvas scripts NOT indexed by the lists (the 91 %).
    pub unindexed_pct: f64,
    /// Font-fingerprinting scripts.
    pub font_scripts: BTreeSet<ScriptId>,
    /// Sites with font fingerprinting.
    pub font_sites: BTreeSet<String>,
    /// Executions that used canvas but failed the criteria (decoys filtered
    /// out — precision evidence).
    pub rejected_executions: usize,
}

/// Runs the detector over a crawl's successful visits.
pub fn detect(crawl: &CrawlRecord, ats: &AtsClassifier) -> FingerprintReport {
    let mut canvas_scripts: BTreeSet<ScriptId> = BTreeSet::new();
    let mut canvas_sites: BTreeSet<String> = BTreeSet::new();
    let mut canvas_services: BTreeSet<String> = BTreeSet::new();
    let mut third_party_scripts: BTreeSet<ScriptId> = BTreeSet::new();
    let mut indexed: BTreeSet<ScriptId> = BTreeSet::new();
    let mut font_scripts: BTreeSet<ScriptId> = BTreeSet::new();
    let mut font_sites: BTreeSet<String> = BTreeSet::new();
    let mut rejected = 0usize;

    for record in crawl.successful() {
        let Some(final_url) = &record.visit.final_url else {
            continue;
        };
        let page_host = final_url.host().as_str();
        for (script_url, activity) in &record.visit.canvas {
            let id = match script_url {
                Some(u) => ScriptId {
                    host: u.host().as_str().to_string(),
                    path: u.path().to_string(),
                },
                None => ScriptId {
                    host: page_host.to_string(),
                    path: "<inline>".to_string(),
                },
            };
            let canvas_hit = passes_canvas_criteria(activity);
            let font_hit = passes_font_criteria(activity);
            if !canvas_hit && !font_hit {
                if activity.to_data_url_calls > 0 || !activity.texts.is_empty() {
                    rejected += 1;
                }
                continue;
            }
            if canvas_hit {
                canvas_sites.insert(crawl.name(record.domain).to_string());
                let third_party = !same_site(&id.host, page_host);
                if third_party {
                    canvas_services.insert(reg(&id.host).to_string());
                    third_party_scripts.insert(id.clone());
                }
                if let Some(u) = script_url {
                    if ats.is_ats_url(
                        &u.without_fragment(),
                        page_host,
                        u.host().as_str(),
                        redlight_net::http::ResourceKind::Script,
                    ) {
                        indexed.insert(id.clone());
                    }
                }
                canvas_scripts.insert(id.clone());
            }
            if font_hit {
                font_scripts.insert(id.clone());
                font_sites.insert(crawl.name(record.domain).to_string());
            }
        }
    }

    let total = canvas_scripts.len().max(1);
    FingerprintReport {
        third_party_script_pct: pct(third_party_scripts.len(), total),
        indexed_scripts: indexed.len(),
        unindexed_pct: pct(total - indexed.len(), total),
        canvas_scripts,
        canvas_sites,
        canvas_services,
        font_scripts,
        font_sites,
        rejected_executions: rejected,
    }
}

/// One Table 5 row: a third-party domain's fingerprinting footprint.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Domain.
    pub domain: String,
    /// Porn sites where some FQDN of the domain appears as a third party.
    pub presence: usize,
    /// Is ATS.
    pub is_ats: bool,
    /// In regular web.
    pub in_regular_web: bool,
    /// Canvas scripts.
    pub canvas_scripts: usize,
    /// Webrtc scripts.
    pub webrtc_scripts: usize,
}

/// Scripts per registrable domain of their serving host.
fn scripts_by_registrable<'s>(
    scripts: impl IntoIterator<Item = &'s ScriptId>,
) -> BTreeMap<&'s str, usize> {
    let mut out: BTreeMap<&str, usize> = BTreeMap::new();
    for s in scripts {
        *out.entry(reg(&s.host)).or_default() += 1;
    }
    out
}

/// Builds Table 5 from the fingerprint + WebRTC reports and third-party
/// presence data. Each input is read once into a per-registrable-domain
/// lookup; the rows are the registrable domains serving a canvas or WebRTC
/// script that appear as a third party on some porn site.
pub fn table5(
    fp: &FingerprintReport,
    rtc: &crate::webrtc::WebRtcReport,
    porn_extract: &crate::thirdparty::ThirdPartyExtract,
    regular_extract: &crate::thirdparty::ThirdPartyExtract,
    ats: &AtsClassifier,
    top_n: usize,
) -> Vec<Table5Row> {
    let canvas = scripts_by_registrable(&fp.canvas_scripts);
    let webrtc = scripts_by_registrable(&rtc.scripts);
    // Sites per registrable domain, counting a site once however many of
    // the domain's FQDNs it embeds.
    let mut presence: BTreeMap<&str, usize> = BTreeMap::new();
    for parties in porn_extract.per_site.values() {
        let site_regs: BTreeSet<&str> = parties.third.iter().map(|f| reg(f)).collect();
        for d in site_regs {
            *presence.entry(d).or_default() += 1;
        }
    }
    let regular: BTreeSet<&str> = regular_extract
        .third_party_fqdns
        .iter()
        .map(|f| reg(f))
        .collect();

    let domains: BTreeSet<&str> = canvas.keys().chain(webrtc.keys()).copied().collect();
    // Keep only third-party domains (inline/first-party hosts are porn
    // sites themselves).
    let mut rows: Vec<Table5Row> = domains
        .into_iter()
        .filter_map(|domain| {
            let presence = presence.get(domain).copied()?;
            Some(Table5Row {
                presence,
                is_ats: ats.is_ats_fqdn(domain),
                in_regular_web: regular.contains(domain),
                canvas_scripts: canvas.get(domain).copied().unwrap_or(0),
                webrtc_scripts: webrtc.get(domain).copied().unwrap_or(0),
                domain: domain.to_string(),
            })
        })
        .collect();
    rows.sort_by(|a, b| b.presence.cmp(&a.presence).then(a.domain.cmp(&b.domain)));
    rows.truncate(top_n);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp_activity() -> CanvasActivity {
        let mut a = CanvasActivity {
            width: 240,
            height: 60,
            to_data_url_calls: 1,
            ..Default::default()
        };
        a.fill_style("#f60");
        a.fill_style("#0af");
        a.texts.push("Cwm fjordbank glyphs vext quiz".into());
        a
    }

    #[test]
    fn englehardt_criteria_pass_and_fail() {
        assert!(passes_canvas_criteria(&fp_activity()));

        // Too small.
        let mut small = fp_activity();
        small.width = 12;
        assert!(!passes_canvas_criteria(&small));

        // No readback.
        let mut no_read = fp_activity();
        no_read.to_data_url_calls = 0;
        assert!(!passes_canvas_criteria(&no_read));

        // getImageData readback with enough area counts.
        no_read.get_image_data.push((20, 20));
        assert!(passes_canvas_criteria(&no_read));
        // …but a tiny readback does not.
        let mut tiny_read = fp_activity();
        tiny_read.to_data_url_calls = 0;
        tiny_read.get_image_data.push((4, 4));
        assert!(!passes_canvas_criteria(&tiny_read));

        // save/restore/addEventListener disqualify.
        let mut ui = fp_activity();
        ui.save_calls = 1;
        assert!(!passes_canvas_criteria(&ui));
        let mut ui2 = fp_activity();
        ui2.add_event_listener_calls = 1;
        assert!(!passes_canvas_criteria(&ui2));
    }

    #[test]
    fn single_color_needs_rich_text() {
        let mut a = fp_activity();
        a.fill_styles = vec!["#000".into()];
        assert!(passes_canvas_criteria(&a), "rich text compensates");
        a.texts = vec!["short".into()];
        assert!(!passes_canvas_criteria(&a));
    }

    #[test]
    fn font_rule_needs_50_same_text_measures() {
        let mut a = CanvasActivity {
            fonts_set: 56,
            ..Default::default()
        };
        for i in 0..56 {
            a.measured
                .push((format!("probe-font-{i}"), "mmmmmmmmmmlli".to_string()));
        }
        assert!(passes_font_criteria(&a));

        // 49 calls: below threshold.
        a.measured.truncate(49);
        assert!(!passes_font_criteria(&a));

        // 60 calls but on different texts.
        let mut b = CanvasActivity {
            fonts_set: 60,
            ..Default::default()
        };
        for i in 0..60 {
            b.measured.push((format!("f{i}"), format!("text{i}")));
        }
        assert!(!passes_font_criteria(&b));

        // Never set a font: not font fingerprinting.
        let mut c = a.clone();
        c.fonts_set = 0;
        assert!(!passes_font_criteria(&c));
    }
}
