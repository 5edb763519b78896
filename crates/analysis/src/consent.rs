//! Cookie-consent banner detection and classification (§7.1, Table 8).
//!
//! Detection inspects the DOM for banner-shaped elements (floating, with
//! cookie vocabulary), extracts their rendered text, and classifies them
//! into the Degeling taxonomy by their controls: no controls ⇒ *No Option*;
//! a single affirmative button ⇒ *Confirmation*; accept + reject ⇒
//! *Binary*; sliders/checkboxes ⇒ *Others*. Every candidate is confirmed
//! through the manual-verification callback (the screenshot check).

use std::collections::BTreeMap;

use redlight_html::{parser, style};
use redlight_net::geoip::Country;
use redlight_text::lang;
use redlight_text::stats::pct;

use redlight_crawler::db::CrawlRecord;

/// The Degeling et al. banner taxonomy as the detector can distinguish it
/// (Slider and Checkbox require interaction, so they fold into `Others`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BannerType {
    /// Informs without offering any choice.
    NoOption,
    /// A single affirmative button.
    Confirmation,
    /// Accept and reject buttons.
    Binary,
    /// Sliders/checkboxes (needs interaction to classify further).
    Others,
}

/// One detected banner.
#[derive(Debug, Clone)]
pub struct BannerObservation {
    /// The crawled domain showing the banner.
    pub site: String,
    /// Taxonomy class of the banner.
    pub kind: BannerType,
    /// Text rendered to the user.
    pub text: String,
}

/// Detects and classifies the banner on one page's markup.
fn classify_page(html: &str) -> Option<(BannerType, String)> {
    let doc = parser::parse(html);
    for id in style::floating_elements(&doc) {
        let text = doc.text_content(id);
        if !lang::matches_cookie(&text) {
            continue;
        }
        // Skip age gates that merely mention cookies.
        if lang::matches_age_warning(&text) && !text.to_lowercase().contains("cookie") {
            continue;
        }
        // Classify by controls inside the banner subtree.
        let mut affirm_buttons = 0usize;
        let mut other_buttons = 0usize;
        let mut sliders = 0usize;
        let mut checkboxes = 0usize;
        for node in doc.subtree(id) {
            let Some(el) = doc.element(node) else {
                continue;
            };
            match el.tag.as_str() {
                "button" => {
                    if lang::matches_affirmative(&doc.text_content(node)) {
                        affirm_buttons += 1;
                    } else {
                        other_buttons += 1;
                    }
                }
                "input" => match el.attr("type") {
                    Some("range") => sliders += 1,
                    Some("checkbox") => checkboxes += 1,
                    _ => {}
                },
                _ => {}
            }
        }
        let kind = if sliders > 0 || checkboxes > 0 {
            BannerType::Others
        } else if affirm_buttons > 0 && other_buttons > 0 {
            BannerType::Binary
        } else if affirm_buttons > 0 {
            BannerType::Confirmation
        } else {
            BannerType::NoOption
        };
        return Some((kind, text));
    }
    None
}

/// Table 8 column for one country.
#[derive(Debug, Clone)]
pub struct BannerBreakdown {
    /// Vantage-point country of the crawl.
    pub country: Country,
    /// Successfully crawled sites (the percentage base).
    pub crawled: usize,
    /// Percentage of crawled sites per banner type.
    pub pct_by_type: BTreeMap<String, f64>,
    /// Share of crawled sites showing any banner.
    pub total_pct: f64,
    /// Of sites with banners, the share offering no choice at all.
    pub no_option_share_pct: f64,
    /// Banners the manual verification rejected (false positives).
    pub rejected: usize,
}

/// Scans one country's crawl into its Table 8 column plus the verified
/// banner observations, in visit order. `verify` is the manual screenshot
/// check — candidates it rejects are dropped (and counted).
pub fn breakdown(
    crawl: &CrawlRecord,
    verify: &dyn Fn(&str) -> bool,
) -> (BannerBreakdown, Vec<BannerObservation>) {
    let mut observations = Vec::new();
    let mut rejected = 0usize;
    for record in crawl.successful() {
        if record.visit.dom_html.is_empty() {
            continue;
        }
        if let Some((kind, text)) = classify_page(&record.visit.dom_html) {
            let site = crawl.name(record.domain);
            if verify(site) {
                observations.push(BannerObservation {
                    site: site.to_string(),
                    kind,
                    text,
                });
            } else {
                rejected += 1;
            }
        }
    }

    let crawled = crawl.success_count();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for obs in &observations {
        *counts.entry(label(obs.kind).to_string()).or_default() += 1;
    }
    let pct_by_type: BTreeMap<String, f64> = [
        BannerType::NoOption,
        BannerType::Confirmation,
        BannerType::Binary,
        BannerType::Others,
    ]
    .into_iter()
    .map(|k| {
        let n = counts.get(label(k)).copied().unwrap_or(0);
        (label(k).to_string(), pct(n, crawled.max(1)))
    })
    .collect();
    let no_option = counts
        .get(label(BannerType::NoOption))
        .copied()
        .unwrap_or(0);

    (
        BannerBreakdown {
            country: crawl.country,
            crawled,
            total_pct: pct(observations.len(), crawled.max(1)),
            no_option_share_pct: pct(no_option, observations.len().max(1)),
            pct_by_type,
            rejected,
        },
        observations,
    )
}

/// Table 8 row labels.
pub fn label(kind: BannerType) -> &'static str {
    match kind {
        BannerType::NoOption => "No Option",
        BannerType::Confirmation => "Confirmation",
        BannerType::Binary => "Binary",
        BannerType::Others => "Others",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_the_four_types() {
        let no_option = r#"<div style="position:fixed">We use cookies on this site.</div>"#;
        assert_eq!(classify_page(no_option).unwrap().0, BannerType::NoOption);

        let confirmation = r#"<div style="position:fixed">We use cookies.
            <button>Accept</button></div>"#;
        assert_eq!(
            classify_page(confirmation).unwrap().0,
            BannerType::Confirmation
        );

        let binary = r#"<div style="position:fixed">Cookies consent.
            <button>Accept</button><button>No thanks</button></div>"#;
        assert_eq!(classify_page(binary).unwrap().0, BannerType::Binary);

        let others = r#"<div style="position:fixed">Cookie settings
            <input type="checkbox" value="ads"><button>Save</button></div>"#;
        assert_eq!(classify_page(others).unwrap().0, BannerType::Others);
    }

    #[test]
    fn pages_without_banners_are_clean() {
        assert!(classify_page("<html><body><p>Just videos here.</p></body></html>").is_none());
        // Floating element without cookie vocabulary (an age gate).
        let gate = r#"<div style="position:fixed">You must be 18. <button>Enter</button></div>"#;
        assert!(classify_page(gate).is_none());
    }

    #[test]
    fn banner_text_is_extracted() {
        let html = r#"<div style="position:fixed">Wir verwenden Cookies <button>Akzeptieren</button></div>"#;
        let (kind, text) = classify_page(html).unwrap();
        assert_eq!(kind, BannerType::Confirmation);
        assert!(text.contains("Cookies"));
    }
}
