//! Website-owner discovery (§4.1, Table 1).
//!
//! Discovering who operates a porn site is hard: imprints are vague, WHOIS
//! is redacted. The paper combines (1) TF-IDF similarity over privacy
//! policies and `<head>` markup to form candidate same-owner clusters,
//! manually pruning template false positives; (2) legal/operator statements
//! inside the policies; (3) DNS, WHOIS and X.509 signals. Here the manual
//! pruning step is replaced by requiring an *explicit, consistent operator
//! label* for a cluster — clusters that merely share a CMS template carry
//! no such label and are discarded, exactly what the human review achieved.

use std::collections::BTreeMap;

use redlight_net::whois::WhoisDb;
use redlight_rankings::RankHistory;
use redlight_text::tfidf::TfIdfModel;

use crate::policies::PolicyDoc;
use redlight_crawler::db::CrawlRecord;

/// Similarity threshold for candidate same-owner policy pairs (the paper
/// keyed on coefficients at or near 1).
const CLUSTER_THRESHOLD: f64 = 0.95;

/// One attributed ownership cluster.
#[derive(Debug, Clone)]
pub struct OwnerCluster {
    /// The operating company.
    pub company: String,
    /// Domains attributed to it.
    pub sites: Vec<String>,
    /// The member with the best (lowest) rank, with that rank.
    pub most_popular: Option<(String, u32)>,
}

/// §4.1 headline numbers.
#[derive(Debug, Clone)]
pub struct OwnershipReport {
    /// Discovered clusters, largest first (Table 1).
    pub clusters: Vec<OwnerCluster>,
    /// Distinct companies attributed.
    pub companies: usize,
    /// Total sites across all clusters.
    pub attributed_sites: usize,
    /// Share of the corpus with NO reliable owner information.
    pub unattributed_pct: f64,
    /// Candidate clusters discarded as template artifacts.
    pub template_clusters_discarded: usize,
}

/// Extracts an explicit operator statement ("operated by X.") from policy
/// text.
fn operator_statement(text: &str) -> Option<String> {
    let idx = text.find("operated by ")?;
    let rest = &text[idx + "operated by ".len()..];
    let end = rest.find(['.', ',', ';'])?;
    let name = rest[..end].trim();
    if name.is_empty() || name.len() > 60 {
        None
    } else {
        Some(name.to_string())
    }
}

/// Extracts the publisher label from `<head>` markup (meta tags naming the
/// operating network), the head-similarity signal distilled.
fn head_publisher(html: &str) -> Option<String> {
    let doc = redlight_html::parser::parse(html);
    for id in redlight_html::query::by_tag(&doc, "meta") {
        let el = doc.element(id)?;
        if el.attr("name") == Some("publisher") {
            return el.attr("content").map(str::to_string);
        }
    }
    None
}

/// Runs owner discovery.
///
/// * `docs` — sanitized policies (from the interaction crawl);
/// * `model` — the TF-IDF model fitted on `docs` ([`crate::policies::fit`]);
/// * `crawl` — the main crawl (for `<head>` markup);
/// * `whois` — the registration database;
/// * `histories` — per-domain rank histories (for Table 1's "most popular").
/// * `corpus_size` — sanitized corpus size.
pub fn discover(
    docs: &[PolicyDoc],
    model: &TfIdfModel,
    crawl: &CrawlRecord,
    whois: &WhoisDb,
    histories: &BTreeMap<String, RankHistory>,
    corpus_size: usize,
) -> OwnershipReport {
    assert_eq!(model.n_documents(), docs.len(), "model fitted on docs");
    // --- Signal 1: policy-text clusters, labeled by operator statements. --
    let cluster_ids = model.cluster(CLUSTER_THRESHOLD);

    let mut clusters: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (doc_idx, cid) in cluster_ids.iter().enumerate() {
        clusters.entry(*cid).or_default().push(doc_idx);
    }

    let mut by_company: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut discarded = 0usize;
    for members in clusters.values().filter(|m| m.len() >= 2) {
        // Label: the unique operator statement across the cluster.
        let mut labels: Vec<String> = members
            .iter()
            .filter_map(|&i| operator_statement(docs[i].text))
            .collect();
        labels.sort();
        labels.dedup();
        match labels.as_slice() {
            [company] => {
                let entry = by_company.entry(company.clone()).or_default();
                for &i in members {
                    if !entry.iter().any(|d| d == docs[i].site) {
                        entry.push(docs[i].site.to_owned());
                    }
                }
            }
            // No label, or conflicting labels: a shared CMS template, not a
            // company — the manual review would discard it.
            _ => discarded += 1,
        }
    }

    // --- Signal 2: head publisher metadata from the main crawl. ---
    for record in crawl.successful() {
        if record.visit.dom_html.is_empty() {
            continue;
        }
        if let Some(publisher) = head_publisher(&record.visit.dom_html) {
            let domain = crawl.name(record.domain);
            let entry = by_company.entry(publisher).or_default();
            if !entry.iter().any(|d| d == domain) {
                entry.push(domain.to_string());
            }
        }
    }

    // --- Signal 3: WHOIS organizations corroborate/extend clusters. ---
    for record in &crawl.visits {
        let domain = crawl.name(record.domain);
        if let Some(org) = whois
            .lookup(redlight_net::psl::registrable_domain(domain))
            .and_then(|r| r.organization())
        {
            let entry = by_company.entry(org.to_string()).or_default();
            if !entry.iter().any(|d| d == domain) {
                entry.push(domain.to_string());
            }
        }
    }

    // --- Assemble Table 1. ---
    let mut out: Vec<OwnerCluster> = by_company
        .into_iter()
        .map(|(company, sites)| {
            let most_popular = sites
                .iter()
                .filter_map(|s| {
                    histories
                        .get(s)
                        .and_then(|h| h.best())
                        .map(|b| (s.clone(), b))
                })
                .min_by_key(|(_, b)| *b);
            OwnerCluster {
                company,
                sites,
                most_popular,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.sites
            .len()
            .cmp(&a.sites.len())
            .then(a.company.cmp(&b.company))
    });

    let attributed: usize = out.iter().map(|c| c.sites.len()).sum();
    OwnershipReport {
        companies: out.len(),
        attributed_sites: attributed,
        unattributed_pct: redlight_text::stats::pct(
            corpus_size.saturating_sub(attributed),
            corpus_size.max(1),
        ),
        template_clusters_discarded: discarded,
        clusters: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_extraction() {
        assert_eq!(
            operator_statement("Privacy Policy. This website is operated by MindGeek. More…"),
            Some("MindGeek".to_string())
        );
        assert_eq!(operator_statement("no statement here"), None);
        assert_eq!(operator_statement("operated by ."), None);
    }

    #[test]
    fn head_publisher_extraction() {
        let html = r#"<head><meta name="publisher" content="Gamma Entertainment"></head>"#;
        assert_eq!(
            head_publisher(html),
            Some("Gamma Entertainment".to_string())
        );
        assert_eq!(head_publisher("<head></head>"), None);
    }
}
