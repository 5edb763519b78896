//! Privacy-policy analysis (§7.3).
//!
//! Presence (with sanitization of abnormally short fetches — HTTP error
//! pages masquerading as policies), explicit GDPR mentions, length
//! statistics in letters, pairwise TF-IDF similarity over every policy
//! pair, and a Polisis-style rule-based annotator extracting what each
//! policy actually discloses.

use redlight_text::stats::pct;
use redlight_text::tfidf::TfIdfModel;
use redlight_text::tokenize::{contains_ci, letter_count};

use redlight_crawler::db::InteractionRecord;

/// Minimum letters for a fetched document to count as a policy (the paper
/// removed 44 false positives caused by HTTP error pages).
pub const MIN_POLICY_LETTERS: usize = 600;

/// One collected policy.
#[derive(Debug, Clone)]
pub struct PolicyDoc {
    /// The domain the policy belongs to.
    pub site: String,
    /// Extracted policy text.
    pub text: String,
    /// Length in letters (the paper's length unit).
    pub letters: usize,
}

/// Polisis-style disclosure annotations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyAnnotations {
    /// Discloses cookies.
    pub discloses_cookies: bool,
    /// Discloses data types.
    pub discloses_data_types: bool,
    /// Discloses third parties.
    pub discloses_third_parties: bool,
}

/// Rule-based annotator over policy text.
pub fn annotate(text: &str) -> PolicyAnnotations {
    PolicyAnnotations {
        discloses_cookies: contains_ci(text, "cookie"),
        discloses_data_types: contains_ci(text, "ip address")
            || contains_ci(text, "data categories")
            || contains_ci(text, "device identifiers"),
        discloses_third_parties: contains_ci(text, "third party")
            || contains_ci(text, "third-party")
            || contains_ci(text, "partners"),
    }
}

/// Does the policy disclose the *complete* third-party list? Checked
/// against the domains actually observed on the site.
pub fn discloses_full_list(text: &str, observed_third_parties: &[String]) -> bool {
    if observed_third_parties.is_empty() {
        return false;
    }
    let named = observed_third_parties
        .iter()
        .filter(|d| text.contains(d.as_str()))
        .count();
    named * 10 >= observed_third_parties.len() * 8 // ≥ 80 % named
}

/// §7.3 aggregate report.
#[derive(Debug, Clone)]
pub struct PolicyReport {
    /// Sites whose policy link yielded a real policy.
    pub with_policy: usize,
    /// With policy percentage.
    pub with_policy_pct: f64,
    /// Link-but-error false positives removed by sanitization.
    pub sanitized_out: usize,
    /// Policies explicitly mentioning the GDPR.
    pub gdpr_mentions: usize,
    /// GDPR percentage.
    pub gdpr_pct: f64,
    /// Mean letters.
    pub mean_letters: f64,
    /// Min letters.
    pub min_letters: usize,
    /// Max letters.
    pub max_letters: usize,
    /// Fraction of policy pairs with cosine similarity ≥ 0.5.
    pub similar_pairs_pct: f64,
    /// Pairs examined.
    pub pairs_examined: usize,
}

/// Collects sanitized policies from the interaction records.
pub fn collect(interactions: &[InteractionRecord]) -> (Vec<PolicyDoc>, usize) {
    let mut docs = Vec::new();
    let mut sanitized_out = 0usize;
    for rec in interactions {
        match &rec.policy_text {
            Some(text) => {
                let letters = letter_count(text);
                if letters >= MIN_POLICY_LETTERS {
                    docs.push(PolicyDoc {
                        site: rec.domain.clone(),
                        text: text.clone(),
                        letters,
                    });
                } else {
                    sanitized_out += 1;
                }
            }
            None if rec.policy_url.is_some() => sanitized_out += 1,
            None => {}
        }
    }
    (docs, sanitized_out)
}

/// Fits the TF-IDF model over the policy texts, in `docs` order. The §7.3
/// similarity sweep ([`report`]) and the §4.1 owner clusters
/// ([`crate::owners::discover`]) both read this one model.
pub fn fit(docs: &[PolicyDoc]) -> TfIdfModel {
    TfIdfModel::fit(&docs.iter().map(|d| d.text.as_str()).collect::<Vec<_>>())
}

/// Builds the §7.3 report from `docs` and `model`, their TF-IDF model
/// ([`fit`]). `corpus_size` is the sanitized porn corpus size.
///
/// `max_pairs` sets the sampling stride of the pairwise similarity scan:
/// every `⌊pairs / max_pairs⌋`-th pair (at least every pair) is examined, so
/// small worlds and benches stay fast. It is not a hard cap: the floored
/// stride is 1 for every pair count below `2 × max_pairs`, so nearly twice
/// `max_pairs` pairs can be examined. Pass `usize::MAX` for the full
/// quadratic sweep.
pub fn report(
    docs: &[PolicyDoc],
    model: &TfIdfModel,
    sanitized_out: usize,
    corpus_size: usize,
    max_pairs: usize,
) -> PolicyReport {
    assert_eq!(model.n_documents(), docs.len(), "model fitted on docs");
    let gdpr = docs.iter().filter(|d| d.text.contains("GDPR")).count();
    let lens: Vec<usize> = docs.iter().map(|d| d.letters).collect();

    // Pairwise TF-IDF similarity.
    let n = docs.len();
    let total_pairs = n.saturating_mul(n.saturating_sub(1)) / 2;
    let stride = (total_pairs / max_pairs.max(1)).max(1);
    let mut examined = 0usize;
    let mut similar = 0usize;
    let mut k = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if k.is_multiple_of(stride) {
                examined += 1;
                if model.similarity(i, j) >= 0.5 {
                    similar += 1;
                }
            }
            k += 1;
        }
    }

    PolicyReport {
        with_policy: docs.len(),
        with_policy_pct: pct(docs.len(), corpus_size.max(1)),
        sanitized_out,
        gdpr_mentions: gdpr,
        gdpr_pct: pct(gdpr, docs.len().max(1)),
        mean_letters: if lens.is_empty() {
            0.0
        } else {
            lens.iter().sum::<usize>() as f64 / lens.len() as f64
        },
        min_letters: lens.iter().copied().min().unwrap_or(0),
        max_letters: lens.iter().copied().max().unwrap_or(0),
        similar_pairs_pct: pct(similar, examined.max(1)),
        pairs_examined: examined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotator_reads_disclosures() {
        let a = annotate("This site uses cookies and shares your IP address with partners.");
        assert!(a.discloses_cookies);
        assert!(a.discloses_data_types);
        assert!(a.discloses_third_parties);
        let b = annotate("We respect you. Nothing else to say.");
        assert_eq!(b, PolicyAnnotations::default());
    }

    #[test]
    fn full_list_requires_most_domains_named() {
        let parties = vec!["exoclick.com".to_string(), "addthis.com".to_string()];
        assert!(discloses_full_list(
            "We embed exoclick.com and addthis.com.",
            &parties
        ));
        assert!(!discloses_full_list("We embed exoclick.com.", &parties));
        assert!(!discloses_full_list("nothing", &[]));
    }

    #[test]
    fn report_counts_gdpr_and_similarity() {
        let boiler = "this privacy policy describes how this website collects uses stores and \
                      shares personal information about visitors including cookies analytics";
        let docs = vec![
            PolicyDoc {
                site: "a.com".into(),
                text: format!("{boiler} GDPR rights apply."),
                letters: 1_200,
            },
            PolicyDoc {
                site: "b.com".into(),
                text: format!("{boiler} contact the operator."),
                letters: 2_000,
            },
            PolicyDoc {
                site: "c.ru".into(),
                text: "политика конфиденциальности описывает обработку данных".into(),
                letters: 900,
            },
        ];
        let rep = report(&docs, &fit(&docs), 2, 100, usize::MAX);
        assert_eq!(rep.with_policy, 3);
        assert_eq!(rep.gdpr_mentions, 1);
        assert_eq!(rep.sanitized_out, 2);
        assert_eq!(rep.pairs_examined, 3);
        // a/b share boilerplate; c is cross-language.
        assert!((rep.similar_pairs_pct - 33.333).abs() < 1.0);
        assert_eq!(rep.min_letters, 900);
        assert_eq!(rep.max_letters, 2_000);
    }
}
