//! End-to-end tests: the reduced-scale study keeps the paper's headline
//! percentages within tolerance, and its results obey the §3–§7
//! accounting identities.

use redlight::{Study, StudyConfig};

/// The scale-free headline percentages the shape test holds to tolerance.
const SHAPE_KEYS: [&str; 16] = [
    // Fig. 1 — rank stability.
    "fig1.always_top1m_pct",
    // §4.1 ownership / monetization.
    "owners.unattributed_pct",
    "monetization.subscription_pct",
    // Fig. 3 — organization prevalence.
    "fig3.alphabet_pct",
    "fig3.exoclick_pct",
    "fig3.cloudflare_pct",
    // §5.1.1 cookies.
    "cookies.sites_pct",
    "cookies.third_party_sites_pct",
    // §5.1.3 fingerprinting script attribution.
    "fp.third_party_script_pct",
    // §5.2 HTTPS by tier.
    "table6.top1k_sites_pct",
    "table6.to10k_sites_pct",
    "table6.to100k_sites_pct",
    "table6.beyond_sites_pct",
    // §7.3 policies.
    "policies.with_policy_pct",
    "policies.gdpr_pct",
    "policies.similar_pairs_pct",
];

#[test]
fn small_scale_study_matches_paper_shape() {
    let results = Study::run(StudyConfig::small(42));
    // Percentages ignore the world-size factor.
    let checks: Vec<_> = results
        .comparisons(20.0)
        .into_iter()
        .filter(|c| SHAPE_KEYS.contains(&c.key))
        .collect();
    assert_eq!(
        checks.len(),
        SHAPE_KEYS.len(),
        "every shape key is compared"
    );

    let failures: Vec<String> = checks
        .iter()
        .filter(|c| !c.within_tolerance)
        .map(|c| format!("{}: paper {} vs measured {:.2}", c.key, c.paper, c.measured))
        .collect();
    assert!(
        failures.is_empty(),
        "shape drift beyond tolerance:\n{}",
        failures.join("\n")
    );
}

#[test]
fn corpus_arithmetic_matches_section3_exactly() {
    // §3's accounting is deterministic in the config, so at small scale the
    // union/sanitization identities must hold exactly.
    let results = Study::run(StudyConfig::tiny(7));
    let c = &results.corpus;
    assert_eq!(
        c.candidates,
        c.from_directories + c.from_adult_category + c.from_keywords,
        "three disjoint sources"
    );
    assert_eq!(c.candidates, c.sanitized + c.false_positives);
    assert!(c.manual_inspections <= c.candidates);
}

#[test]
fn key_invariants_hold_across_results() {
    let results = Study::run(StudyConfig::tiny(99));

    // The ID filter can only shrink the cookie population.
    let s = &results.cookie_stats;
    assert!(s.id_cookies <= s.total_cookies);
    assert!(s.third_party_id_cookies <= s.id_cookies);
    assert!(s.ip_cookies <= s.id_cookies);

    // Sync pairs connect distinct registrable domains.
    for pair in results.sync.pairs.keys() {
        assert_ne!(pair.origin, pair.destination);
    }

    // HTTPS monotonicity: popularity correlates with HTTPS adoption.
    let rows = &results.https.rows;
    assert!(rows[0].sites_https_pct >= rows[3].sites_https_pct);

    // Banner totals are the sum of the type breakdown.
    let eu_sum: f64 = results.banners_eu.pct_by_type.values().sum();
    assert!((eu_sum - results.banners_eu.total_pct).abs() < 1e-6);

    // Geo rows exist for every crawled country.
    assert_eq!(
        results.table7.rows.len(),
        3,
        "tiny config crawls 3 countries"
    );

    // Table 3 unique counts can never exceed totals.
    for row in &results.table3.rows {
        assert!(row.third_party_unique <= row.third_party_total);
    }
}

#[test]
fn eu_banner_rate_is_at_least_usa_rate() {
    // Geo-fenced consent only ever ADDS banners for EU visitors (Table 8).
    let results = Study::run(StudyConfig::small(2024));
    assert!(
        results.banners_eu.total_pct >= results.banners_usa.total_pct - 1e-9,
        "EU {} < USA {}",
        results.banners_eu.total_pct,
        results.banners_usa.total_pct
    );
}
