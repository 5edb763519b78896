//! The batch-classification contract: [`classify_batch`] must agree with
//! per-request classification on every verdict — regardless of the order
//! the per-request path walks the requests in. The per-request walk here is
//! the oracle.
//!
//! The measurement DB is collected once (collection never classifies) and
//! classified once in canonical order as the reference. Twelve seeded
//! permuted walks each re-classify it with a fresh classifier, and one
//! whole-crawl batch per crawl classifies it on another; each is compared
//! with the reference per request occurrence.
//!
//! [`classify_batch`]: redlight::analysis::ats::AtsClassifier::classify_batch

use redlight::analysis::ats::AtsClassifier;
use redlight::crawler::db::MeasurementDb;
use redlight::{Study, StudyConfig, World, WorldConfig};

fn classifier(world: &World) -> AtsClassifier {
    AtsClassifier::from_lists(&world.easylist, &world.easyprivacy)
}

/// One classifiable request occurrence: `(crawl, visit, request)` indices.
/// Skipped requests (failed visits, no final URL, unanswered) never reach
/// either classification path.
fn occurrences(db: &MeasurementDb) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (c, crawl) in db.crawls().iter().enumerate() {
        for (v, record) in crawl.visits.iter().enumerate() {
            if !record.visit.success || record.visit.final_url.is_none() {
                continue;
            }
            for (r, req) in record.visit.requests.iter().enumerate() {
                if req.status.is_some() {
                    out.push((c, v, r));
                }
            }
        }
    }
    out
}

/// Classifies occurrence `(c, v, r)` the pre-batching way: strings rendered
/// from the request record, one `is_ats_url` call.
fn per_request_verdict(
    db: &MeasurementDb,
    cls: &AtsClassifier,
    occ: (usize, usize, usize),
) -> bool {
    let record = &db.crawls()[occ.0].visits[occ.1];
    let req = &record.visit.requests[occ.2];
    let page = record
        .visit
        .final_url
        .as_ref()
        .expect("occurrence of a successful visit");
    cls.is_ats_url(
        &req.url.without_fragment(),
        page.host().as_str(),
        req.url.host().as_str(),
        req.kind,
    )
}

/// Classifies every occurrence through one `classify_batch` per crawl,
/// returning verdicts in occurrence order.
fn batched_verdicts(db: &MeasurementDb, cls: &AtsClassifier) -> Vec<bool> {
    db.crawls()
        .iter()
        .flat_map(|crawl| cls.classify_batch(crawl).verdicts)
        .collect()
}

/// A deterministic Fisher-Yates permutation of `0..len` drawn from `seed`.
fn permutation(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    order
}

/// Per-request verdicts are independent of walk order, and the batch path
/// agrees with them occurrence for occurrence.
#[test]
fn batch_agrees_with_any_per_request_order() {
    let config = StudyConfig::tiny(4242);
    let world = World::build(WorldConfig::tiny(4242));
    let (db, _) = Study::collect_db(&world, &config);
    let occs = occurrences(&db);
    assert!(
        !occs.is_empty(),
        "the tiny study records classifiable requests"
    );

    // Reference: a fresh classifier walked in canonical order.
    let reference = classifier(&world);
    let expected: Vec<bool> = occs
        .iter()
        .map(|&occ| per_request_verdict(&db, &reference, occ))
        .collect();

    for walk in 1u64..=12 {
        // Permuted per-request walk on its own fresh classifier.
        let permuted_cls = classifier(&world);
        let mut permuted = vec![false; occs.len()];
        for i in permutation(occs.len(), 0x5eed_0000 + walk) {
            permuted[i] = per_request_verdict(&db, &permuted_cls, occs[i]);
        }
        assert_eq!(permuted, expected, "walk {walk} changed a verdict");
    }

    let batched = batched_verdicts(&db, &classifier(&world));
    assert_eq!(batched, expected, "whole-crawl batch diverged");
}
