//! The batch-classification contract: [`classify_batch`] must agree with
//! per-request classification on every verdict — regardless of the order
//! the per-request path walks the requests in and the shard count the batch
//! is computed over. The per-request walk here is the oracle.
//!
//! The measurement DB is collected once (collection never classifies);
//! every property case re-classifies it both ways with fresh classifiers
//! and compares verdicts per request occurrence.
//!
//! [`classify_batch`]: redlight::analysis::ats::AtsClassifier::classify_batch

use std::sync::OnceLock;

use proptest::prelude::*;

use redlight::analysis::ats::AtsClassifier;
use redlight::crawler::db::MeasurementDb;
use redlight::{Study, StudyConfig, World, WorldConfig};

struct Seeded {
    world: World,
    db: MeasurementDb,
}

/// The seeded study, collected exactly once.
fn seeded() -> &'static Seeded {
    static CELL: OnceLock<Seeded> = OnceLock::new();
    CELL.get_or_init(|| {
        let config = StudyConfig::tiny(4242);
        let world = World::build(WorldConfig::tiny(4242));
        let (db, _) = Study::collect_db(&world, &config);
        Seeded { world, db }
    })
}

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

/// Classifies every occurrence through `classify_batch` over `shards`
/// slices per crawl, returning verdicts in occurrence order: the slices'
/// verdict vectors, concatenated in order, cover the whole crawl exactly
/// like one whole-crawl batch.
fn batched_verdicts(db: &MeasurementDb, cls: &AtsClassifier, shards: usize) -> Vec<bool> {
    db.crawls()
        .iter()
        .flat_map(|crawl| crawl.shards(shards))
        .flat_map(|slice| cls.classify_batch(slice).verdicts)
        .collect()
}

proptest! {
    /// Per-request verdicts are independent of walk order, and the batch
    /// path agrees with them occurrence for occurrence — for any shard
    /// count.
    #[test]
    fn batch_agrees_with_any_per_request_order(
        shards in 1usize..=12,
        perm_seed in any::<u64>(),
    ) {
        let fixture = seeded();
        let occs = occurrences(&fixture.db);
        prop_assert!(!occs.is_empty(), "the tiny study records classifiable requests");

        // Deterministic Fisher-Yates permutation of the walk order from the
        // drawn seed (proptest shrinks the seed, not the permutation).
        let mut order: Vec<usize> = (0..occs.len()).collect();
        let mut state = perm_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }

        // Reference: a fresh classifier walked in canonical order.
        let reference = classifier(&fixture.world);
        let expected: Vec<bool> = occs
            .iter()
            .map(|&occ| per_request_verdict(&fixture.db, &reference, occ))
            .collect();

        // Permuted per-request walk on its own fresh classifier.
        let permuted_cls = classifier(&fixture.world);
        let mut permuted = vec![false; occs.len()];
        for &i in &order {
            permuted[i] = per_request_verdict(&fixture.db, &permuted_cls, occs[i]);
        }
        prop_assert_eq!(&permuted, &expected, "walk order changed a verdict");

        let batched = batched_verdicts(&fixture.db, &classifier(&fixture.world), shards);
        prop_assert_eq!(&batched, &expected, "batch (shards={}) diverged", shards);
    }
}
