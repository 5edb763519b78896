//! The sharded map/reduce contract: analyzing a study per-shard and
//! merging the partials must yield `StudyResults` byte-identical to the
//! monolithic whole-crawl run, for every shard count ≥ 1 — including
//! oversubscribed splits with more shards than visits.
//!
//! The measurement DB is collected once (collection is untouched by
//! sharding); every shard count from 1 to 24 re-runs only the analysis
//! layer and compares the rendered summary bytes against the one-shard
//! run, which scans every crawl whole and never merges. The telemetry
//! contract rides along: one shard records no shard span or
//! `shard_scans` counter, more shards record both for every decomposable
//! scan.

use std::sync::OnceLock;

use redlight::core::results::StageReport;
use redlight::core::stages::{self, AnalysisContext};
use redlight::crawler::db::MeasurementDb;
use redlight::obs::ObsContext;
use redlight::{Study, StudyConfig, World, WorldConfig};

struct Seeded {
    world: World,
    config: StudyConfig,
    db: MeasurementDb,
    monolithic_summary: String,
}

/// The seeded study, collected and analyzed monolithically exactly once.
fn seeded() -> &'static Seeded {
    static CELL: OnceLock<Seeded> = OnceLock::new();
    CELL.get_or_init(|| {
        let config = StudyConfig::tiny(4242);
        let world = World::build(WorldConfig::tiny(4242));
        let (db, _) = Study::collect_db(&world, &config);
        let mut fixture = Seeded {
            monolithic_summary: String::new(),
            world,
            config,
            db,
        };
        fixture.monolithic_summary = analyze(&fixture, 1);
        fixture
    })
}

/// Runs the full analysis layer over the seeded DB with `shards` shards
/// and renders the deterministic summary.
fn analyze(fixture: &Seeded, shards: usize) -> String {
    let ctx = AnalysisContext::build_sharded(&fixture.world, &fixture.config, &fixture.db, shards);
    let (outputs, _) = stages::run(&fixture.db, &ctx, &stages::all_stages());
    let best_ranks = ctx.best_ranks.clone();
    outputs
        .into_results(best_ranks, StageReport::default())
        .render_summary()
}

#[test]
fn any_shard_split_merges_byte_identical() {
    let fixture = seeded();
    for shards in 1..=24 {
        assert_eq!(
            analyze(fixture, shards),
            fixture.monolithic_summary,
            "shards={shards} diverged from the monolithic run"
        );
    }
}

#[test]
fn oversubscribed_split_still_merges_identically() {
    // More shards than the tiny corpus has visits: most shards are empty.
    let fixture = seeded();
    assert_eq!(analyze(fixture, 512), fixture.monolithic_summary);
}

#[test]
fn full_sharded_study_matches_monolithic_run() {
    // End to end through `Study::run_on_sharded_observed`, covering the
    // sharded context build, the sharded stage runner and the shard-stat
    // report.
    let config = StudyConfig::tiny(77);
    let world = World::build(WorldConfig::tiny(77));
    let mono = Study::run_on(&world, &config);
    let sharded = Study::run_on_sharded_observed(&world, &config, &ObsContext::disabled(), 3);
    assert_eq!(mono.render_summary(), sharded.render_summary());
    // Shard stats ride along in the report (never in the summary).
    assert!(mono.stage_report.shards.is_empty());
    assert!(!sharded.stage_report.shards.is_empty());
    for stat in &sharded.stage_report.shards {
        assert_eq!(stat.shards, 3.min(stat.visits.max(1)));
        assert!(stat.min_shard <= stat.max_shard);
        assert!(stat.interned_bytes > 0, "visited crawls intern domains");
    }
}

/// Every decomposable scan, as the journal and registry name it: the two
/// cookie-sync passes, webrtc, fingerprinting, https, malware, and the
/// EU and USA consent-banner crawls.
const SHARDED_SCANS: [&str; 8] = [
    "cookie-sync.registrations",
    "cookie-sync.matches",
    "webrtc",
    "fingerprinting",
    "https",
    "malware",
    "consent-banners.eu",
    "consent-banners.usa",
];

fn observed_study(shards: usize) -> ObsContext {
    let config = StudyConfig::tiny(77);
    let world = World::build(WorldConfig::tiny(77));
    let obs = ObsContext::new();
    Study::run_on_sharded_observed(&world, &config, &obs, shards);
    obs
}

#[test]
fn one_shard_records_no_shard_telemetry() {
    let obs = observed_study(1);
    let journal = obs.trace.journal();
    let shard_spans: Vec<&str> = journal
        .spans
        .iter()
        .map(|s| s.name.as_str())
        .filter(|name| name.starts_with("stage.") && name.contains(".shard."))
        .collect();
    assert!(
        shard_spans.is_empty(),
        "unexpected shard spans: {shard_spans:?}"
    );
    let snapshot = obs.metrics.snapshot();
    let counters: Vec<&String> = snapshot
        .entries
        .keys()
        .filter(|name| name.ends_with(".shard_scans"))
        .collect();
    assert!(
        counters.is_empty(),
        "unexpected shard counters: {counters:?}"
    );
}

#[test]
fn three_shards_record_spans_and_counters_for_every_scan() {
    let obs = observed_study(3);
    let journal = obs.trace.journal();
    let snapshot = obs.metrics.snapshot();
    for scan in SHARDED_SCANS {
        let prefix = format!("stage.{scan}.shard.");
        let spans = journal
            .spans
            .iter()
            .filter(|s| s.name.starts_with(&prefix))
            .count();
        assert_eq!(spans, 3, "{scan} records one span per shard");
        assert_eq!(
            snapshot.counter(&format!("stage.{scan}.shard_scans")),
            3,
            "{scan} counts its shard scans"
        );
    }
}
