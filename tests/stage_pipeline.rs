//! The DB-first stage pipeline: plan → MeasurementDb → stages → report.

use redlight::core::stages::{self, AnalysisContext};
use redlight::crawler::db::CorpusLabel;
use redlight::net::geoip::Country;
use redlight::obs::Registry;
use redlight::{Study, StudyConfig, World};

/// Splitting the monolith into collect + stages must not change a single
/// rendered byte: the summary is a pure function of the seed.
#[test]
fn same_seed_renders_identical_summaries() {
    let a = Study::run(StudyConfig::tiny(4242));
    let b = Study::run(StudyConfig::tiny(4242));
    assert_eq!(a.render_summary(), b.render_summary());
    // Timings differ between runs — which is exactly why they live in the
    // stage report and not in the summary.
    assert_eq!(a.stage_report.stages.len(), b.stage_report.stages.len());
}

/// The collection layer is deterministic too: two executions of the same
/// plan over the same world record identical tables.
#[test]
fn collect_db_is_deterministic() {
    let config = StudyConfig::tiny(99);
    let world = World::build(config.world.clone());
    let (db_a, _) = Study::collect_db(&world, &config);
    let (db_b, _) = Study::collect_db(&world, &config);

    assert_eq!(db_a.crawls().len(), db_b.crawls().len());
    for (x, y) in db_a.crawls().iter().zip(db_b.crawls()) {
        assert_eq!(x.country, y.country);
        assert_eq!(x.corpus, y.corpus);
        assert_eq!(x.client_ip, y.client_ip);
        assert_eq!(x.visits.len(), y.visits.len());
        for (vx, vy) in x.visits.iter().zip(&y.visits) {
            assert_eq!(vx.domain, vy.domain);
            assert_eq!(vx.visit.requests.len(), vy.visit.requests.len());
            assert_eq!(vx.visit.cookies.len(), vy.visit.cookies.len());
        }
    }
    assert_eq!(db_a.interactions().len(), db_b.interactions().len());
}

/// A full run's report names every registered stage exactly once, with a
/// nonzero input count, plus one timing per planned crawl.
#[test]
fn stage_report_covers_every_stage_once() {
    let results = Study::run(StudyConfig::tiny(321));
    let report = &results.stage_report;

    assert_eq!(report.stages.len(), stages::STAGES.len());
    for (timing, expected) in report.stages.iter().zip(stages::STAGES) {
        assert_eq!(timing.name, expected, "stages reported in paper order");
        assert!(
            timing.input_records > 0,
            "stage {} must consume records",
            timing.name
        );
    }

    // tiny: 4 OpenWPM crawls + 4 Selenium interaction crawls.
    assert_eq!(report.crawls.len(), 8);
    assert!(report.crawls.iter().all(|c| c.sites > 0));
    assert_eq!(
        report
            .crawls
            .iter()
            .filter(|c| c.crawler == "selenium")
            .count(),
        4
    );
    // The rendered instrumentation mentions every stage.
    let rendered = results.render_timings();
    for stage in stages::STAGES {
        assert!(rendered.contains(stage), "timings table lists {stage}");
    }
}

/// Running a stage subset over a shared DB reproduces the full run's
/// numbers — no analysis reads crawl data except through the DB.
#[test]
fn stage_subset_matches_full_run() {
    let config = StudyConfig::tiny(2024);
    let world = World::build(config.world.clone());
    let full = Study::run_on(&world, &config);

    let (db, _) = Study::collect_db(&world, &config);
    let ctx = AnalysisContext::build_sharded(&world, &config, &db, 1);
    let selected = stages::expand_selection(&[
        "cookies".to_string(),
        "https".to_string(),
        "disclosure".to_string(),
    ])
    .expect("known stages");
    // disclosure pulls in its transitive dependencies.
    for dep in ["fingerprinting", "webrtc", "policies"] {
        assert!(selected.contains(dep), "{dep} auto-selected");
    }
    let (outputs, timings) = stages::run(&db, &ctx, &selected);
    assert_eq!(timings.len(), selected.len());

    let (cookie_stats, _) = outputs.cookies.expect("cookies ran");
    assert_eq!(cookie_stats.total_cookies, full.cookie_stats.total_cookies);
    let https = outputs.https.expect("https ran");
    assert_eq!(https.not_fully_https, full.https.not_fully_https);
    assert_eq!(
        outputs.disclosure.expect("disclosure ran"),
        full.disclosure_check
    );
    // Unselected stages stay empty.
    assert!(outputs.geo.is_none());
    assert!(outputs.age_gates.is_none());
}

/// Building the context classifies nothing: stages classify on demand, so
/// every shared-cache counter still reads zero once the build returns.
#[test]
fn context_build_classifies_nothing() {
    let config = StudyConfig::tiny(4242);
    let world = World::build(config.world.clone());
    let (db, _) = Study::collect_db(&world, &config);
    let ctx = AnalysisContext::build_sharded_in(&world, &config, &db, &Registry::new(), 1);
    let counters = ctx.cache_counters();
    assert!(!counters.is_empty());
    for counter in counters {
        assert_eq!(
            (counter.hits, counter.misses),
            (0, 0),
            "cache {} was touched by the context build",
            counter.name
        );
    }
}

/// Unknown stage names are rejected with the full menu.
#[test]
fn unknown_stage_is_an_error() {
    let err = stages::expand_selection(&["cokies".to_string()]).unwrap_err();
    assert!(err.contains("unknown stage 'cokies'"));
    assert!(err.contains("cookie-sync"), "error lists valid names");
}

/// The measurement DB indexes crawls by (country, corpus) and exposes
/// per-country views.
#[test]
fn measurement_db_accessors() {
    let config = StudyConfig::tiny(7);
    let world = World::build(config.world.clone());
    let (db, _) = Study::collect_db(&world, &config);

    let countries = db.countries();
    assert_eq!(
        countries,
        vec![Country::Usa, Country::Spain, Country::Russia]
    );
    assert_eq!(db.crawls_in(Country::Spain).count(), 2);
    assert_eq!(db.crawls_in(Country::Usa).count(), 1);
    let porn = db
        .crawl(Country::Spain, CorpusLabel::Porn)
        .expect("indexed");
    assert_eq!(porn.corpus, CorpusLabel::Porn);
    // The vantage IP rides on the record itself.
    assert!(!porn.client_ip.is_unspecified());
}
