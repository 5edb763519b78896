//! Determinism and coverage guarantees of the observability subsystem:
//! the same study configuration and fault seed must produce byte-identical
//! journal exports and metrics snapshots across runs (spans are merged
//! from per-worker shards by shard name, never by arrival order), while
//! divergent fault seeds must visibly diverge in the retry counters.

use redlight::core::stages::{self, STAGES};
use redlight::net::transport::NetProfile;
use redlight::obs::ObsContext;
use redlight::{Study, StudyConfig, World};

/// Runs the full tiny pipeline under an enabled observability context and
/// returns the context (journal + metrics) for inspection.
fn observed_run(world_seed: u64, net: NetProfile) -> ObsContext {
    let mut config = StudyConfig::tiny(world_seed);
    config.net = net;
    let world = World::build(config.world.clone());
    let obs = ObsContext::new();
    let _results = Study::run_on_observed(&world, &config, &obs);
    obs
}

#[test]
fn same_seed_produces_byte_identical_exports() {
    let net = NetProfile::named("flaky")
        .expect("flaky profile registered")
        .with_fault_seed(7);
    let a = observed_run(42, net.clone());
    let b = observed_run(42, net);

    let ja = a.trace.journal();
    let jb = b.trace.journal();
    assert_eq!(ja.json_lines(), jb.json_lines());
    assert_eq!(ja.chrome_trace(), jb.chrome_trace());

    // The deterministic metric surface (everything except wall-clock-unit
    // metrics) and its Prometheus rendering match exactly.
    assert_eq!(
        a.metrics.snapshot().deterministic(),
        b.metrics.snapshot().deterministic()
    );
    assert_eq!(
        a.metrics.snapshot().prometheus(),
        b.metrics.snapshot().prometheus()
    );
}

#[test]
fn divergent_fault_seeds_diverge_in_retry_counters() {
    let flaky = NetProfile::named("flaky").expect("flaky profile registered");
    let a = observed_run(42, flaky.clone().with_fault_seed(7));
    let b = observed_run(42, flaky.with_fault_seed(8));

    let ra = a.metrics.snapshot().counter("transport.retries");
    let rb = b.metrics.snapshot().counter("transport.retries");
    assert!(
        ra > 0 && rb > 0,
        "flaky runs retry at least once (got {ra} and {rb})"
    );
    assert_ne!(
        ra, rb,
        "different fault seeds must produce different network weather"
    );
}

#[test]
fn journal_covers_every_crawl_batch_and_stage() {
    let config = StudyConfig::tiny(42);
    let world = World::build(config.world.clone());
    let obs = ObsContext::new();
    let _results = Study::run_on_observed(&world, &config, &obs);
    let journal = obs.trace.journal();
    assert_eq!(journal.dropped, 0, "nothing hit the shard cap");

    // Layer roots.
    assert_eq!(journal.count_named("collect"), 1);
    assert_eq!(journal.count_named("analyze"), 1);
    assert_eq!(journal.count_named("corpus.compile"), 1);
    assert_eq!(journal.count_named("context.build"), 1);

    // Every planned crawl records exactly one span: the tiny plan covers
    // Spain (porn + regular), USA and Russia OpenWPM sweeps plus the four
    // gate-country Selenium crawls.
    for crawl in [
        "crawl.openwpm.es.porn",
        "crawl.openwpm.es.regular",
        "crawl.openwpm.us.porn",
        "crawl.openwpm.ru.porn",
        "crawl.selenium.es",
        "crawl.selenium.us",
        "crawl.selenium.gb",
        "crawl.selenium.ru",
    ] {
        assert_eq!(journal.count_named(crawl), 1, "{crawl} span recorded");
    }

    // Crawl spans hang under the collect root; visit batches under crawls.
    let collect_id = journal.find("collect").expect("collect root").id;
    let crawl_es = journal
        .find("crawl.openwpm.es.porn")
        .expect("main crawl span");
    assert_eq!(crawl_es.parent, collect_id);
    let batches: Vec<_> = journal
        .spans
        .iter()
        .filter(|s| s.name.starts_with("visits."))
        .collect();
    assert!(!batches.is_empty(), "visit batches recorded");
    let crawl_ids: Vec<u64> = journal
        .spans
        .iter()
        .filter(|s| s.name.starts_with("crawl."))
        .map(|s| s.id)
        .collect();
    assert!(batches.iter().all(|b| crawl_ids.contains(&b.parent)));

    // Every analysis stage records exactly one span, parented on the
    // analyze root.
    let analyze_id = journal.find("analyze").expect("analyze root").id;
    for stage in STAGES {
        let name = format!("stage.{stage}");
        let span = journal
            .spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} span recorded"));
        assert_eq!(span.parent, analyze_id, "{name} hangs under analyze");
    }

    // Chrome trace export stays balanced (one B and one E per span).
    let trace = journal.chrome_trace();
    let begins = trace.matches("\"ph\":\"B\"").count();
    let ends = trace.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, journal.len());
    assert_eq!(begins, ends);
}

#[test]
fn observed_results_match_unobserved_results() {
    // Observability must be a pure tap: the summary a journaled run
    // renders is byte-identical to the default path's.
    let config = StudyConfig::tiny(42);
    let world = World::build(config.world.clone());
    let plain = Study::run_on(&world, &config);
    let observed = Study::run_on_observed(&world, &config, &ObsContext::new());
    assert_eq!(plain.render_summary(), observed.render_summary());
}

#[test]
fn stage_subset_journals_the_same_analyze_tree_as_a_full_run() {
    // What `reproduce --stage cookies` runs: collection, then the analysis
    // layer restricted to the selection.
    let config = StudyConfig::tiny(42);
    let world = World::build(config.world.clone());
    let obs = ObsContext::new();
    let (db, _) = Study::collect_db_observed(&world, &config, &obs);
    let selected = stages::expand_selection(&["cookies".to_string()]).expect("known stage");
    let (outputs, report, _) = Study::analyze(&world, &config, &db, &selected, &obs);
    assert!(outputs.cookies.get().is_some());
    assert_eq!(report.stages.len(), 1);

    let journal = obs.trace.journal();
    assert_eq!(journal.count_named("analyze"), 1);
    let analyze = journal.find("analyze").expect("analyze root");
    assert_eq!(analyze.parent, 0, "analyze is a root span");
    for child in ["context.build", "stage.cookies"] {
        assert_eq!(journal.count_named(child), 1, "{child} recorded once");
        let span = journal.find(child).expect("recorded");
        assert_eq!(span.parent, analyze.id, "{child} hangs under analyze");
    }
    assert_eq!(
        journal
            .spans
            .iter()
            .filter(|s| s.name.starts_with("stage."))
            .count(),
        1,
        "only the selected stage runs"
    );
}
