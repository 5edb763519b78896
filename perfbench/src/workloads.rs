//! The three workloads, each in an untraced form (end-to-end metrics) and
//! a traced form (per-layer metrics from spans around every public call).

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use redlight_analysis::ats::AtsClassifier;
use redlight_core::results::StageReport;
use redlight_core::stages::{self, AnalysisContext, StageObs, StageOutputs, STAGES};
use redlight_core::{Study, StudyConfig};
use redlight_crawler::db::MeasurementDb;
use redlight_crawler::{CorpusCompiler, CrawlTiming};
use redlight_net::transport::{NetProfile, SimSpec, TransportStats};
use redlight_obs::ObsContext;
use redlight_sim::{run_traffic, TimelineSpec, TrafficConfig, TrafficReport};
use redlight_websim::World;

use crate::expected::{digest, Expected, Verdict};
use crate::measure::{
    cpu_seconds, lower_quartile, median, peak_rss_mib, ratio, restart_peak_rss, Metrics, Spans,
};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["study", "reanalyze-sharded", "traffic-flaky"];

/// The caches `AnalysisContext::cache_counters` reports, in its order.
const CACHES: [&str; 6] = [
    "etld1-hosts",
    "ats-url-verdicts",
    "ats-fqdn-verdicts",
    "ats-prefilter",
    "ats-batch-dedup",
    "thirdparty-extracts",
];

/// Seed of the world the traffic workload browses.
const TRAFFIC_WORLD_SEED: u64 = 2019;

/// Workload sizes: the benchmark of record, or tiny smoke sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub name: &'static str,
    smoke: bool,
    study_scale: usize,
    reanalyze_scale: usize,
    shards: usize,
    sessions: u64,
    setup_reps: usize,
    reanalyze_setup_reps: usize,
}

impl Size {
    pub const FULL: Size = Size {
        name: "full",
        smoke: false,
        study_scale: 4,
        reanalyze_scale: 8,
        shards: 8,
        sessions: 250_000,
        setup_reps: 11,
        reanalyze_setup_reps: 3,
    };

    pub const SMOKE: Size = Size {
        name: "smoke",
        smoke: true,
        study_scale: 1,
        reanalyze_scale: 1,
        shards: 3,
        sessions: 2_000,
        setup_reps: 1,
        reanalyze_setup_reps: 1,
    };

    /// The same size with one setup per run (for `--record`).
    pub fn single_setup(self) -> Size {
        Size {
            setup_reps: 1,
            reanalyze_setup_reps: 1,
            ..self
        }
    }

    /// The same size with the `study` world grown `scale`× instead of 4×,
    /// for scaling comparisons. Its outputs are not recorded.
    pub fn with_study_scale(self, scale: usize) -> Size {
        Size {
            name: Box::leak(format!("scale{scale}").into_boxed_str()),
            study_scale: scale,
            ..self
        }
    }

    fn base(&self, seed: u64) -> StudyConfig {
        if self.smoke {
            StudyConfig::tiny(seed)
        } else {
            StudyConfig::small(seed)
        }
    }

    /// `reproduce --sites-scale 4`: default profile.
    fn study(&self, seed: u64) -> StudyConfig {
        let mut config = self.base(seed);
        config.world = config.world.scaled(self.study_scale);
        config
    }

    /// `reproduce --sites-scale 8 --net-profile flaky`.
    fn reanalyze(&self, seed: u64) -> StudyConfig {
        let mut config = self.base(seed);
        config.world = config.world.scaled(self.reanalyze_scale);
        config.net = NetProfile::named("flaky").expect("flaky profile exists");
        config
    }

    /// `reproduce --traffic N --net-profile flaky --timings`: the flaky
    /// profile with the default service model and 1000 ms windows. The web
    /// under load is fixed (the seed-2019 world); the seed drives the
    /// visitors: arrivals, site choices, page counts, dwell and faults. A
    /// seed-dependent world would swing the backlog, and with it wall time
    /// and memory, by more than the bounds allow.
    fn traffic(&self, seed: u64) -> TrafficConfig {
        let net = NetProfile::named("flaky")
            .expect("flaky profile exists")
            .with_sim(SimSpec::default());
        TrafficConfig {
            sessions: self.sessions,
            seed,
            world: self.base(TRAFFIC_WORLD_SEED).world,
            net,
            timeline: Some(TimelineSpec::with_window(Duration::from_millis(1000))),
            ..TrafficConfig::new(self.sessions)
        }
    }
}

/// One run's parameters.
pub struct Run<'a> {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub expected: &'a Expected,
}

/// What a run measured and checked.
pub struct Outcome {
    pub metrics: Metrics,
    /// Output checks made, and how many failed.
    pub checks: u64,
    pub failed_checks: u64,
    /// The first checked iteration's outputs (what `--record` prints).
    pub observed: Vec<(String, String)>,
    /// Spans of a traced run.
    pub spans: Option<Spans>,
}

/// Checks outputs against the recorded table and counts the results.
struct Checker<'a> {
    run: &'a Run<'a>,
    checks: u64,
    failed: u64,
    observed: Vec<(String, String)>,
    warned: bool,
}

impl<'a> Checker<'a> {
    fn new(run: &'a Run<'a>) -> Self {
        Checker {
            run,
            checks: 0,
            failed: 0,
            observed: Vec::new(),
            warned: false,
        }
    }

    /// Checks one iteration's outputs. `invariant(key)` is a check that
    /// holds whether or not the seed is recorded. Returns, per output,
    /// whether it passed; the iteration counts as one failed check if any
    /// output failed.
    fn check(
        &mut self,
        outputs: &[(String, String)],
        invariant: impl Fn(&str) -> bool,
    ) -> Vec<bool> {
        if self.observed.is_empty() {
            self.observed = outputs.to_vec();
        }
        let run = self.run;
        let passed: Vec<bool> = outputs
            .iter()
            .map(|(key, value)| {
                let verdict = run
                    .expected
                    .check(run.workload, run.size.name, run.seed, key, value);
                if verdict == Verdict::Unrecorded && !self.warned {
                    self.warned = true;
                    eprintln!(
                        "perfbench: no recorded outputs for {} seed {}; checking invariants only",
                        run.workload, run.seed
                    );
                }
                if verdict == Verdict::Mismatch {
                    eprintln!("perfbench: {key} = {value} differs from the recorded value");
                }
                let holds = invariant(key);
                if !holds {
                    eprintln!("perfbench: invariant broken for {key} = {value}");
                }
                verdict != Verdict::Mismatch && holds
            })
            .collect();
        self.checks += 1;
        if passed.iter().any(|ok| !ok) {
            self.failed += 1;
        }
        passed
    }

    fn finish(self, metrics: Metrics, spans: Option<Spans>) -> Outcome {
        Outcome {
            metrics,
            checks: self.checks,
            failed_checks: self.failed,
            observed: self.observed,
            spans,
        }
    }
}

/// Runs `f` `reps` times, keeping the last result and the median seconds.
fn repeated_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    eprintln!("perfbench: set-up seconds {times:.3?}");
    (last.expect("at least one setup"), median(&times))
}

/// One run's timed iterations summed up: wall and CPU as lower quartiles,
/// peak RSS as a median. The host's speed swings by tens of percent over
/// seconds and contention only ever adds time, so the faster iterations
/// estimate the program's cost more steadily than the median does.
struct Timed {
    wall: f64,
    cpu: f64,
    peak_rss: f64,
}

/// Repeats `body` (at least once) for as many iterations as bring the
/// loop's length closest to `seconds`: another iteration starts while the
/// time left exceeds half the last one. `body` returns the wall and CPU
/// seconds it measured; the peak RSS of each iteration is taken around it.
fn timed_loop(seconds: f64, mut body: impl FnMut() -> (f64, f64)) -> Timed {
    let (mut walls, mut cpus, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut last = 0.0;
    while walls.is_empty() || start.elapsed().as_secs_f64() + last / 2.0 < seconds {
        let began = Instant::now();
        restart_peak_rss();
        let (wall, cpu) = body();
        peaks.push(peak_rss_mib());
        eprintln!(
            "perfbench: iteration {}: wall {wall:.3} s, cpu {cpu:.2} s, peak {:.1} MiB",
            walls.len() + 1,
            peaks[peaks.len() - 1]
        );
        walls.push(wall);
        cpus.push(cpu);
        last = began.elapsed().as_secs_f64();
    }
    Timed {
        wall: lower_quartile(&walls),
        cpu: lower_quartile(&cpus),
        peak_rss: median(&peaks),
    }
}

fn end_to_end(timed: Timed, setup: f64, attempted: u64, failed: u64) -> Metrics {
    let mut m = Metrics::default();
    m.set("wall_s", timed.wall, "s");
    m.set("cpu_s", timed.cpu, "s");
    m.set("setup_s", setup, "s");
    m.set("peak_rss_mib", timed.peak_rss, "MiB");
    m.set(
        "fail_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    m
}

/// Runs one workload.
pub fn run(run: &Run<'_>, traced: bool) -> Outcome {
    match (run.workload, traced) {
        ("study", false) => study(run),
        ("study", true) => traced_study(run),
        ("reanalyze-sharded", false) => reanalyze(run),
        ("reanalyze-sharded", true) => traced_reanalyze(run),
        ("traffic-flaky", false) => traffic(run),
        ("traffic-flaky", true) => traced_traffic(run),
        (other, _) => unreachable!("unknown workload {other}"),
    }
}

// ---- study -------------------------------------------------------------

fn crawl_totals(timings: &[CrawlTiming]) -> (u64, u64) {
    let visits = timings.iter().map(|t| t.sites as u64).sum();
    let failed = timings.iter().map(|t| t.failures).sum();
    (visits, failed)
}

/// Setup: `World::build`. Timed: `Study::run_on` + `render_summary`.
/// `fail_ratio` counts visits; a wrong summary fails every visit.
fn study(run: &Run<'_>) -> Outcome {
    let config = run.size.study(run.seed);
    let (world, setup) = repeated_setup(run.size.setup_reps, || World::build(config.world.clone()));
    let mut checker = Checker::new(run);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let timed = timed_loop(run.seconds, || {
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let results = black_box(Study::run_on(&world, &config));
        let summary = results.render_summary();
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), cpu_seconds() - c0);
        let (visits, failures) = crawl_totals(&results.stage_report.crawls);
        let ok = checker.check(&[("summary".to_owned(), digest(&summary))], |_| {
            !summary.is_empty()
        })[0];
        attempted += visits;
        failed += if ok { failures } else { visits };
        (wall, cpu)
    });
    let metrics = end_to_end(timed, setup, attempted, failed);
    checker.finish(metrics, None)
}

// ---- reanalyze-sharded -------------------------------------------------

/// Per-stage summary-line digests plus the digest of the whole rendered
/// summary.
fn analysis_outputs(outputs: StageOutputs, ctx: &AnalysisContext<'_>) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = outputs
        .summaries()
        .into_iter()
        .map(|(name, line)| (name.to_owned(), digest(&line)))
        .collect();
    let results = outputs.into_results(ctx.best_ranks.clone(), StageReport::default());
    out.push(("summary".to_owned(), digest(&results.render_summary())));
    out
}

fn db_visits(db: &MeasurementDb) -> (u64, u64) {
    let visits = db.crawls().iter().map(|c| c.visits.len() as u64).sum();
    let failed = db
        .crawls()
        .iter()
        .flat_map(|c| &c.visits)
        .filter(|v| !v.visit.success)
        .count() as u64;
    (visits, failed)
}

/// Setup: `World::build` + `Study::collect_db` (flaky). Timed:
/// `AnalysisContext::build_sharded(.., 8)` + `stages::run(all_stages())`.
/// `fail_ratio` counts visit reads: each stage reads every stored visit; a
/// read fails when the stored visit failed, or when its stage's output is
/// wrong (a wrong whole summary fails every stage).
fn reanalyze(run: &Run<'_>) -> Outcome {
    let config = run.size.reanalyze(run.seed);
    let ((world, db), setup) = repeated_setup(run.size.reanalyze_setup_reps, || {
        let world = World::build(config.world.clone());
        let (db, _) = Study::collect_db(&world, &config);
        (world, db)
    });
    let all = stages::all_stages();
    let monolith = {
        let ctx = AnalysisContext::build_sharded(&world, &config, &db, 1);
        let (outputs, _) = stages::run(&db, &ctx, &all);
        analysis_outputs(outputs, &ctx)
    };
    let (visits, failures) = db_visits(&db);
    let mut checker = Checker::new(run);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let timed = timed_loop(run.seconds, || {
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let ctx = AnalysisContext::build_sharded(&world, &config, &db, run.size.shards);
        let (outputs, _) = black_box(stages::run(&db, &ctx, &all));
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), cpu_seconds() - c0);
        let observed = analysis_outputs(outputs, &ctx);
        let passed = checker.check(&observed, |key| {
            let mine = observed.iter().find(|(k, _)| k == key);
            mine.is_some() && mine == monolith.iter().find(|(k, _)| k == key)
        });
        let summary_ok = observed
            .iter()
            .zip(&passed)
            .any(|((key, _), ok)| key == "summary" && *ok);
        for ((key, _), ok) in observed.iter().zip(&passed) {
            if key != "summary" {
                attempted += visits;
                failed += if *ok && summary_ok { failures } else { visits };
            }
        }
        (wall, cpu)
    });
    let metrics = end_to_end(timed, setup, attempted, failed);
    checker.finish(metrics, None)
}

// ---- traffic-flaky -----------------------------------------------------

fn traffic_counts(r: &TrafficReport) -> String {
    format!(
        "{},{},{},{},{},{},{}",
        r.sessions, r.completed, r.failed, r.requests, r.failed_requests, r.retries, r.events
    )
}

fn check_traffic(checker: &mut Checker<'_>, r: &TrafficReport) -> bool {
    checker.check(&[("counts".to_owned(), traffic_counts(r))], |_| {
        r.completed + r.failed == r.sessions && r.failed_requests <= r.requests
    })[0]
}

/// Setup: world build + harvest, i.e. a `run_traffic` of one session minus
/// its kernel time. Timed: the kernel's host time (`TrafficReport::wall`).
/// `cpu_s` is the CPU of a full `run_traffic` minus the median CPU of the
/// one-session setup runs. `fail_ratio` counts requests; wrong counts fail
/// every request.
fn traffic(run: &Run<'_>) -> Outcome {
    let config = run.size.traffic(run.seed);
    let setup_config = TrafficConfig {
        sessions: 1,
        ..config.clone()
    };
    let (mut setups, mut setup_cpus) = (Vec::new(), Vec::new());
    for _ in 0..run.size.setup_reps {
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let r = run_traffic(&setup_config, &ObsContext::new());
        setups.push((t0.elapsed() - r.wall).as_secs_f64());
        setup_cpus.push(cpu_seconds() - c0);
    }
    eprintln!("perfbench: set-up seconds {setups:.3?}");
    let setup_cpu = median(&setup_cpus);
    let mut checker = Checker::new(run);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let timed = timed_loop(run.seconds, || {
        let c0 = cpu_seconds();
        let r = black_box(run_traffic(&config, &ObsContext::new()));
        let cpu = (cpu_seconds() - c0 - setup_cpu).max(0.0);
        let ok = check_traffic(&mut checker, &r);
        attempted += r.requests;
        failed += if ok { r.failed_requests } else { r.requests };
        (r.wall.as_secs_f64(), cpu)
    });
    let metrics = end_to_end(timed, median(&setups), attempted, failed);
    checker.finish(metrics, None)
}

// ---- traced runs -------------------------------------------------------

/// Every per-layer metric, zero until a traced run measures it. A layer a
/// workload never enters keeps its zero.
fn per_layer_template() -> Metrics {
    let mut m = Metrics::default();
    let fixed_head: [(&str, &'static str); 21] = [
        ("websim.build_s", "s"),
        ("crawler.corpus_compile_s", "s"),
        ("crawler.collect_s", "s"),
        ("crawler.openwpm.busy_s", "s"),
        ("crawler.selenium.busy_s", "s"),
        ("crawler.slowest_crawl_s", "s"),
        ("crawler.overlap", "ratio"),
        ("crawler.visits", "count"),
        ("crawler.retries", "count"),
        ("crawler.failed_visits", "count"),
        ("crawler.visits_per_busy_s", "1/s"),
        ("crawler.allocs_per_visit", "count"),
        ("net.requests", "count"),
        ("net.responses", "count"),
        ("net.unreachable", "count"),
        ("net.timeouts", "count"),
        ("net.kib", "KiB"),
        ("net.us_per_req", "us"),
        ("core.context_build_s", "s"),
        ("core.context_build_allocs", "count"),
        ("core.stages_s", "s"),
    ];
    for (name, unit) in fixed_head {
        m.set(name, 0.0, unit);
    }
    for stage in STAGES {
        m.set(&format!("core.stage.{stage}_s"), 0.0, "s");
    }
    for (name, unit) in [
        ("core.stage_overlap", "ratio"),
        ("core.stages_allocs", "count"),
        ("core.analyze_unsharded_s", "s"),
        ("core.shard_gain", "ratio"),
        ("analysis.ats.classify_batch_s", "s"),
        ("analysis.ats.requests", "count"),
    ] {
        m.set(name, 0.0, unit);
    }
    for cache in CACHES {
        m.set(&format!("cache.{cache}.hit_ratio"), 0.0, "ratio");
    }
    for (name, unit) in [
        ("report.render_s", "s"),
        ("sim.kernel_s", "s"),
        ("sim.harvest_s", "s"),
        ("sim.events", "count"),
        ("sim.events_per_s", "1/s"),
        ("sim.allocs_per_event", "count"),
        ("sim.requests", "count"),
        ("sim.failed_requests", "count"),
        ("sim.retries", "count"),
        ("sim.faults", "count"),
        ("sim.peak_in_flight", "count"),
        ("sim.peak_queue", "count"),
        ("sim.makespan_s", "s"),
        ("sim.request_p50_us", "us"),
        ("sim.request_p99_us", "us"),
        ("obs.timeline_overhead_pct", "%"),
        ("obs.timeline_windows", "count"),
        ("obs.slo_events", "count"),
        ("obs.flight_freezes", "count"),
        ("obs.flight_suppressed", "count"),
        ("obs.trace_overhead_pct", "%"),
        ("obs.spans", "count"),
        ("obs.spans_dropped", "count"),
    ] {
        m.set(name, 0.0, unit);
    }
    m
}

/// Collection-layer metrics from the crawl timings and the collect span.
fn crawler_metrics(m: &mut Metrics, timings: &[CrawlTiming], collect_s: f64, collect_allocs: u64) {
    let busy = |crawler: &str| -> f64 {
        timings
            .iter()
            .filter(|t| t.crawler == crawler)
            .map(|t| t.wall.as_secs_f64())
            .sum()
    };
    let total_busy: f64 = timings.iter().map(|t| t.wall.as_secs_f64()).sum();
    let (visits, failed) = crawl_totals(timings);
    let retries: u64 = timings.iter().map(|t| t.retries).sum();
    m.set("crawler.collect_s", collect_s, "s");
    m.set("crawler.openwpm.busy_s", busy("openwpm"), "s");
    m.set("crawler.selenium.busy_s", busy("selenium"), "s");
    let slowest = timings
        .iter()
        .map(|t| t.wall.as_secs_f64())
        .fold(0.0, f64::max);
    m.set("crawler.slowest_crawl_s", slowest, "s");
    m.set("crawler.overlap", ratio(total_busy, collect_s), "ratio");
    m.set("crawler.visits", visits as f64, "count");
    m.set("crawler.retries", retries as f64, "count");
    m.set("crawler.failed_visits", failed as f64, "count");
    m.set(
        "crawler.visits_per_busy_s",
        ratio(visits as f64, total_busy),
        "1/s",
    );
    m.set(
        "crawler.allocs_per_visit",
        ratio(collect_allocs as f64, visits as f64),
        "count",
    );

    let mut net = TransportStats::default();
    for stats in timings.iter().filter_map(|t| t.net.as_ref()) {
        net.merge(stats);
    }
    m.set("net.requests", net.requests as f64, "count");
    m.set("net.responses", net.responses as f64, "count");
    m.set("net.unreachable", net.unreachable as f64, "count");
    m.set("net.timeouts", net.timeouts as f64, "count");
    m.set("net.kib", net.body_bytes as f64 / 1024.0, "KiB");
    m.set(
        "net.us_per_req",
        ratio(net.total_latency.as_secs_f64() * 1e6, net.requests as f64),
        "us",
    );
}

/// World, corpus compile and collection, each as its own span.
fn traced_collect(
    spans: &mut Spans,
    m: &mut Metrics,
    config: &StudyConfig,
) -> (World, MeasurementDb) {
    let (world, build_s) = spans.time("websim.build", || World::build(config.world.clone()));
    m.set("websim.build_s", build_s, "s");
    let (corpus, compile_s) = spans.time("crawler.corpus_compile", || {
        CorpusCompiler::new(&world).compile()
    });
    drop(black_box(corpus));
    m.set("crawler.corpus_compile_s", compile_s, "s");
    let ((db, timings), collect_s) =
        spans.time("crawler.collect", || Study::collect_db(&world, config));
    let collect_allocs = spans.last("crawler.collect").map_or(0, |s| s.allocs);
    crawler_metrics(m, &timings, collect_s, collect_allocs);
    (world, db)
}

/// Context build, batch classification, the full stage pass, cache hit
/// ratios and every stage alone. Stages run alone on the context the full
/// pass already warmed; a stage's self time is its run minus the run of
/// its dependencies alone.
fn traced_analysis(
    spans: &mut Spans,
    m: &mut Metrics,
    world: &World,
    db: &MeasurementDb,
    config: &StudyConfig,
    shards: usize,
) -> (Vec<(String, String)>, f64) {
    let (ctx, build_s) = spans.time("core.context_build", || {
        AnalysisContext::build_sharded(world, config, db, shards)
    });
    m.set("core.context_build_s", build_s, "s");
    let build_allocs = spans.last("core.context_build").map_or(0, |s| s.allocs);
    m.set("core.context_build_allocs", build_allocs as f64, "count");

    spans.open("analysis.ats.classify_batch");
    let classifier = AtsClassifier::from_lists(&world.easylist, &world.easyprivacy);
    let mut requests = 0usize;
    for crawl in db.crawls() {
        let (batch, _) = spans.time("analysis.ats.classify_batch.crawl", || {
            classifier.classify_batch(crawl.full())
        });
        requests += batch.total_requests;
    }
    let classify_s = spans.close().as_secs_f64();
    m.set("analysis.ats.classify_batch_s", classify_s, "s");
    m.set("analysis.ats.requests", requests as f64, "count");

    let all = stages::all_stages();
    let ((outputs, _), stages_s) = spans.time("core.stages", || stages::run(db, &ctx, &all));
    m.set("core.stages_s", stages_s, "s");
    let stages_allocs = spans.last("core.stages").map_or(0, |s| s.allocs);
    m.set("core.stages_allocs", stages_allocs as f64, "count");
    for counter in ctx.cache_counters() {
        let total = (counter.hits + counter.misses) as f64;
        m.set(
            &format!("cache.{}.hit_ratio", counter.name),
            ratio(counter.hits as f64, total),
            "ratio",
        );
    }

    let (render, render_s) = {
        let results = outputs.into_results(ctx.best_ranks.clone(), StageReport::default());
        spans.time("report.render", || results.render_summary())
    };
    m.set("report.render_s", render_s, "s");

    let mut self_total = 0.0;
    for stage in STAGES {
        let selected = stages::expand_selection(&[stage.to_owned()]).expect("known stage");
        let deps: BTreeSet<&'static str> =
            selected.iter().copied().filter(|s| *s != stage).collect();
        let deps_s = if deps.is_empty() {
            0.0
        } else {
            spans
                .time(&format!("core.stage.{stage}.deps"), || {
                    stages::run(db, &ctx, &deps)
                })
                .1
        };
        let (_, stage_s) = spans.time(&format!("core.stage.{stage}"), || {
            stages::run(db, &ctx, &selected)
        });
        let self_s = (stage_s - deps_s).max(0.0);
        self_total += self_s;
        m.set(&format!("core.stage.{stage}_s"), self_s, "s");
    }
    m.set("core.stage_overlap", ratio(self_total, stages_s), "ratio");
    (
        vec![("summary".to_owned(), digest(&render))],
        build_s + stages_s,
    )
}

/// Off/on pairs behind each overhead metric. The host's speed drifts over
/// tens of seconds, so each pair compares adjacent runs and the median
/// pair is reported.
const OVERHEAD_PAIRS: usize = 2;

/// Median percent cost of "on" over "off" across `(off, on)` pairs.
fn overhead_pct(pairs: &[(f64, f64)]) -> f64 {
    let pcts: Vec<f64> = pairs
        .iter()
        .map(|&(off, on)| 100.0 * ratio(on - off, off))
        .collect();
    median(&pcts)
}

fn obs_trace_metrics(m: &mut Metrics, pairs: &[(f64, f64)], obs: &ObsContext) {
    let journal = obs.trace.journal();
    m.set("obs.trace_overhead_pct", overhead_pct(pairs), "%");
    m.set("obs.spans", journal.len() as f64, "count");
    m.set("obs.spans_dropped", journal.dropped as f64, "count");
}

fn traced_study(run: &Run<'_>) -> Outcome {
    let config = run.size.study(run.seed);
    let mut spans = Spans::new();
    let mut m = per_layer_template();
    let mut checker = Checker::new(run);
    spans.open("workload.study");
    let (world, db) = traced_collect(&mut spans, &mut m, &config);
    let (outputs, _) = traced_analysis(&mut spans, &mut m, &world, &db, &config, 1);
    checker.check(&outputs, |_| true);
    drop(db);

    let mut pairs = Vec::new();
    let mut obs = ObsContext::new();
    for _ in 0..OVERHEAD_PAIRS {
        let (plain, off_s) = spans.time("obs.trace_off", || Study::run_on(&world, &config));
        obs = ObsContext::new();
        let (observed, on_s) = spans.time("obs.trace_on", || {
            Study::run_on_observed(&world, &config, &obs)
        });
        pairs.push((off_s, on_s));
        let plain = plain.render_summary();
        checker.check(&[("summary".to_owned(), digest(&plain))], |_| {
            plain == observed.render_summary()
        });
    }
    obs_trace_metrics(&mut m, &pairs, &obs);
    spans.close();
    checker.finish(m, Some(spans))
}

fn traced_reanalyze(run: &Run<'_>) -> Outcome {
    let config = run.size.reanalyze(run.seed);
    let shards = run.size.shards;
    let mut spans = Spans::new();
    let mut m = per_layer_template();
    let mut checker = Checker::new(run);
    spans.open("workload.reanalyze-sharded");
    let (world, db) = traced_collect(&mut spans, &mut m, &config);
    let (_, sharded_s) = traced_analysis(&mut spans, &mut m, &world, &db, &config, shards);

    let all = stages::all_stages();
    let analyze = |shards: usize| {
        let ctx = AnalysisContext::build_sharded(&world, &config, &db, shards);
        let (outputs, _) = stages::run(&db, &ctx, &all);
        (outputs, ctx)
    };
    let ((outputs, ctx), unsharded_s) = spans.time("core.analyze_unsharded", || analyze(1));
    let monolith = analysis_outputs(outputs, &ctx);
    drop(ctx);
    m.set("core.analyze_unsharded_s", unsharded_s, "s");
    m.set("core.shard_gain", ratio(unsharded_s, sharded_s), "ratio");

    let mut pairs = Vec::new();
    let mut obs = ObsContext::new();
    for _ in 0..OVERHEAD_PAIRS {
        let ((outputs, ctx), off_s) = spans.time("obs.trace_off", || analyze(shards));
        let sharded = analysis_outputs(outputs, &ctx);
        drop(ctx);
        checker.check(&sharded, |key| {
            sharded.iter().find(|(k, _)| k == key) == monolith.iter().find(|(k, _)| k == key)
        });
        obs = ObsContext::new();
        let (_, on_s) = spans.time("obs.trace_on", || {
            let ctx = AnalysisContext::build_sharded_in(&world, &config, &db, &obs.metrics, shards);
            let stage_obs = StageObs {
                trace: &obs.trace,
                metrics: &obs.metrics,
                parent: None,
            };
            let (outputs, _) = stages::run_observed(&db, &ctx, &all, &stage_obs);
            (outputs, ctx)
        });
        pairs.push((off_s, on_s));
    }
    obs_trace_metrics(&mut m, &pairs, &obs);
    spans.close();
    checker.finish(m, Some(spans))
}

fn traced_traffic(run: &Run<'_>) -> Outcome {
    let config = run.size.traffic(run.seed);
    let mut spans = Spans::new();
    let mut m = per_layer_template();
    let mut checker = Checker::new(run);
    spans.open("workload.traffic-flaky");
    let (world, build_s) = spans.time("websim.build", || World::build(config.world.clone()));
    drop(black_box(world));
    m.set("websim.build_s", build_s, "s");

    let setup_config = TrafficConfig {
        sessions: 1,
        ..config.clone()
    };
    let (setup, setup_s) = spans.time("sim.setup", || {
        run_traffic(&setup_config, &ObsContext::new())
    });
    let setup_allocs = spans.last("sim.setup").map_or(0, |s| s.allocs);
    let harvest_s = setup_s - setup.wall.as_secs_f64() - build_s;
    m.set("sim.harvest_s", harvest_s.max(0.0), "s");

    let (r, _) = spans.time("sim.run_traffic", || {
        run_traffic(&config, &ObsContext::new())
    });
    let run_allocs = spans.last("sim.run_traffic").map_or(0, |s| s.allocs);
    check_traffic(&mut checker, &r);
    let kernel_s = r.wall.as_secs_f64();
    m.set("sim.kernel_s", kernel_s, "s");
    m.set("sim.events", r.events as f64, "count");
    m.set("sim.events_per_s", ratio(r.events as f64, kernel_s), "1/s");
    m.set(
        "sim.allocs_per_event",
        ratio(
            run_allocs.saturating_sub(setup_allocs) as f64,
            r.events as f64,
        ),
        "count",
    );
    m.set("sim.requests", r.requests as f64, "count");
    m.set("sim.failed_requests", r.failed_requests as f64, "count");
    m.set("sim.retries", r.retries as f64, "count");
    m.set("sim.faults", r.faults as f64, "count");
    m.set("sim.peak_in_flight", r.peak_in_flight as f64, "count");
    m.set("sim.peak_queue", r.peak_queue as f64, "count");
    m.set("sim.makespan_s", r.makespan.as_secs_f64(), "s");
    m.set("sim.request_p50_us", r.request_p50_us as f64, "us");
    m.set("sim.request_p99_us", r.request_p99_us as f64, "us");
    if let Some(tl) = &r.timeline {
        m.set(
            "obs.timeline_windows",
            tl.timeline.windows().len() as f64,
            "count",
        );
        m.set("obs.slo_events", tl.slo_events.len() as f64, "count");
        m.set("obs.flight_freezes", tl.flight_freezes as f64, "count");
        m.set(
            "obs.flight_suppressed",
            tl.flight_suppressed as f64,
            "count",
        );
    }

    let bare = TrafficConfig {
        timeline: None,
        ..config.clone()
    };
    let mut pairs = Vec::new();
    let mut on_s = kernel_s;
    for pair in 0..OVERHEAD_PAIRS {
        if pair > 0 {
            let (on, _) = spans.time("obs.timeline_on", || {
                run_traffic(&config, &ObsContext::new())
            });
            check_traffic(&mut checker, &on);
            on_s = on.wall.as_secs_f64();
        }
        let (off, _) = spans.time("obs.timeline_off", || {
            run_traffic(&bare, &ObsContext::new())
        });
        check_traffic(&mut checker, &off);
        pairs.push((off.wall.as_secs_f64(), on_s));
    }
    m.set("obs.timeline_overhead_pct", overhead_pct(&pairs), "%");
    spans.close();
    checker.finish(m, Some(spans))
}
