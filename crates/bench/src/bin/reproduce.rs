//! Regenerates every table and figure of the paper in one run.
//!
//! ```sh
//! cargo run --release -p redlight-bench --bin reproduce            # small scale (~20× down)
//! cargo run --release -p redlight-bench --bin reproduce -- --paper # full paper scale
//! cargo run --release -p redlight-bench --bin reproduce -- --seed 7
//! cargo run --release -p redlight-bench --bin reproduce -- --timings
//! cargo run --release -p redlight-bench --bin reproduce -- --stage cookies --stage https
//! cargo run --release -p redlight-bench --bin reproduce -- --net-profile flaky --fault-seed 7
//! cargo run --release -p redlight-bench --bin reproduce -- --trace out.json --metrics out.prom
//! cargo run --release -p redlight-bench --bin reproduce -- --shards 4 --timings
//! cargo run --release -p redlight-bench --bin reproduce -- --sites-scale 4
//! cargo run --release -p redlight-bench --bin reproduce -- --traffic 1000000
//! ```
//!
//! Prints the rendered tables/figures followed by the paper-vs-measured
//! comparison table that EXPERIMENTS.md records. `--timings` appends the
//! pipeline instrumentation (per-crawl and per-stage wall times with record
//! counts, plus transport counters when the network profile meters);
//! `--timings --json` prints it as JSON instead of tables.
//! `--stage <name>` (repeatable) runs only the named analysis stages —
//! dependencies are pulled in automatically — and prints their one-line
//! summaries plus timings instead of the full report. `--net-profile <name>`
//! selects the network the crawls run over (`default`, `direct`, `flaky`,
//! `lossy`); `--fault-seed <n>` re-seeds the profile's fault injector so a
//! fixed seed replays the exact same network weather.
//!
//! `--shards <n>` fans the decomposable analysis stages over `n`
//! contiguous visit-range shards (map/reduce; results are byte-identical
//! to the one-shard run) and, with `--timings`, appends per-crawl shard
//! statistics. `--sites-scale <n>` grows every world population `n`× while
//! keeping the paper's proportions — the paper-vs-measured comparison
//! rescales accordingly. Both reject `0`.
//!
//! Observability exports (any of these turns journaling on; same seed ⇒
//! byte-identical files):
//!
//! * `--trace <path>` — Chrome `trace_event` JSON, loadable in Perfetto.
//!   Deterministic counters and gauges additionally export as counter
//!   (`"C"`) tracks, and a `--traffic` timeline adds its windowed series
//!   as a second counter process.
//! * `--trace-events <path>` — the span journal as JSON lines.
//! * `--metrics <path>` — Prometheus-style text exposition of every counter.
//! * `--collect-only` — stop after the collection layer (no analysis);
//!   useful for fast smoke runs of the exporters.
//!
//! `--traffic <sessions>` runs the discrete-event traffic workload instead
//! of the study: `<sessions>` seeded visitor sessions walk the world's porn
//! sites on a simulated clock (service times, per-host connection limits,
//! FIFO queueing; faults and retries when the profile injects them),
//! reporting logical throughput and latency percentiles from the `obs`
//! histograms. The report is deterministic — same seed ⇒ byte-identical —
//! with real wall time on stderr only. Honors `--seed`, `--net-profile`,
//! `--fault-seed`, `--sites-scale`; `--timings` appends the per-tier
//! "Traffic layer" table; the export flags write the traffic journal.
//!
//! Timeline telemetry (`--traffic` only):
//!
//! * `--timeline <path>` — record windowed metric series over logical time
//!   and write them as JSON lines to `<path>` plus a plot-ready CSV
//!   sibling (`<path>` with its extension swapped for `.csv`). The file
//!   also carries SLO transition lines and a flight-recorder summary.
//! * `--timeline-window <ms>` — window width in logical milliseconds
//!   (default 1000).
//! * `--timings` — additionally prints the timeline sparkline summary
//!   (and enables sampling even without `--timeline`).

use redlight_core::results::StageReport;
use redlight_core::{stages, Study, StudyConfig};
use redlight_net::transport::NetProfile;
use redlight_obs::{ObsContext, Timeline};
use redlight_report::paper;
use redlight_sim::{run_traffic, TimelineSpec, TrafficConfig};
use redlight_websim::World;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let paper_scale = args.iter().any(|a| a == "--paper");
    let timings = args.iter().any(|a| a == "--timings");
    let json = args.iter().any(|a| a == "--json");
    let collect_only = args.iter().any(|a| a == "--collect-only");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2019u64);
    let requested: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--stage")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
    let net_profile = args
        .iter()
        .position(|a| a == "--net-profile")
        .and_then(|i| args.get(i + 1));
    let fault_seed: Option<u64> = args
        .iter()
        .position(|a| a == "--fault-seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok());
    let path_arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let trace_out = path_arg("--trace");
    let events_out = path_arg("--trace-events");
    let metrics_out = path_arg("--metrics");
    let timeline_out = path_arg("--timeline");
    // Window width in logical milliseconds; absent ⇒ 1 s windows.
    let timeline_window_ms: u64 = match args.iter().position(|a| a == "--timeline-window") {
        None => 1_000,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
            Some(n) if n > 0 => n,
            _ => {
                eprintln!("--timeline-window expects a positive millisecond count");
                std::process::exit(2);
            }
        },
    };
    // Positive-count flags: absent ⇒ 1, `0` or unparsable ⇒ usage error.
    let count_arg = |flag: &str| -> usize {
        match args.iter().position(|a| a == flag) {
            None => 1,
            Some(i) => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => n,
                _ => {
                    eprintln!("{flag} expects a positive integer");
                    std::process::exit(2);
                }
            },
        }
    };
    let shards = count_arg("--shards");
    let sites_scale = count_arg("--sites-scale");
    // `--traffic <sessions>`: absent ⇒ study mode; `0` ⇒ usage error.
    let traffic: Option<u64> = match args.iter().position(|a| a == "--traffic") {
        None => None,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
            Some(n) if n > 0 => Some(n),
            _ => {
                eprintln!("--traffic expects a positive session count");
                std::process::exit(2);
            }
        },
    };

    let mut config = if paper_scale {
        StudyConfig::paper_scale(seed)
    } else {
        StudyConfig::small(seed)
    };
    if let Some(name) = net_profile {
        config.net = match NetProfile::named(name) {
            Some(profile) => profile,
            None => {
                eprintln!(
                    "unknown net profile {name:?}; known profiles: {}",
                    NetProfile::NAMES.join(", ")
                );
                std::process::exit(2);
            }
        };
    }
    if let Some(fault_seed) = fault_seed {
        config.net = config.net.with_fault_seed(fault_seed);
    }
    config.world = config.world.scaled(sites_scale);
    // Counts grow with the corpus, so the paper comparison divides the
    // base world-size factor by the multiplicative growth.
    let scale = if paper_scale { 1.0 } else { 20.0 } / sites_scale as f64;

    // Journaling is opt-in: without an export flag the study runs over the
    // disabled (zero-overhead) observability context.
    let obs = if trace_out.is_some() || events_out.is_some() || metrics_out.is_some() {
        ObsContext::new()
    } else {
        ObsContext::disabled()
    };

    if let Some(sessions) = traffic {
        run_traffic_mode(
            sessions,
            seed,
            &config,
            timings,
            &trace_out,
            &events_out,
            &metrics_out,
            &timeline_out,
            timeline_window_ms,
        );
        return;
    }
    if timeline_out.is_some() {
        eprintln!("--timeline requires --traffic <sessions>");
        std::process::exit(2);
    }

    eprintln!(
        "running the {} study (seed {seed})…",
        if paper_scale {
            "PAPER-SCALE"
        } else {
            "small-scale (1/20)"
        }
    );
    let t0 = std::time::Instant::now();

    if collect_only {
        let world = World::build(config.world.clone());
        let (db, crawl_timings) = Study::collect_db_observed(&world, &config, &obs);
        eprintln!(
            "collected {} crawls, {} interaction records in {:?}",
            db.crawls().len(),
            db.interactions().len(),
            t0.elapsed()
        );
        if timings {
            let report = StageReport {
                crawls: crawl_timings,
                stages: Vec::new(),
                shards: stages::shard_stats(&db, shards),
            };
            print_timings(&report, json);
        }
        export_obs(&obs, &trace_out, &events_out, &metrics_out, None);
        return;
    }

    if !requested.is_empty() {
        run_stages(&config, &requested, timings, json, &obs, shards);
        eprintln!("done in {:?}", t0.elapsed());
        export_obs(&obs, &trace_out, &events_out, &metrics_out, None);
        return;
    }

    let world = World::build(config.world.clone());
    let results = Study::run_on_sharded_observed(&world, &config, &obs, shards);
    eprintln!("done in {:?}", t0.elapsed());

    println!("{}", results.render_summary());
    println!(
        "{}",
        paper::render_comparisons("Paper vs measured", &results.comparisons(scale))
    );
    if timings {
        print_timings(&results.stage_report, json);
    }
    export_obs(&obs, &trace_out, &events_out, &metrics_out, None);
}

/// `--traffic` mode: the discrete-event traffic workload instead of the
/// study. Always runs over an enabled observability context — the report's
/// percentiles come from the registry histograms — but everything printed
/// to stdout is logical, so same seed ⇒ byte-identical output.
#[allow(clippy::too_many_arguments)]
fn run_traffic_mode(
    sessions: u64,
    seed: u64,
    config: &StudyConfig,
    timings: bool,
    trace_out: &Option<String>,
    events_out: &Option<String>,
    metrics_out: &Option<String>,
    timeline_out: &Option<String>,
    timeline_window_ms: u64,
) {
    // Timeline sampling rides along whenever something will consume it: a
    // `--timeline` file or the `--timings` sparkline summary.
    let timeline_spec = (timeline_out.is_some() || timings)
        .then(|| TimelineSpec::with_window(std::time::Duration::from_millis(timeline_window_ms)));
    let traffic_config = TrafficConfig {
        sessions,
        seed,
        world: config.world.clone(),
        net: config.net.clone(),
        timeline: timeline_spec,
    };
    eprintln!("simulating {sessions} visitor sessions (seed {seed})…");
    let obs = ObsContext::new();
    let report = run_traffic(&traffic_config, &obs);
    eprintln!(
        "delivered {} kernel events in {:?} (wall)",
        report.events, report.wall
    );
    print!("{}", report.render());
    if timings {
        println!("\n{}", report.render_table());
        if let Some(tl) = &report.timeline {
            println!("\n{}", tl.render());
        }
    }
    if let (Some(path), Some(tl)) = (timeline_out, &report.timeline) {
        write_or_die(path, &tl.json_lines());
        let csv_path = match path.rsplit_once('.') {
            Some((stem, _)) => format!("{stem}.csv"),
            None => format!("{path}.csv"),
        };
        write_or_die(&csv_path, &tl.csv());
        eprintln!(
            "wrote timeline ({} windows) to {path} + {csv_path}",
            tl.timeline.windows().len()
        );
    }
    export_obs(
        &obs,
        trace_out,
        events_out,
        metrics_out,
        report.timeline.as_ref().map(|tl| &tl.timeline),
    );
}

/// `--stage` mode: collect the DB once, run only the selected stages.
fn run_stages(
    config: &StudyConfig,
    requested: &[String],
    timings: bool,
    json: bool,
    obs: &ObsContext,
    shards: usize,
) {
    let selected = match stages::expand_selection(requested) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "stages: {}",
        selected.iter().copied().collect::<Vec<_>>().join(", ")
    );

    let world = World::build(config.world.clone());
    let (db, crawl_timings) = Study::collect_db_observed(&world, config, obs);
    let (outputs, mut report, _) = Study::analyze(&world, config, &db, &selected, obs, shards);

    for (name, line) in outputs.summaries() {
        println!("{name:<16} {line}");
    }
    if timings {
        report.crawls = crawl_timings;
        print_timings(&report, json);
    }
}

/// Prints the timing report, as tables or (`--json`) as JSON.
fn print_timings(report: &StageReport, json: bool) {
    if json {
        println!("{}", report.to_json());
    } else {
        println!("\n{}", report.render());
    }
}

/// Writes whichever observability exports were requested. With a traffic
/// timeline the Chrome trace also carries counter ("C") tracks for the
/// deterministic registry metrics and the timeline's windowed series.
fn export_obs(
    obs: &ObsContext,
    trace: &Option<String>,
    events: &Option<String>,
    metrics: &Option<String>,
    timeline: Option<&Timeline>,
) {
    if !obs.is_enabled() {
        return;
    }
    let journal = obs.trace.journal();
    if let Some(path) = trace {
        let counters = obs.metrics.snapshot();
        write_or_die(path, &journal.chrome_trace_with(Some(&counters), timeline));
        eprintln!(
            "wrote Chrome trace ({} spans) to {path} — load it at ui.perfetto.dev",
            journal.len()
        );
    }
    if let Some(path) = events {
        write_or_die(path, &journal.json_lines());
        eprintln!("wrote span journal ({} events) to {path}", journal.len());
    }
    if let Some(path) = metrics {
        let text = obs.metrics.snapshot().prometheus();
        write_or_die(path, &text);
        eprintln!("wrote metrics exposition to {path}");
    }
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}
