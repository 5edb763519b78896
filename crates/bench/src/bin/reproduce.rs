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
//! cargo run --release -p redlight-bench --bin reproduce -- --sites-scale 4
//! cargo run --release -p redlight-bench --bin reproduce -- --traffic 1000000
//! ```
//!
//! Prints the rendered tables/figures followed by the paper-vs-measured
//! comparison table that EXPERIMENTS.md records. Every argument is checked
//! before the world is built: `--help` prints the usage and exits 0; an
//! unknown argument, a missing value, one that does not parse, or a flag
//! that would do nothing in the chosen mode (`--json` without `--timings`,
//! `--stage` with `--traffic`, `--fault-seed` on a profile without
//! faults, …) prints the problem and the usage to stderr and exits 2.
//! `--timings` appends the pipeline instrumentation (per-crawl and
//! per-stage wall times with record counts, plus per-crawl transport
//! counters); `--timings --json` prints it as JSON instead of tables.
//! `--stage <name>` (repeatable) runs only the named analysis stages —
//! dependencies are pulled in automatically — and prints their one-line
//! summaries plus timings instead of the full report. `--net-profile <name>`
//! selects the network the crawls run over (`default`, `flaky`, `lossy`;
//! any other name exits 2); `--fault-seed <n>` re-seeds the profile's
//! fault injector so a fixed seed replays the exact same network weather.
//!
//! `--sites-scale <n>` grows every world population `n`× while keeping the
//! paper's proportions — the paper-vs-measured comparison rescales
//! accordingly; it rejects `0`.
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
//! A tracer shard records at most 8,192 spans and counts the rest. When it
//! cut any, the stderr line of each written trace says how many, and
//! `--timings` adds a warning line to stderr.
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
//!   and write them as JSON lines to `<path>` plus a plot-ready CSV twin
//!   in the same directory: `<path>` with its extension set to `.csv`
//!   (`tl.jsonl` → `tl.csv`, `run.d/tl` → `run.d/tl.csv`). A path that
//!   already ends in `.csv` exits 2. The file also carries SLO transition
//!   lines and a flight-recorder summary.
//! * `--timeline-window <ms>` — window width in logical milliseconds
//!   (default 1000).
//! * `--timings` — additionally prints the timeline sparkline summary
//!   (and enables sampling even without `--timeline`).

use std::path::{Path, PathBuf};

use redlight_core::results::StageReport;
use redlight_core::{stages, Study, StudyConfig};
use redlight_net::transport::NetProfile;
use redlight_obs::{ObsContext, Timeline};
use redlight_report::paper;
use redlight_sim::{run_traffic, TimelineSpec, TrafficConfig};
use redlight_websim::World;

/// Every command-line option, checked before anything runs.
struct Args {
    paper_scale: bool,
    timings: bool,
    json: bool,
    collect_only: bool,
    seed: u64,
    stages: Vec<String>,
    net: Option<NetProfile>,
    fault_seed: Option<u64>,
    trace_out: Option<String>,
    events_out: Option<String>,
    metrics_out: Option<String>,
    timeline_out: Option<String>,
    /// Window width in logical milliseconds; `None` keeps the default.
    timeline_window_ms: Option<u64>,
    sites_scale: usize,
    /// Traffic sessions; `None` runs the study.
    traffic: Option<u64>,
}

/// Why [`Args::parse`] stopped before a run.
enum Stop {
    /// `--help`: usage on stdout, exit 0.
    Help,
    /// An unknown argument or a value that does not parse: the problem
    /// and usage on stderr, exit 2.
    Bad(String),
}

impl Args {
    /// Parses the arguments after the program name. Flags may come in any
    /// order; a repeated flag keeps its last value, except `--stage`,
    /// which accumulates. A flag the chosen mode would ignore is an error.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, Stop> {
        let mut parsed = Args {
            paper_scale: false,
            timings: false,
            json: false,
            collect_only: false,
            seed: 2019,
            stages: Vec::new(),
            net: None,
            fault_seed: None,
            trace_out: None,
            events_out: None,
            metrics_out: None,
            timeline_out: None,
            timeline_window_ms: None,
            sites_scale: 1,
            traffic: None,
        };
        while let Some(flag) = args.next() {
            let mut value = || match args.next() {
                Some(v) if !v.starts_with("--") => Ok(v),
                _ => Err(Stop::Bad(format!("{flag} expects a value"))),
            };
            match flag.as_str() {
                "--help" => return Err(Stop::Help),
                "--paper" => parsed.paper_scale = true,
                "--timings" => parsed.timings = true,
                "--json" => parsed.json = true,
                "--collect-only" => parsed.collect_only = true,
                "--seed" => parsed.seed = number(&flag, value()?)?,
                "--fault-seed" => parsed.fault_seed = Some(number(&flag, value()?)?),
                "--stage" => parsed.stages.push(value()?),
                "--net-profile" => {
                    let name = value()?;
                    parsed.net = Some(NetProfile::named(&name).ok_or_else(|| {
                        Stop::Bad(format!(
                            "unknown net profile {name:?}; known profiles: {}",
                            NetProfile::NAMES.join(", ")
                        ))
                    })?);
                }
                "--trace" => parsed.trace_out = Some(value()?),
                "--trace-events" => parsed.events_out = Some(value()?),
                "--metrics" => parsed.metrics_out = Some(value()?),
                "--timeline" => parsed.timeline_out = Some(value()?),
                "--timeline-window" => {
                    parsed.timeline_window_ms =
                        Some(positive(&flag, value()?, "millisecond count")?);
                }
                "--sites-scale" => parsed.sites_scale = positive(&flag, value()?, "integer")?,
                "--traffic" => parsed.traffic = Some(positive(&flag, value()?, "session count")?),
                _ => return Err(Stop::Bad(format!("unknown argument {flag:?}"))),
            }
        }
        let traffic = parsed.traffic.is_some();
        let staged = !parsed.stages.is_empty();
        let timeline_sampled = traffic && (parsed.timeline_out.is_some() || parsed.timings);
        let faulty = parsed.net.as_ref().is_some_and(|net| net.faults.is_some());
        let rules = [
            (
                parsed.timeline_out.is_some() && !traffic,
                "--timeline requires --traffic <sessions>",
            ),
            (
                parsed
                    .timeline_out
                    .as_deref()
                    .is_some_and(|path| csv_twin(path) == Path::new(path)),
                "--timeline <path> would write its CSV twin over itself; \
                 give the JSON lines another extension",
            ),
            (
                staged && parsed.collect_only,
                "--stage cannot be combined with --collect-only",
            ),
            (
                staged && traffic,
                "--stage cannot be combined with --traffic",
            ),
            (
                parsed.collect_only && traffic,
                "--collect-only cannot be combined with --traffic",
            ),
            (parsed.json && traffic, "--json does not apply to --traffic"),
            (parsed.json && !parsed.timings, "--json requires --timings"),
            (
                parsed.timeline_window_ms.is_some() && !timeline_sampled,
                "--timeline-window requires --traffic with --timeline or --timings",
            ),
            (
                parsed.fault_seed.is_some() && !faulty,
                "--fault-seed requires a --net-profile that injects faults",
            ),
        ];
        match rules.into_iter().find(|&(broken, _)| broken) {
            Some((_, problem)) => Err(Stop::Bad(problem.into())),
            None => Ok(parsed),
        }
    }
}

/// Where `--timeline <path>` writes its CSV: beside `path`, with the
/// extension set to `csv`.
fn csv_twin(path: &str) -> PathBuf {
    Path::new(path).with_extension("csv")
}

/// `value` as an unsigned integer, or a usage error naming `flag`.
fn number(flag: &str, value: String) -> Result<u64, Stop> {
    value
        .parse()
        .map_err(|_| Stop::Bad(format!("{flag} expects an unsigned integer, got {value:?}")))
}

/// `value` as a positive `what`, or a usage error naming `flag`.
fn positive<T: std::str::FromStr + Default + PartialOrd>(
    flag: &str,
    value: String,
    what: &str,
) -> Result<T, Stop> {
    match value.parse() {
        Ok(n) if n > T::default() => Ok(n),
        _ => Err(Stop::Bad(format!("{flag} expects a positive {what}"))),
    }
}

fn usage() -> String {
    format!(
        "usage: reproduce [options]

Runs the study and prints every table and figure of the paper, then the
paper-vs-measured comparison.

  --paper                  full paper scale (default: the 1/20 small scale)
  --seed <n>               world and study seed (default 2019)
  --sites-scale <n>        grow every world population n-fold (n >= 1)
  --net-profile <name>     network the crawls run over: {}
  --fault-seed <n>         re-seed the fault injector of a faulty profile
  --stage <name>           run only this analysis stage and its dependencies
                           (repeatable)
  --collect-only           stop after the collection layer
  --timings                append the pipeline timing tables
  --json                   with --timings, print them as JSON
  --trace <path>           write a Chrome trace_event JSON
  --trace-events <path>    write the span journal as JSON lines
  --metrics <path>         write a Prometheus text exposition
  --traffic <sessions>     run the traffic workload instead of the study
  --timeline <path>        with --traffic, write windowed metric series as
                           JSON lines to <path> and as CSV to <path> with
                           its extension set to .csv
  --timeline-window <ms>   with --traffic, timeline window width (default 1000)
  --help                   print this help
",
        NetProfile::NAMES.join(", ")
    )
}

fn main() {
    let Args {
        paper_scale,
        timings,
        json,
        collect_only,
        seed,
        stages: requested,
        net,
        fault_seed,
        trace_out,
        events_out,
        metrics_out,
        timeline_out,
        timeline_window_ms,
        sites_scale,
        traffic,
    } = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(Stop::Help) => {
            print!("{}", usage());
            return;
        }
        Err(Stop::Bad(problem)) => {
            eprintln!("{problem}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    let mut config = if paper_scale {
        StudyConfig::paper_scale(seed)
    } else {
        StudyConfig::small(seed)
    };
    if let Some(profile) = net {
        config.net = profile;
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
            timeline_window_ms.unwrap_or(1_000),
        );
        return;
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
            };
            print_timings(&report, json);
        }
        export_obs(&obs, timings, &trace_out, &events_out, &metrics_out, None);
        return;
    }

    if !requested.is_empty() {
        run_stages(&config, &requested, timings, json, &obs);
        eprintln!("done in {:?}", t0.elapsed());
        export_obs(&obs, timings, &trace_out, &events_out, &metrics_out, None);
        return;
    }

    let world = World::build(config.world.clone());
    let results = Study::run_on_observed(&world, &config, &obs);
    eprintln!("done in {:?}", t0.elapsed());

    println!("{}", results.render_summary());
    println!(
        "{}",
        paper::render_comparisons("Paper vs measured", &results.comparisons(scale))
    );
    if timings {
        print_timings(&results.stage_report, json);
    }
    export_obs(&obs, timings, &trace_out, &events_out, &metrics_out, None);
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
        let csv_path = csv_twin(path);
        write_or_die(&csv_path, &tl.csv());
        eprintln!(
            "wrote timeline ({} windows) to {path} + {}",
            tl.timeline.windows().len(),
            csv_path.display()
        );
    }
    export_obs(
        &obs,
        timings,
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
    let (outputs, mut report, _) = Study::analyze(&world, config, &db, &selected, obs);

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
/// Spans that the per-shard cap cut are named on each trace's stderr line
/// and, under `--timings`, in a warning line.
fn export_obs(
    obs: &ObsContext,
    timings: bool,
    trace: &Option<String>,
    events: &Option<String>,
    metrics: &Option<String>,
    timeline: Option<&Timeline>,
) {
    if !obs.is_enabled() {
        return;
    }
    let journal = obs.trace.journal();
    let dropped = match journal.dropped {
        0 => String::new(),
        n => format!(", {n} dropped by the per-shard cap"),
    };
    if timings && journal.dropped > 0 {
        eprintln!(
            "warning: {} spans were dropped by the per-shard cap; the span journal is incomplete",
            journal.dropped
        );
    }
    if let Some(path) = trace {
        let counters = obs.metrics.snapshot();
        write_or_die(path, &journal.chrome_trace_with(Some(&counters), timeline));
        eprintln!(
            "wrote Chrome trace ({} spans{dropped}) to {path} — load it at ui.perfetto.dev",
            journal.len()
        );
    }
    if let Some(path) = events {
        write_or_die(path, &journal.json_lines());
        eprintln!(
            "wrote span journal ({} events{dropped}) to {path}",
            journal.len()
        );
    }
    if let Some(path) = metrics {
        let text = obs.metrics.snapshot().prometheus();
        write_or_die(path, &text);
        eprintln!("wrote metrics exposition to {path}");
    }
}

fn write_or_die(path: impl AsRef<Path>, contents: &str) {
    let path = path.as_ref();
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}
