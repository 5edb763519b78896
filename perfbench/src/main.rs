//! Benchmark of record for the redlight reproduction.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload study --seed 2019 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (`study`, `reanalyze-sharded`, `traffic-flaky`) from
//! a single process and prints one JSON result line last on stdout. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! reports per-layer metrics from spans it records around every public
//! call it makes, and writes those spans as JSON lines plus a Chrome trace.
//! Every run checks its outputs against `expected.txt`; a mismatch prints
//! `"correct": false` and exits 1.
//!
//! Other modes:
//!
//! * `--smoke` runs tiny sizes of all three workloads, traced and
//!   untraced, writing only into a fresh temporary directory (or `--out`).
//! * `--record` prints the run's outputs as `expected.txt` lines.
//! * `--expected <file>` checks against another table.
//! * `--out <dir>` is where results and traces go (default `.bench_out`).
//! * `--study-scale <n>` grows the `study` world `n`× instead of 4× (for
//!   scaling comparisons; outputs at other scales are not recorded).
//!
//! See `perfbench/README.md` for the workloads, metrics and baseline.

mod expected;
mod measure;
mod workloads;

use std::path::{Path, PathBuf};

use expected::Expected;
use measure::{result_line, CountingAlloc};
use workloads::{Outcome, Run, Size, WORKLOADS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    expected: Option<PathBuf>,
    record: bool,
    smoke: bool,
    study_scale: Option<usize>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR] [--expected FILE] [--record] [--study-scale N] | --smoke [--out DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 2019,
        seconds: 30.0,
        trace: false,
        out: None,
        expected: None,
        record: false,
        smoke: false,
        study_scale: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                args.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => {
                args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed"));
            }
            "--seconds" => {
                args.seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value())),
            "--expected" => args.expected = Some(PathBuf::from(value())),
            "--record" => args.record = true,
            "--smoke" => args.smoke = true,
            "--study-scale" => {
                let scale = value().parse::<usize>().ok().filter(|n| *n > 0);
                args.study_scale = Some(scale.unwrap_or_else(|| usage("bad --study-scale")));
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let expected = match &args.expected {
        None => Expected::builtin(),
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Expected::parse(&text))
            .unwrap_or_else(|e| usage(&format!("cannot read {}: {e}", path.display()))),
    };

    if args.smoke {
        std::process::exit(smoke(&args, &expected));
    }
    let Some(workload) = args.workload else {
        usage("--workload or --smoke is required");
    };
    let run = Run {
        workload,
        seed: args.seed,
        seconds: if args.record { 0.0 } else { args.seconds },
        size: match (args.record, args.study_scale) {
            (_, Some(scale)) => Size::FULL.with_study_scale(scale),
            (true, None) => Size::FULL.single_setup(),
            (false, None) => Size::FULL,
        },
        expected: &expected,
    };
    measure::counting(args.trace);
    let outcome = workloads::run(&run, args.trace);
    measure::counting(false);

    if args.record {
        for (key, value) in &outcome.observed {
            println!("{workload} {} {} {key} {value}", run.size.name, run.seed);
        }
        return;
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(".bench_out"));
    let line = finish(&out, &run, args.trace, &outcome);
    println!("{line}");
    if outcome.failed_checks > 0 {
        std::process::exit(1);
    }
}

/// Writes the run's record (and, when traced, its spans) under `out` and
/// returns the result line.
fn finish(out: &Path, run: &Run<'_>, traced: bool, outcome: &Outcome) -> String {
    let line = result_line(
        outcome.failed_checks == 0,
        outcome.checks,
        outcome.failed_checks,
        &outcome.metrics,
    );
    let stem = format!(
        "{}-{}-seed{}-trace{}",
        run.workload,
        run.size.name,
        run.seed,
        u8::from(traced)
    );
    let written = std::fs::create_dir_all(out)
        .and_then(|()| {
            let record = format!(
                "{{\"workload\": \"{}\", \"size\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
                run.workload,
                run.size.name,
                run.seed,
                u8::from(traced)
            );
            append(&out.join("results.jsonl"), &record)
        })
        .and_then(|()| match &outcome.spans {
            Some(spans) => std::fs::write(out.join(format!("{stem}.spans.jsonl")), spans.json_lines())
                .and_then(|()| {
                    std::fs::write(out.join(format!("{stem}.trace.json")), spans.chrome_trace())
                }),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write under {}: {e}", out.display());
        std::process::exit(1);
    }
    line
}

fn append(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(text.as_bytes())?;
    file.flush()
}

/// Tiny sizes of every workload, untraced then traced, into a fresh
/// temporary directory. Returns the exit code.
fn smoke(args: &Args, expected: &Expected) -> i32 {
    let out = args.out.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()))
    });
    let mut code = 0;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let run = Run {
                workload,
                seed: args.seed,
                seconds: 0.0,
                size: Size::SMOKE,
                expected,
            };
            measure::counting(traced);
            let outcome = workloads::run(&run, traced);
            measure::counting(false);
            if args.record {
                if !traced {
                    for (key, value) in &outcome.observed {
                        println!("{workload} {} {} {key} {value}", run.size.name, run.seed);
                    }
                }
                continue;
            }
            println!("{}", finish(&out, &run, traced, &outcome));
            if outcome.failed_checks > 0 {
                code = 1;
            }
        }
    }
    eprintln!("perfbench: smoke results in {}", out.display());
    code
}
