//! `reproduce` output is pinned byte for byte to files under
//! `tests/golden/`: stdout, and the span journal, metrics exposition and
//! traffic timeline the export flags write. A change to any reproduced
//! number or recorded span fails here until the same change regenerates
//! the file with the command the failure names, so every regeneration is
//! a reviewed diff.

use std::path::PathBuf;
use std::process::Command;

use redlight_core::stages::STAGES;

/// Runs `reproduce` with `args`, panicking unless it succeeds, and
/// returns its stdout.
fn reproduce(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce starts");
    assert!(out.status.success(), "reproduce {args:?}: {}", out.status);
    out.stdout
}

/// `args` as the shell command that reruns `reproduce` with them.
fn command_line(args: &[&str]) -> String {
    let args: String = args.iter().map(|a| format!(" {a}")).collect();
    let separator = if args.is_empty() { "" } else { " --" };
    format!("cargo run --release -q -p redlight-bench --bin reproduce{separator}{args}")
}

/// Compares `got` with `tests/golden/<file>`; on a difference, panics
/// naming the first differing line and the command `regenerate` that
/// rewrites the file.
fn assert_golden(got: &[u8], file: &str, what: &str, regenerate: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file);
    let golden =
        std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if got == golden {
        return;
    }
    let (got, want) = (
        String::from_utf8_lossy(got),
        String::from_utf8_lossy(&golden),
    );
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{what} differs from tests/golden/{file} at line {}:\n\
         \x20 got:      {:?}\n\
         \x20 expected: {:?}\n\
         If the change is intended, regenerate the file from the repository root with\n\
         \x20 {regenerate}\n\
         and list the regeneration in CHANGES.md.",
        line + 1,
        got.lines().nth(line).unwrap_or("<end of output>"),
        want.lines().nth(line).unwrap_or("<end of file>"),
    );
}

/// Runs `reproduce` with `args` and compares its stdout with
/// `tests/golden/<file>`.
fn assert_matches_golden(args: &[&str], file: &str) {
    let command = command_line(args);
    assert_golden(
        &reproduce(args),
        file,
        &format!("{command} stdout"),
        &format!("{command} > tests/golden/{file}"),
    );
}

#[test]
fn default_stdout_matches_golden() {
    assert_matches_golden(&[], "reproduce.txt");
}

#[test]
fn seed7_flaky_stdout_matches_golden() {
    assert_matches_golden(
        &["--seed", "7", "--net-profile", "flaky"],
        "reproduce_seed7_flaky.txt",
    );
}

/// Every stage named by `--stage`, in paper order: each stage's summary
/// line, which the full run's stdout does not print.
#[test]
fn seed7_every_stage_stdout_matches_golden() {
    let mut args = vec!["--seed", "7"];
    for stage in STAGES {
        args.extend(["--stage", stage]);
    }
    assert_matches_golden(&args, "reproduce_seed7_stages.txt");
}

/// Runs `reproduce` with `args` plus one `flag <dir>/<file>` pair per entry
/// of `exports`, `<dir>` a fresh temporary directory, then compares stdout
/// with `tests/golden/<stdout>` (when given) and every file the run wrote
/// into `<dir>` with the golden file of the same name. That includes files
/// an export writes beside the one it was given (a `--timeline` CSV).
fn assert_run_matches_golden(args: &[&str], exports: &[(&str, &str)], stdout: Option<&str>) {
    let (_, first) = exports.first().expect("at least one export");
    let dir = std::env::temp_dir().join(format!("redlight-golden-{}-{first}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a temporary directory");
    let with_exports = |dir: &str| -> Vec<String> {
        let mut all: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        for (flag, file) in exports {
            all.extend([flag.to_string(), format!("{dir}/{file}")]);
        }
        all
    };
    let run_args = with_exports(dir.to_str().expect("UTF-8 path"));
    let got_stdout = reproduce(&run_args.iter().map(String::as_str).collect::<Vec<_>>());
    let mut written: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("list the temporary directory")
        .map(|entry| {
            let path = entry.expect("a directory entry").path();
            let name = path.file_name().expect("a file name").to_string_lossy();
            let bytes = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            (name.into_owned(), bytes)
        })
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
    written.sort();
    for (_, file) in exports {
        assert!(
            written.iter().any(|(name, _)| name == file),
            "reproduce {args:?} did not write {file}"
        );
    }

    let golden_args = with_exports("tests/golden");
    let command = command_line(&golden_args.iter().map(String::as_str).collect::<Vec<_>>());
    let target = stdout.map_or("/dev/null".to_owned(), |file| {
        format!("tests/golden/{file}")
    });
    let regenerate = format!("{command} > {target}");
    if let Some(file) = stdout {
        assert_golden(&got_stdout, file, &format!("{command} stdout"), &regenerate);
    }
    for (name, bytes) in &written {
        assert_golden(
            bytes,
            name,
            &format!("the {name} of {command}"),
            &regenerate,
        );
    }
}

#[test]
fn seed7_journal_and_metrics_match_golden() {
    assert_run_matches_golden(
        &["--seed", "7"],
        &[
            ("--trace-events", "reproduce_seed7_journal.jsonl"),
            ("--metrics", "reproduce_seed7_metrics.prom"),
        ],
        None,
    );
}

/// The traffic workload under the flaky profile, with its timeline and
/// SLO panel: stdout, the timeline's JSON lines and CSV, the span journal
/// (batch spans, SLO transitions, frozen flights) and the metrics.
#[test]
fn traffic_seed11_flaky_outputs_match_golden() {
    assert_run_matches_golden(
        &[
            "--traffic",
            "2000",
            "--seed",
            "11",
            "--net-profile",
            "flaky",
            "--timings",
        ],
        &[
            ("--timeline", "reproduce_traffic_seed11_timeline.jsonl"),
            ("--trace-events", "reproduce_traffic_seed11_journal.jsonl"),
            ("--metrics", "reproduce_traffic_seed11_metrics.prom"),
        ],
        Some("reproduce_traffic_seed11_flaky.txt"),
    );
}
