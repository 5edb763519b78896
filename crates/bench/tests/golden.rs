//! `reproduce` output is pinned byte for byte to files under
//! `tests/golden/`: stdout, and the span journal and metrics exposition the
//! export flags write. A change to any reproduced number or recorded span
//! fails here until the same change regenerates the file with the command
//! the failure names, so every regeneration is a reviewed diff.

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

#[test]
fn seed7_journal_and_metrics_match_golden() {
    const JOURNAL: &str = "reproduce_seed7_journal.jsonl";
    const METRICS: &str = "reproduce_seed7_metrics.prom";
    let dir = std::env::temp_dir().join(format!("redlight-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a temporary directory");
    let path = |file: &str| dir.join(file).to_str().expect("UTF-8 path").to_owned();
    let (journal, metrics) = (path(JOURNAL), path(METRICS));
    reproduce(&[
        "--seed",
        "7",
        "--trace-events",
        &journal,
        "--metrics",
        &metrics,
    ]);
    let read =
        |file: &str| std::fs::read(file).unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
    let (got_journal, got_metrics) = (read(&journal), read(&metrics));
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");

    let golden = |file: &str| format!("tests/golden/{file}");
    let regenerate = format!(
        "{} > /dev/null",
        command_line(&[
            "--seed",
            "7",
            "--trace-events",
            &golden(JOURNAL),
            "--metrics",
            &golden(METRICS),
        ])
    );
    assert_golden(
        &got_journal,
        JOURNAL,
        "the --seed 7 span journal",
        &regenerate,
    );
    assert_golden(
        &got_metrics,
        METRICS,
        "the --seed 7 metrics exposition",
        &regenerate,
    );
}
