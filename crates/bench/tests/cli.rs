//! `reproduce` checks its whole command line before it builds a world:
//! `--help` and every bad argument end the process before a study starts.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce starts")
}

/// The line a study prints to stderr before it builds its world.
const STUDY_STARTED: &str = "running the";

#[test]
fn help_prints_usage_to_stdout_and_runs_nothing() {
    let out = reproduce(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("usage: reproduce"), "{stdout}");
    for flag in ["--seed", "--net-profile", "--traffic"] {
        assert!(stdout.contains(flag), "usage lacks {flag}");
    }
    assert!(out.stderr.is_empty());
}

#[test]
fn bad_arguments_exit_2_with_usage_before_any_study() {
    for args in [
        &["--bogus-flag"][..],
        &["--seed", "7x"],
        &["--fault-seed", "x"],
        &["--seed"],
        &["--seed", "--paper"],
        &["--sites-scale", "x"],
        &["--timeline-window", "0"],
        &["--traffic", "0"],
        &["--net-profile", "nope"],
        &["--timeline", "out.jsonl"],
        &["stray"],
        &["--timings", "--bogus-flag"],
        // There is one analysis path, so `--shards` is an unknown argument.
        &["--shards", "4"],
        // Flags that would do nothing in the mode chosen.
        &["--collect-only", "--stage", "cookies"],
        &["--traffic", "5", "--stage", "cookies"],
        &["--traffic", "5", "--collect-only"],
        &["--traffic", "5", "--timings", "--json"],
        &["--json"],
        &["--timeline-window", "500"],
        &["--traffic", "5", "--timeline-window", "500"],
        &["--timings", "--timeline-window", "500"],
        &["--fault-seed", "3"],
        &["--net-profile", "default", "--fault-seed", "3"],
        &["--traffic", "5", "--fault-seed", "3"],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
        assert!(!stderr.contains(STUDY_STARTED), "{args:?} ran a study");
    }
}
