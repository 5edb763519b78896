//! `reproduce` checks its whole command line before it builds a world:
//! `--help` and every bad argument end the process before a study starts.
//! What a run could not record, it says on stderr.

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
        // The CSV twin of a `.csv` path would overwrite the JSON lines.
        &["--traffic", "5", "--timeline", "out.csv"],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
        assert!(!stderr.contains(STUDY_STARTED), "{args:?} ran a study");
    }
}

/// The CSV twin lands beside the JSON lines, even when a directory on the
/// path has a dot in its name and the file has no extension.
#[test]
fn timeline_csv_twin_lands_beside_the_json_lines() {
    let tmp = std::env::temp_dir().join(format!("redlight-cli-twin-{}", std::process::id()));
    let run_dir = tmp.join("run.d");
    std::fs::create_dir_all(&run_dir).expect("create a temporary directory");
    let timeline = run_dir.join("tl");
    let out = reproduce(&[
        "--traffic",
        "200",
        "--timeline",
        timeline.to_str().expect("UTF-8 path"),
    ]);
    let names = |dir: &std::path::Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list a temporary directory")
            .map(|e| {
                e.expect("a directory entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        names
    };
    let (in_tmp, in_run_dir) = (names(&tmp), names(&run_dir));
    std::fs::remove_dir_all(&tmp).expect("remove the temporary directory");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(in_tmp, ["run.d"]);
    assert_eq!(in_run_dir, ["tl", "tl.csv"]);
}

/// Runs `reproduce --traffic <sessions> --net-profile flaky --timings`
/// with a span journal and the given timeline window, returning stdout,
/// stderr and the number of `slo.*` spans in the journal.
fn flaky_traffic_with_journal(sessions: &str, window_ms: &str) -> (String, String, usize) {
    let dir = std::env::temp_dir().join(format!(
        "redlight-cli-{}-{sessions}-{window_ms}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create a temporary directory");
    let journal = dir.join("journal.jsonl");
    let out = reproduce(&[
        "--traffic",
        sessions,
        "--net-profile",
        "flaky",
        "--timeline-window",
        window_ms,
        "--timings",
        "--trace-events",
        journal.to_str().expect("UTF-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let spans = std::fs::read_to_string(&journal).expect("the journal was written");
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
    let slo_spans = spans
        .lines()
        .filter(|l| l.contains("\"name\":\"slo."))
        .count();
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
        slo_spans,
    )
}

/// At 1 ms windows, 2,000 flaky sessions make 8,486 SLO transitions, more
/// than the 8,192 spans the `traffic.slo` tracer shard keeps.
#[test]
fn spans_cut_by_the_shard_cap_are_reported() {
    let (stdout, stderr, slo_spans) = flaky_traffic_with_journal("2000", "1");
    assert!(stdout.contains("SLO transitions: 8486"), "{stdout}");
    assert_eq!(slo_spans, 8_192);
    assert!(
        stderr.contains("wrote span journal (8507 events, 294 dropped by the per-shard cap)"),
        "{stderr}"
    );
    assert!(
        stderr.contains("warning: 294 spans were dropped by the per-shard cap"),
        "{stderr}"
    );

    let (_, stderr, _) = flaky_traffic_with_journal("200", "1000");
    assert!(stderr.contains("wrote span journal ("), "{stderr}");
    assert!(!stderr.contains("dropped"), "nothing was cut: {stderr}");
    assert!(!stderr.contains("warning"), "{stderr}");
}
