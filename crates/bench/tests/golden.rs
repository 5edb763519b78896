//! `reproduce` stdout is pinned byte for byte to files under
//! `tests/golden/`. A change to any reproduced number fails here until the
//! same change regenerates the file with the command the failure names, so
//! every regeneration is a reviewed diff.

use std::path::PathBuf;
use std::process::Command;

/// Runs `reproduce` with `args` and compares its stdout with
/// `tests/golden/<file>`.
fn assert_matches_golden(args: &[&str], file: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce starts");
    assert!(out.status.success(), "reproduce {args:?}: {}", out.status);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file);
    let golden =
        std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if out.stdout == golden {
        return;
    }
    let (got, want) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&golden),
    );
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    let args: String = args.iter().map(|a| format!(" {a}")).collect();
    let separator = if args.is_empty() { "" } else { " --" };
    panic!(
        "reproduce{args} stdout differs from tests/golden/{file} at line {}:\n\
         \x20 got:      {:?}\n\
         \x20 expected: {:?}\n\
         If the change is intended, regenerate the file from the repository root with\n\
         \x20 cargo run --release -q -p redlight-bench --bin reproduce{separator}{args} > tests/golden/{file}\n\
         and list the regeneration in CHANGES.md.",
        line + 1,
        got.lines().nth(line).unwrap_or("<end of output>"),
        want.lines().nth(line).unwrap_or("<end of file>"),
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
