#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the repo root. Fails if the run leaves
# the working tree in a different state than it found it.
set -euo pipefail
cd "$(dirname "$0")/.."

tree_status() {
  if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git status --porcelain
  fi
}
STATUS_BEFORE="$(tree_status)"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> public surface: every pub fn/const/static under crates/*/src is used outside its crate"
# rustc's dead_code lint cannot see a `pub` item that only its own crate
# (or only its unit tests) uses; this scan keeps such items `pub(crate)` or
# private, so the lint can. A use is the item's name as a whole word in any
# .rs file outside the crate's src/ (its src/bin targets count as outside):
# other crates, crates/*/tests, tests/, examples/, src/ and perfbench/src.
python3 - <<'PYEOF'
import os, re, sys
ident = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
item = re.compile(
    r"\s*pub\s+(?:(?:const|unsafe|async)\s+)*fn\s+([A-Za-z_]\w*)"
    r"|\s*pub\s+(?:const|static)\s+(?:mut\s+)?([A-Za-z_]\w*)\s*:")
texts, words, crate_of = {}, {}, {}
for top in ("crates", "tests", "examples", "src", "perfbench/src"):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d != "target"]
        for name in filenames:
            if name.endswith(".rs"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    texts[path] = f.read()
                words[path] = set(ident.findall(texts[path]))
                parts = path.split("/")
                if parts[0] == "crates" and parts[2] == "src" and parts[3] != "bin":
                    crate_of[path] = parts[1]
unused = []
for crate in sorted(set(crate_of.values())):
    outside = set()
    for path in words:
        if crate_of.get(path) != crate:
            outside |= words[path]
    for path in sorted(p for p, c in crate_of.items() if c == crate):
        for lineno, line in enumerate(texts[path].splitlines(), 1):
            m = item.match(line)
            if m and (m.group(1) or m.group(2)) not in outside:
                unused.append(f"{path}:{lineno} {m.group(1) or m.group(2)}")
if unused:
    print("\n".join(unused))
    print(f"{len(unused)} pub item(s) above have no use outside their crate; "
          "make each pub(crate) or private, and delete what clippy then "
          "reports unused.", file=sys.stderr)
    sys.exit(1)
print(f"public surface OK: {len(crate_of)} source files scanned")
PYEOF

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, rustdoc warnings are errors)"
# Catches doc links that rot: to a renamed, deleted or narrowed item, or
# to an unresolved name.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> cargo test (workspace)"
# Runs each contract once, among them: matcher_equivalence (domain buckets
# vs unbucketed scan), transport_faults (fault determinism, passthrough,
# retry budget), batch_equivalence (batched == per-request verdicts),
# traffic_determinism (seed-pinned report and journal), the analysis
# oracles in table_oracles and tfidf::tests::fit_matches_owned_token_fit,
# kernel_props (sim event-queue order), script_oracle (the slot-resolving
# script engine vs its previous engine in tests/legacy_script, at every
# step budget) and redlight-net's lookups (allocation-free query and
# header lookups vs decode-everything references). Property tests run
# their default 256 cases.
cargo test --workspace -q

echo "==> examples (each in examples/ runs once, release, stdout discarded)"
# No test runs them, so a panic in one would otherwise go unseen.
for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "==> observability exporter smoke (collection-only, all three formats + timings JSON)"
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
cargo run --release -q -p redlight-bench --bin reproduce -- \
  --collect-only --seed 11 \
  --trace "$OBS_DIR/trace.json" \
  --trace-events "$OBS_DIR/trace.jsonl" \
  --metrics "$OBS_DIR/metrics.prom" \
  --timings --json >"$OBS_DIR/timings.json"
python3 - "$OBS_DIR" <<'PYEOF'
import json, sys
d = sys.argv[1]
trace = json.load(open(f"{d}/trace.json"))
events = trace["traceEvents"] if isinstance(trace, dict) else trace
begins = sum(1 for e in events if e.get("ph") == "B")
ends = sum(1 for e in events if e.get("ph") == "E")
assert begins > 0, "Chrome trace has no begin events"
assert begins == ends, f"unbalanced trace: {begins} B vs {ends} E"
lines = [json.loads(l) for l in open(f"{d}/trace.jsonl") if l.strip()]
assert len(lines) == begins, f"{len(lines)} journal lines vs {begins} spans"
prom = open(f"{d}/metrics.prom").read()
assert "transport_requests" in prom, "metrics exposition lacks transport counters"
timings = json.load(open(f"{d}/timings.json"))
assert timings["crawls"], "timings JSON lists no crawls"
print(f"exporters OK: {begins} spans, {len(prom.splitlines())} metric lines, "
      f"{len(timings['crawls'])} timed crawls")
PYEOF

echo "==> reproduce --paper stdout pinned to tests/golden/reproduce_paper.txt (release)"
# The full-scale study, where policies are longest and certificates most
# shared; too slow for the debug golden tests in crates/bench/tests.
cargo run --release -q -p redlight-bench --bin reproduce -- --paper >"$OBS_DIR/paper.out"
if ! cmp "$OBS_DIR/paper.out" tests/golden/reproduce_paper.txt; then
  echo "reproduce --paper stdout differs from tests/golden/reproduce_paper.txt." >&2
  echo "If the change is intended, regenerate it and list it in CHANGES.md:" >&2
  echo "  cargo run --release -q -p redlight-bench --bin reproduce -- --paper > tests/golden/reproduce_paper.txt" >&2
  exit 1
fi

echo "==> reproduce --traffic 250000 --net-profile flaky --timings stdout pinned to tests/golden/reproduce_traffic_flaky.txt, its exports to tests/golden/reproduce_traffic_flaky_exports.sha256 (release)"
# perfbench's traffic-flaky workload at seed 2019: the latency percentiles,
# peaks, tier table and timeline panel at the size the benchmark times.
# The export flags leave stdout as it is. Their five files (17,780 window
# rows, 2,218 SLO transitions, the Chrome counter tracks; 52 MB together)
# are too large to commit, so their SHA-256 digests are pinned instead.
cargo run --release -q -p redlight-bench --bin reproduce -- \
  --traffic 250000 --net-profile flaky --timings \
  --timeline "$OBS_DIR/flaky-timeline.jsonl" --trace "$OBS_DIR/flaky-trace.json" \
  --trace-events "$OBS_DIR/flaky-journal.jsonl" --metrics "$OBS_DIR/flaky-metrics.prom" \
  >"$OBS_DIR/traffic.out"
if ! cmp "$OBS_DIR/traffic.out" tests/golden/reproduce_traffic_flaky.txt; then
  echo "reproduce --traffic 250000 --net-profile flaky --timings stdout differs from tests/golden/reproduce_traffic_flaky.txt." >&2
  echo "If the change is intended, regenerate it and list it in CHANGES.md:" >&2
  echo "  cargo run --release -q -p redlight-bench --bin reproduce -- --traffic 250000 --net-profile flaky --timings > tests/golden/reproduce_traffic_flaky.txt" >&2
  exit 1
fi
DIGESTS="$PWD/tests/golden/reproduce_traffic_flaky_exports.sha256"
if ! (cd "$OBS_DIR" && sha256sum -c --quiet "$DIGESTS"); then
  echo "the exports of reproduce --traffic 250000 --net-profile flaky --timings differ from tests/golden/reproduce_traffic_flaky_exports.sha256." >&2
  echo "If the change is intended, regenerate it and list it in CHANGES.md:" >&2
  echo '  d=$(mktemp -d) && cargo run --release -q -p redlight-bench --bin reproduce -- --traffic 250000 --net-profile flaky --timings --timeline $d/flaky-timeline.jsonl --trace $d/flaky-trace.json --trace-events $d/flaky-journal.jsonl --metrics $d/flaky-metrics.prom >/dev/null && (cd $d && sha256sum flaky-timeline.jsonl flaky-timeline.csv flaky-trace.json flaky-journal.jsonl flaky-metrics.prom) > tests/golden/reproduce_traffic_flaky_exports.sha256' >&2
  exit 1
fi

echo "==> study pool determinism (two 2x runs per net profile: stdout, journal, metrics byte-identical)"
# The crawls, the context build's scans and the analysis stages run on one
# worker pool; which worker runs which job, and the order jobs finish in,
# vary from run to run, and nothing recorded may depend on them. Under
# flaky, retries and failed visits change the finish order too.
for profile in default flaky; do
  for run in 1 2; do
    cargo run --release -q -p redlight-bench --bin reproduce -- \
      --sites-scale 2 --seed 7 --net-profile "$profile" \
      --trace-events "$OBS_DIR/pool-$profile$run.jsonl" \
      --metrics "$OBS_DIR/pool-$profile$run.prom" >"$OBS_DIR/pool-$profile$run.out"
  done
  for kind in out jsonl prom; do
    cmp "$OBS_DIR/pool-${profile}1.$kind" "$OBS_DIR/pool-${profile}2.$kind"
  done
done

echo "==> timeline export smoke (traffic run, JSON-lines + CSV validated)"
cargo run --release -q -p redlight-bench --bin reproduce -- \
  --traffic 2000 --seed 11 --timeline "$OBS_DIR/timeline.jsonl"
python3 - "$OBS_DIR" <<'PYEOF'
import csv, json, sys
d = sys.argv[1]
lines = [json.loads(l) for l in open(f"{d}/timeline.jsonl") if l.strip()]
assert lines and lines[0]["type"] == "meta", "first line must be the meta row"
meta = lines[0]
for key in ("window_ns", "windows", "counters", "gauges", "histograms",
            "histogram_minmax"):
    assert key in meta, f"meta row lacks {key}"
windows = [l for l in lines if l["type"] == "window"]
assert len(windows) == meta["windows"], "meta window count must match rows"
for w in windows:
    assert set(w["counters"]) == set(meta["counters"]), w
    assert set(w["gauges"]) == set(meta["gauges"]), w
    assert set(w["histograms"]) == set(meta["histograms"]), w
total = sum(w["counters"]["traffic.requests"] for w in windows)
assert total > 0, "windowed request deltas must be non-trivial"
tail_types = {l["type"] for l in lines} - {"meta", "window"}
assert "flight" in tail_types, "flight summary line missing"
rows = list(csv.DictReader(open(f"{d}/timeline.csv")))
assert len(rows) == len(windows), "CSV rows must mirror the JSON windows"
assert sum(int(r["traffic.requests"]) for r in rows) == total, "CSV != JSONL"
print(f"timeline export OK: {len(windows)} windows, {total} requests")
PYEOF

echo "==> perfbench smoke (tiny sizes of every workload, traced and untraced)"
# Builds the benchmark of record against this tree, so a change to any API
# it calls fails here. Its build lands in the git-ignored perfbench/target.
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
  --smoke --out "$OBS_DIR/perfbench"

echo "==> working tree unchanged by the gate"
STATUS_AFTER="$(tree_status)"
if [ "$STATUS_BEFORE" != "$STATUS_AFTER" ]; then
  echo "the gate changed the working tree (git status --porcelain, before vs after):" >&2
  diff <(printf '%s\n' "$STATUS_BEFORE") <(printf '%s\n' "$STATUS_AFTER") >&2 || true
  exit 1
fi

echo "OK"
