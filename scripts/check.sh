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

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> matcher oracle (domain buckets vs unbucketed scan)"
cargo test -q -p redlight-blocklist --test matcher_equivalence

echo "==> transport fault matrix (determinism, passthrough, retry budget)"
cargo test -q --test transport_faults

echo "==> shard map/reduce equivalence (per-shard merge == monolithic)"
# The workspace run above already covers the full 256-case sweep; this
# named step re-confirms with a smaller draw so the gate stays fast.
PROPTEST_CASES=32 cargo test -q --test shard_equivalence

echo "==> batch classification equivalence (batched == per-request verdicts)"
PROPTEST_CASES=64 cargo test -q --test batch_equivalence

echo "==> analysis oracles (Table 4/5 lookups, TF-IDF fit)"
PROPTEST_CASES=64 cargo test -q -p redlight-analysis --test table_oracles
PROPTEST_CASES=64 cargo test -q -p redlight-text --lib tfidf::tests::fit_matches_owned_token_fit

echo "==> sim event-queue properties (total order, monotone drain)"
PROPTEST_CASES=64 cargo test -q -p redlight-sim --test kernel_props

echo "==> traffic determinism (seed-pinned report, journal, logical walls)"
cargo test -q --test traffic_determinism

echo "==> service-model equivalence (any SimSpec renders the same study, default and flaky)"
cargo test -q --test sim_equivalence

echo "==> transport bench smoke (--test mode, 1 iteration per bench)"
cargo bench -p redlight-bench --bench transport -- --test

echo "==> observability exporter smoke (collection-only, all three formats + timings JSON)"
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
cargo run --release -q -p redlight-bench --bin reproduce -- \
  --collect-only --seed 11 \
  --trace "$OBS_DIR/trace.json" \
  --trace-events "$OBS_DIR/trace.jsonl" \
  --metrics "$OBS_DIR/metrics.prom" \
  --timings --json --shards 3 >"$OBS_DIR/timings.json"
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
assert "shards" in timings, "sharded timings JSON lacks shard stats"
print(f"exporters OK: {begins} spans, {len(prom.splitlines())} metric lines, "
      f"{len(timings['crawls'])} timed crawls")
PYEOF

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
