#!/usr/bin/env python3
"""Tests of the benchmark itself: smoke mode, output checks and the compare tool.

    python3 perfbench/test_perfbench.py

Builds the benchmark (honouring CARGO_TARGET_DIR), runs its smoke mode and
checks that it writes only to a temporary directory, that every metric
BENCHMARK.json names is reported, that a wrong expected value fails the run
and shows in fail_ratio, and that compare.py flags a regression and names
the per-layer metric that moved first.
"""

import copy
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402  (sibling module)


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        check=True,
        cwd=ROOT,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def tree_digest(path):
    """Hash of every file under `path` except build and cache directories."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(full.encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def repo_state():
    """What smoke mode must leave alone: the benchmark's own files, the
    default output directory and BENCHMARK.json."""
    return (
        tree_digest(HERE),
        tree_digest(os.path.join(ROOT, ".bench_out")),
        os.stat(os.path.join(ROOT, "BENCHMARK.json")).st_mtime_ns,
    )


def read_results(out_dir):
    with open(os.path.join(out_dir, "results.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = build()
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)
        cls.scratch = tempfile.mkdtemp(prefix="perfbench-test-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def smoke(self, *extra):
        return subprocess.run(
            [self.binary, "--smoke", *extra],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )

    def test_smoke_writes_only_to_a_temp_dir_and_reports_every_metric(self):
        before = repo_state()
        proc = self.smoke()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out_dir = re.search(r"smoke results in (.+)", proc.stderr).group(1).strip()
        try:
            self.assertTrue(
                os.path.realpath(out_dir).startswith(os.path.realpath(tempfile.gettempdir())),
                out_dir,
            )
            self.assertEqual(before, repo_state())

            records = read_results(out_dir)
            workloads = [w["name"] for w in self.spec["workloads"]]
            self.assertEqual(sorted((r["workload"], r["trace"]) for r in records),
                             sorted((w, t) for w in workloads for t in (0, 1)))
            e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
            layers = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
            for rec in records:
                result = rec["result"]
                self.assertTrue(result["correct"], rec)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                want = layers if rec["trace"] else e2e
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, rec["workload"])
                if not rec["trace"]:
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0, f"{rec['workload']} {name}")
                    continue
                stem = f"{rec['workload']}-smoke-seed{rec['seed']}-trace1"
                with open(os.path.join(out_dir, stem + ".trace.json"), encoding="utf-8") as fh:
                    self.assertTrue(json.load(fh)["traceEvents"])
                with open(os.path.join(out_dir, stem + ".spans.jsonl"), encoding="utf-8") as fh:
                    spans = [json.loads(line) for line in fh]
                self.assertIsNone(spans[0]["parent"])
                self.assertTrue(all(s["self_us"] <= s["dur_us"] for s in spans))
            # The smoke printout ends with a result line of the documented shape.
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def test_wrong_expected_value_fails_the_run_and_shows_in_fail_ratio(self):
        with open(os.path.join(HERE, "expected.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        wrong = []
        for line in lines:
            f = line.split()
            if len(f) == 5 and f[0] == "study" and f[1] == "smoke" and f[2] == "2019":
                f[4] = "0" * 16
                line = " ".join(f)
            wrong.append(line)
        self.assertNotEqual(wrong, lines, "expected.txt records study smoke seed 2019")
        path = os.path.join(self.scratch, "wrong-expected.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(wrong) + "\n")
        out_dir = os.path.join(self.scratch, "wrong")
        proc = self.smoke("--expected", path, "--out", out_dir)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        by_key = {(r["workload"], r["trace"]): r["result"] for r in read_results(out_dir)}
        study = by_key[("study", 0)]
        self.assertFalse(study["correct"])
        self.assertEqual(study["failed"], study["attempted"])
        self.assertEqual(study["metrics"]["fail_ratio"]["value"], 1.0)
        self.assertFalse(by_key[("study", 1)]["correct"])
        self.assertTrue(by_key[("traffic-flaky", 0)]["correct"])

    def test_compare_flags_a_regression_and_ranks_the_layer_that_moved(self):
        out_dir = os.path.join(self.scratch, "base")
        proc = self.smoke("--out", out_dir)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        base = os.path.join(out_dir, "results.jsonl")
        bench = os.path.join(ROOT, "BENCHMARK.json")

        with open(os.devnull, "w", encoding="utf-8") as sink:
            self.assertEqual(compare.compare(base, base, bench, out=sink), [])

        records = read_results(out_dir)
        changed = []
        for rec in records:
            rec = copy.deepcopy(rec)
            metrics = rec["result"]["metrics"]
            if rec["workload"] == "study" and rec["trace"] == 0:
                metrics["wall_s"]["value"] *= 1.5
                metrics["peak_rss_mib"]["value"] *= 0.5
            if rec["workload"] == "study" and rec["trace"] == 1:
                metrics["core.stage.cookies_s"]["value"] *= 50
            changed.append(json.dumps(rec))
        change = os.path.join(self.scratch, "change.jsonl")
        with open(change, "w", encoding="utf-8") as fh:
            fh.write("\n".join(changed) + "\n")

        report = os.path.join(self.scratch, "report.txt")
        with open(report, "w", encoding="utf-8") as sink:
            flagged = compare.compare(base, change, bench, out=sink)
        self.assertEqual(flagged, [("study", "wall_s")])
        with open(report, encoding="utf-8") as fh:
            text = fh.read()
        study_layers = text.split("== study ==")[1].split("per-layer")[1]
        first_row = study_layers.strip().splitlines()[1].split()[0]
        self.assertEqual(first_row, "core.stage.cookies_s")
        self.assertEqual(compare.main([base, change, "--benchmark", bench]), 1)


if __name__ == "__main__":
    unittest.main()
