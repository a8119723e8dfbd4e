#!/usr/bin/env python3
"""Self-tests of the sfetch benchmark.

Run from the root of a checkout:

    python3 perfbench/tests/test_perfbench.py

Each test drives perfbench/run.py at the tiny size, so the suite takes
about a minute once the benchmark is built (the first run builds it).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ["python3", "perfbench/run.py"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, cwd=ROOT, seed=3):
    r = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "0.5", "--trace", str(trace),
                              "--size", "tiny", *extra],
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = r.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return r, result


class SmokeRun(unittest.TestCase):
    """Every workload prints exactly BENCHMARK.json's metrics."""

    def check(self, workload, trace):
        r, result = run(workload, trace)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        if trace:
            self.assertIn("trace.overhead_frac", result["metrics"])
            self.assertTrue(any(l.startswith("trace: layer self times cover")
                                for l in r.stdout.splitlines()))
        self.assertTrue(any(l.startswith("digest: ")
                            for l in r.stdout.splitlines()))
        self.assertTrue(any(l.startswith("provenance: ")
                            for l in r.stdout.splitlines()))

    def test_workloads_are_the_declared_ones(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["paper_sweep", "serve_fanout"])

    def test_paper_sweep(self):
        self.check("paper_sweep", 0)
        self.check("paper_sweep", 1)

    def test_serve_fanout(self):
        self.check("serve_fanout", 0)
        self.check("serve_fanout", 1)

    def test_simulated_digest_repeats(self):
        digests = []
        for _ in range(2):
            r, _ = run("paper_sweep", 0, seed=5)
            digests.append([l for l in r.stdout.splitlines()
                            if l.startswith("digest: ")])
        self.assertEqual(digests[0], digests[1])


class CorruptReference(unittest.TestCase):
    """A corrupted reference row is reported as a failure."""

    def check(self, workload):
        r, result = run(workload, 0, "--corrupt-reference")
        self.assertNotEqual(r.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("FAILED:", r.stdout)

    def test_serve_row_mismatch(self):
        self.check("serve_fanout")

    def test_offline_rerun_mismatch(self):
        self.check("paper_sweep")


class NoSources(unittest.TestCase):
    """Without the program's sources the command fails and prints no
    result."""

    def test_bare_benchmark_directory(self):
        bare = ROOT / ".bench_out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            r = subprocess.run(RUN + ["--workload", "paper_sweep", "--seed",
                                      "1", "--seconds", "1", "--trace", "0"],
                               cwd=bare, capture_output=True, text=True,
                               timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
