#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/tests/test_benchmark.py

Builds the benchmark (as perfbench/run.py does) and checks that:
  * the C++ self-tests pass (span self time, quantile ranks, fingerprints);
  * every workload emits exactly the metric names and units BENCHMARK.json
    lists, end-to-end with --trace 0 and per-layer with --trace 1;
  * a wrong reference fingerprint makes the run report failures;
  * LAYERS.md maps every per-layer metric;
  * a directory holding only BENCHMARK.json and perfbench/ fails cleanly.
Each run is short (--seconds 1.5), so the whole file takes about a minute
once the build is cached.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1.5", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


class BenchmarkSelfTest(unittest.TestCase):
    def test_cpp_selftests(self):
        binary = run.build("perfbench_selftest")
        proc = subprocess.run([str(binary)], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_emitted_names_match_config(self):
        e2e = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
        for w in CONFIG["workloads"]:
            for trace, expected in ((0, e2e), (1, layer)):
                with self.subTest(workload=w["name"], trace=trace):
                    result, _ = run_bench(w["name"], trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_wrong_reference_raises_failed_frac(self):
        result, lines = run_bench("ocs_pushdown", 0, "--wrong-reference")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        frac = [l for l in lines if l.startswith("failed_frac ")]
        self.assertEqual(len(frac), 1)
        self.assertGreater(float(frac[0].split()[1]), 0.0)

    def test_layers_doc_maps_every_per_layer_metric(self):
        doc = (BENCH_DIR / "LAYERS.md").read_text()
        for m in CONFIG["per_layer"]:
            self.assertIn(f"`{m['name']}`", doc, m["name"])

    def test_bare_directory_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ocs_pushdown",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
