#!/usr/bin/env python3
"""Self-checks for tools/check_bench.py — the perf gate's comparator.

The gate guards every PR, so its pass/fail semantics get their own tests:
exact metrics are bit-for-bit, timing metrics fail only past ratio AND
floor, config mismatches refuse comparison, malformed input is a hard
error, candidate-only metrics are informational. Run directly:

    python3 tools/test_check_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_bench.py")


def make_report(metrics, smoke=True, scale=1, seed=42, schema_version=1):
    return {
        "schema_version": schema_version,
        "smoke": smoke,
        "scale": scale,
        "seed": seed,
        "metrics": [
            {"name": name, "kind": kind, "value": value}
            for name, (kind, value) in sorted(metrics.items())
        ],
    }


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, report):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            if isinstance(report, str):
                f.write(report)
            else:
                json.dump(report, f)
        return path

    def run_check(self, candidate, baseline, *extra):
        return subprocess.run(
            [sys.executable, CHECK_BENCH, candidate,
             "--baseline", baseline, *extra],
            capture_output=True, text=True)

    BASE = {
        "fig5.laghos.bytes_moved": ("exact", 14200),
        "fig5.laghos.rows": ("exact", 4096),
        "micro.decode.seconds": ("timing", 0.010),
    }

    def test_identical_reports_pass(self):
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", make_report(self.BASE))
        result = self.run_check(cand, base)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("ok:", result.stdout)

    def test_exact_drift_fails(self):
        cand_metrics = dict(self.BASE)
        cand_metrics["fig5.laghos.rows"] = ("exact", 4097)
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", make_report(cand_metrics))
        result = self.run_check(cand, base)
        self.assertEqual(result.returncode, 1)
        self.assertIn("fig5.laghos.rows", result.stdout)

    def test_timing_within_tolerance_passes(self):
        cand_metrics = dict(self.BASE)
        cand_metrics["micro.decode.seconds"] = ("timing", 0.05)  # 5x, < floor
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", make_report(cand_metrics))
        self.assertEqual(self.run_check(cand, base).returncode, 0)

    def test_timing_regression_fails_past_ratio_and_floor(self):
        cand_metrics = dict(self.BASE)
        # 50x the baseline and 0.49 s over it: beyond both gates.
        cand_metrics["micro.decode.seconds"] = ("timing", 0.5)
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", make_report(cand_metrics))
        result = self.run_check(cand, base)
        self.assertEqual(result.returncode, 1)
        self.assertIn("micro.decode.seconds", result.stdout)

    def test_timing_faster_is_always_fine(self):
        cand_metrics = dict(self.BASE)
        cand_metrics["micro.decode.seconds"] = ("timing", 0.0001)
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", make_report(cand_metrics))
        self.assertEqual(self.run_check(cand, base).returncode, 0)

    def test_missing_baseline_metric_fails(self):
        cand_metrics = dict(self.BASE)
        del cand_metrics["fig5.laghos.bytes_moved"]
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", make_report(cand_metrics))
        result = self.run_check(cand, base)
        self.assertEqual(result.returncode, 1)
        self.assertIn("missing from candidate", result.stdout)

    def test_candidate_only_metrics_are_informational(self):
        cand_metrics = dict(self.BASE)
        cand_metrics["process.rpc.failed_calls"] = ("exact", 0)
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", make_report(cand_metrics))
        result = self.run_check(cand, base)
        self.assertEqual(result.returncode, 0)
        self.assertIn("not in baseline", result.stdout)

    # bench_report emits every histogram's mean, 0 when it recorded
    # nothing, so an operator kind that stops running is reported by its
    # exact `.count`, never as a metric missing from the candidate.
    HISTOGRAM = {
        "process.exec.Fetch.seconds.count": ("exact", 3),
        "process.exec.Fetch.seconds.mean_seconds": ("timing", 0.002),
    }

    def test_histogram_that_stops_recording_fails_on_count_only(self):
        metrics = dict(self.BASE, **self.HISTOGRAM)
        cand_metrics = dict(metrics)
        cand_metrics["process.exec.Fetch.seconds.count"] = ("exact", 0)
        cand_metrics["process.exec.Fetch.seconds.mean_seconds"] = (
            "timing", 0.0)
        base = self.write("base.json", make_report(metrics))
        cand = self.write("cand.json", make_report(cand_metrics))
        result = self.run_check(cand, base)
        self.assertEqual(result.returncode, 1)
        self.assertIn("process.exec.Fetch.seconds.count", result.stdout)
        self.assertNotIn("missing from candidate", result.stdout)
        self.assertNotIn("mean_seconds", result.stdout)

    def test_empty_histogram_mean_matches_empty_baseline(self):
        metrics = dict(self.BASE)
        metrics["process.exec.Fetch.seconds.count"] = ("exact", 0)
        metrics["process.exec.Fetch.seconds.mean_seconds"] = ("timing", 0.0)
        base = self.write("base.json", make_report(metrics))
        cand = self.write("cand.json", make_report(metrics))
        result = self.run_check(cand, base)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_config_mismatch_fails(self):
        base = self.write("base.json", make_report(self.BASE, seed=42))
        cand = self.write("cand.json", make_report(self.BASE, seed=43))
        result = self.run_check(cand, base)
        self.assertEqual(result.returncode, 1)
        self.assertIn("config mismatch", result.stdout)

    def test_kind_change_fails(self):
        cand_metrics = dict(self.BASE)
        cand_metrics["micro.decode.seconds"] = ("exact", 0.010)
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", make_report(cand_metrics))
        result = self.run_check(cand, base)
        self.assertEqual(result.returncode, 1)
        self.assertIn("kind changed", result.stdout)

    def test_malformed_kind_is_hard_error(self):
        bad = make_report({"x": ("exact", 1)})
        bad["metrics"][0]["kind"] = "fuzzy"
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", bad)
        result = self.run_check(cand, base)
        self.assertEqual(result.returncode, 1)
        self.assertIn("malformed metric", result.stderr)

    def test_unsupported_schema_version_is_hard_error(self):
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", make_report(self.BASE,
                                                   schema_version=99))
        result = self.run_check(cand, base)
        self.assertEqual(result.returncode, 1)
        self.assertIn("unsupported schema_version", result.stderr)

    def test_require_nonzero_passes_when_positive(self):
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", make_report(self.BASE))
        result = self.run_check(cand, base,
                                "--require-nonzero", "fig5.laghos.rows")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_require_nonzero_fails_on_zero(self):
        metrics = dict(self.BASE)
        metrics["cache.hits"] = ("exact", 0)
        base = self.write("base.json", make_report(metrics))
        cand = self.write("cand.json", make_report(metrics))
        result = self.run_check(cand, base,
                                "--require-nonzero", "cache.hits")
        self.assertEqual(result.returncode, 1)
        self.assertIn("required-nonzero metric is 0", result.stdout)

    def test_require_nonzero_fails_on_missing(self):
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", make_report(self.BASE))
        result = self.run_check(cand, base,
                                "--require-nonzero", "no.such.metric")
        self.assertEqual(result.returncode, 1)
        self.assertIn("required-nonzero metric missing", result.stdout)

    TENANTS = {
        "concurrent.tenant.interactive.queries": ("exact", 10),
        "concurrent.tenant.batch.queries": ("exact", 7),
    }

    def test_require_nonzero_glob_passes_when_all_positive(self):
        metrics = dict(self.BASE, **self.TENANTS)
        base = self.write("base.json", make_report(metrics))
        cand = self.write("cand.json", make_report(metrics))
        result = self.run_check(cand, base, "--require-nonzero-glob",
                                "concurrent.tenant.*.queries")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_require_nonzero_glob_fails_on_zero_match(self):
        metrics = dict(self.BASE, **self.TENANTS)
        metrics["concurrent.tenant.batch.queries"] = ("exact", 0)
        base = self.write("base.json", make_report(metrics))
        cand = self.write("cand.json", make_report(metrics))
        result = self.run_check(cand, base, "--require-nonzero-glob",
                                "concurrent.tenant.*.queries")
        self.assertEqual(result.returncode, 1)
        self.assertIn("concurrent.tenant.batch.queries", result.stdout)
        self.assertIn("required-nonzero metric is 0", result.stdout)

    def test_require_nonzero_glob_fails_when_nothing_matches(self):
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", make_report(self.BASE))
        result = self.run_check(cand, base, "--require-nonzero-glob",
                                "concurrent.tenant.*.queries")
        self.assertEqual(result.returncode, 1)
        self.assertIn("no candidate metric matches", result.stdout)

    # The PR 8 perf-smoke gates: split pruning must actually prune, and
    # the planner metadata cache must actually hit on the warm repeat.
    PRUNING = {
        "laghos.selective.splits_pruned": ("exact", 1),
        "process.connector.metadata_cache.hit": ("exact", 2),
    }

    def test_pruning_gates_pass_when_positive(self):
        metrics = dict(self.BASE, **self.PRUNING)
        base = self.write("base.json", make_report(metrics))
        cand = self.write("cand.json", make_report(metrics))
        result = self.run_check(
            cand, base,
            "--require-nonzero-glob", "laghos.selective.splits_pruned",
            "--require-nonzero-glob", "process.connector.metadata_cache.hit")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_pruning_gate_fails_when_pruning_stops(self):
        metrics = dict(self.BASE, **self.PRUNING)
        metrics["laghos.selective.splits_pruned"] = ("exact", 0)
        base = self.write("base.json", make_report(metrics))
        cand = self.write("cand.json", make_report(metrics))
        result = self.run_check(
            cand, base,
            "--require-nonzero-glob", "laghos.selective.splits_pruned")
        self.assertEqual(result.returncode, 1)
        self.assertIn("laghos.selective.splits_pruned", result.stdout)

    def test_pruning_gate_fails_when_cache_never_hits(self):
        metrics = dict(self.BASE, **self.PRUNING)
        metrics["process.connector.metadata_cache.hit"] = ("exact", 0)
        base = self.write("base.json", make_report(metrics))
        cand = self.write("cand.json", make_report(metrics))
        result = self.run_check(
            cand, base,
            "--require-nonzero-glob", "process.connector.metadata_cache.hit")
        self.assertEqual(result.returncode, 1)
        self.assertIn("process.connector.metadata_cache.hit", result.stdout)

    # The PR 9 pushdown gates: the pushed join must actually prune fact
    # rows with the bloom at storage, and the engine must actually merge
    # storage-computed partial aggregates.
    PUSHDOWN = {
        "tpch.join_pushdown.pushdown.bloom_rows_pruned": ("exact", 6457),
        "process.engine.partial_agg_merges": ("exact", 395),
    }

    def test_pushdown_gates_pass_when_positive(self):
        metrics = dict(self.BASE, **self.PUSHDOWN)
        base = self.write("base.json", make_report(metrics))
        cand = self.write("cand.json", make_report(metrics))
        result = self.run_check(
            cand, base,
            "--require-nonzero-glob",
            "tpch.join_pushdown.pushdown.bloom_rows_pruned",
            "--require-nonzero-glob", "process.engine.partial_agg_merges")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_pushdown_gate_fails_when_bloom_stops_pruning(self):
        metrics = dict(self.BASE, **self.PUSHDOWN)
        metrics["tpch.join_pushdown.pushdown.bloom_rows_pruned"] = ("exact", 0)
        base = self.write("base.json", make_report(metrics))
        cand = self.write("cand.json", make_report(metrics))
        result = self.run_check(
            cand, base,
            "--require-nonzero-glob",
            "tpch.join_pushdown.pushdown.bloom_rows_pruned")
        self.assertEqual(result.returncode, 1)
        self.assertIn("bloom_rows_pruned", result.stdout)

    def test_pushdown_gate_fails_when_merges_disappear(self):
        metrics = dict(self.BASE, **self.PUSHDOWN)
        del metrics["process.engine.partial_agg_merges"]
        base = self.write("base.json", make_report(metrics))
        cand = self.write("cand.json", make_report(metrics))
        result = self.run_check(
            cand, base,
            "--require-nonzero-glob", "process.engine.partial_agg_merges")
        self.assertEqual(result.returncode, 1)
        self.assertIn("no candidate metric matches", result.stdout)

    def test_unreadable_candidate_is_hard_error(self):
        base = self.write("base.json", make_report(self.BASE))
        cand = self.write("cand.json", "{not json")
        result = self.run_check(cand, base)
        self.assertEqual(result.returncode, 1)
        self.assertIn("cannot read", result.stderr)


if __name__ == "__main__":
    unittest.main()
