#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is a CMake project of its
own (perfbench/CMakeLists.txt) that compiles the program's libraries from
src/ in Release mode into $CARGO_TARGET_DIR (default .bench_build). Build
output goes to standard error. Exits non-zero without a result when the
build or a run fails.

--trace 0 runs the pocs_perfbench binary PARTS times, each in a fresh
process for --seconds / PARTS, and pools the parts' raw samples into the
end-to-end metrics, so that no single process's thread placement or memory
layout decides the result. --trace 1 runs the binary once; it prints the
per-layer metrics itself and writes its spans under .bench_out/. Either
way the last line of standard output is the JSON result, and the lines
above it give every metric with its unit and sample count.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PARTS = 3
TIMEOUT_S = 170  # for all the binary's runs of one invocation together


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(target: str = "pocs_perfbench") -> Path:
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out / target


def quantile(values, q):
    """Nearest-rank q-quantile, as the binary computes it; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def run_part(binary, args, seconds, timeout, first):
    """One fresh process measuring one part; returns its raw-sample record.

    Passes through the part's failure lines, and its run record if `first`.
    """
    proc = subprocess.run(
        [str(binary), *args, "--seconds", repr(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"part exited {proc.returncode}")
    for line in lines[:-1]:
        if first or not line.startswith("run_record "):
            print(line)
    return json.loads(lines[-1])


def end_to_end(binary, args, seconds):
    parts = [run_part(binary, args, seconds / PARTS, TIMEOUT_S / PARTS, i == 0)
             for i in range(PARTS)]
    names = parts[0]["queries"]
    samples = [s for p in parts for s in p["samples"]]
    walls = [s[1] for s in samples]
    writes = [w for p in parts for w in p["writes"]]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    elapsed = sum(p["elapsed_s"] for p in parts)
    n = len(walls)
    metrics = [
        ("query_wall_p50_s", quantile(walls, 0.5), "s", n),
        ("query_wall_p95_s", quantile(walls, 0.95), "s", n),
        ("queries_per_s", n / elapsed, "1/s", n),
        ("sim_query_p50_s", quantile([s[2] for s in samples], 0.5), "s", n),
        ("bytes_moved_per_query",
         statistics.fmean(s[3] for s in samples) if samples else 0.0, "bytes", n),
        ("write_wall_p50_s", quantile(writes, 0.5), "s", len(writes)),
        ("setup_s", statistics.median(p["setup_s"] for p in parts), "s", PARTS),
        ("peak_rss_mb", max(p["peak_rss_mb"] for p in parts), "MB", PARTS),
    ]
    for q, name in enumerate(names):
        w = [s[1] for s in samples if s[0] == q]
        print(f"query {name:36s} n={len(w):<6d} p50={quantile(w, 0.5):.6f} "
              f"p95={quantile(w, 0.95):.6f}")
    print(f"failed_frac {failed / attempted if attempted else 1.0:.6f} "
          f"({failed} of {attempted} operations)")
    beyond = n - min(max(math.ceil(0.95 * n), 1), n) if n else 0
    print(f"samples_beyond_p95 {beyond}")
    print(f"{'metric':42s} {'value':>18s} {'unit':6s} {'samples':>8s}")
    for name, value, unit, count in metrics:
        print(f"{name:42s} {value:18.9g} {unit:6s} {count:8d}")
    result = {
        "correct": failed == 0 and n > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in metrics},
    }
    print(json.dumps(result))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--wrong-reference", action="store_true",
                        help="self-test hook: corrupt one reference answer")
    opts = parser.parse_args(argv)
    try:
        binary = build()
    except (RuntimeError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    args = ["--workload", opts.workload, "--seed", opts.seed]
    if opts.wrong_reference:
        args.append("--wrong-reference")
    try:
        if opts.trace == "0":
            return end_to_end(binary, args, opts.seconds)
        proc = subprocess.run(
            [str(binary), *args, "--seconds", repr(opts.seconds), "--trace", "1"],
            cwd=ROOT, timeout=TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    except (RuntimeError, ValueError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
