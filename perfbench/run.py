#!/usr/bin/env python3
"""Layer-by-layer benchmark of the multithreaded-elastic toolchain.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tiles_sim --seed 1 --seconds 20 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
repository's src/ with the benchmark program in perfbench/src) into
.bench_build, runs one workload for the given seconds, checks its
outputs, and prints a human-readable summary followed by one JSON line:

    {"correct": true, "attempted": 9, "failed": 0,
     "metrics": {"wall_s": {"value": 2.41, "unit": "s"}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (a per-layer metric the workload does not exercise
reads 0) and writes the run's spans as Chrome-trace JSON under
.bench_build/traces. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory (a relative
    # path is taken from the checkout root).
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.hpp")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload '%s'" % args.workload)
    if args.seed < 0:
        fail("seed must be non-negative")
    binary = build()

    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    digests = load_json(os.path.join(HERE, "expected_digests.json"))
    expected = digests.get(args.workload, {}).get(str(args.seed))
    if expected:
        cmd += ["--expect", expected]
    artifacts = os.path.join(os.path.dirname(build_dir()), "artifacts")
    os.makedirs(artifacts, exist_ok=True)
    cmd += ["--artifacts", artifacts]
    if args.trace:
        traces = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s_seed%d.trace.json" % (args.workload, args.seed))]

    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("workload run exited with code %d" % proc.returncode)
    raw = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(raw["metrics"]) - set(units))
    if unknown:
        fail("metrics not declared in BENCHMARK.json: " + ", ".join(unknown))
    missing = sorted(set(units) - set(raw["metrics"]))
    if missing and not args.trace:
        fail("end-to-end metrics missing: " + ", ".join(missing))
    if missing:
        print("  not exercised by %s (reported as 0): %s" % (args.workload, ", ".join(missing)))
    metrics = {}
    for name, unit in units.items():
        value = float(raw["metrics"].get(name, 0.0))
        if not math.isfinite(value):
            fail("metric %s is not finite" % name)
        metrics[name] = {"value": value, "unit": unit}

    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    print("  failed_frac %.6g (%d of %d operations)" % (failed / max(attempted, 1), failed,
                                                        attempted))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
