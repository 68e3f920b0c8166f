#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lu_serial --seed 1 --seconds 20 --trace 0

--workload is lu_serial, conv_reshaped_p64, serve_mix, or all (every
workload in turn, then one combined JSON line with metrics named
<workload>.<metric>).  --trace 1 reports the per-layer metrics instead of
the end-to-end ones.

The first call configures and builds perfbench/ (which compiles the
simulator from src/) into .bench_build, or into $CARGO_TARGET_DIR when that
is set.  DSM_* environment variables are removed before the benchmark
runs, so the environment cannot change what is measured.  The last line of
standard output is the JSON result; the exit code is 0 only when a result
was printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lu_serial", "conv_reshaped_p64", "serve_mix"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures once, then brings the benchmark binary up to date."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.json")]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir(),
                                        "spans-%s-%d.json" % (workload, args.seed))]
    env = {k: v for k, v in os.environ.items() if not k.startswith("DSM_")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.stdout.write(proc.stdout)
        fail("%s exited with code %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        fail("%s reported metrics %s, BENCHMARK.json lists %s"
             % (workload, sorted(result["metrics"]), sorted(want)))
    return lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    if args.workload != "all":
        lines, _ = run_one(binary, args.workload, args)
        print("\n".join(lines))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        lines, result = run_one(binary, w, args)
        print("\n".join(lines))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
