#!/usr/bin/env python3
"""Builds and runs the bix end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_miss --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library and the benchmark in Release under .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench); later calls rebuild only what changed. The
last line of stdout is the run's JSON result. Build output goes to stderr.

--selftest runs every workload at a small scale, traced and untraced, with
every oracle check on, and fails if any run is incorrect, fails an
operation, or misses a metric BENCHMARK.json names.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_miss", "hot_count", "mixed_write")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds bix_e2e; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no bix sources at %s/src; run from a full checkout"
                 % ROOT)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "bix_e2e"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(cmd))
    return os.path.join(out, "bix_e2e")


def run_one(binary, workload, seed, seconds, trace, scale="full",
            capture=False):
    """Runs one workload process; returns (exit code, stdout or None)."""
    workdir = os.path.join(build_dir(), "runs", "%s-%d" % (workload,
                                                           os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir, "--scale", scale]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("run.py: %s timed out\n" % workload)
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, out.decode() if capture else None


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_one(binary, workload, 7, 1, trace, "small",
                                capture=True)
            lines = (out or "").strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            problems = []
            if code != 0:
                problems.append("exit code %d" % code)
            if result is None:
                problems.append("no JSON result line")
            else:
                if result["correct"] is not True:
                    problems.append("incorrect answers")
                if result["failed"] != 0 or result["attempted"] < 1:
                    problems.append("%d of %d operations failed"
                                    % (result["failed"], result["attempted"]))
                missing = [n for n in want[trace]
                           if n not in result["metrics"]]
                if missing:
                    problems.append("missing metrics " + ", ".join(missing))
            print("%-12s trace=%d %s" % (workload, trace,
                                         "; ".join(problems) or "ok"))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    sys.stdout.flush()
    code, _ = run_one(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
