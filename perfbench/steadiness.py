#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's metrics.

    python3 perfbench/steadiness.py --runs 10 [--workloads paper_miss,...]
        [--trace 0] [--first-seed 1] [--out FILE] [--baseline FILE]

Run from the root of a checkout. Makes --runs runs of every workload,
interleaving the workloads (run i of every workload before run i+1 of
any), each run with its own seed. For every end-to-end metric it prints the
median and quartiles (statistics.quantiles(values, n=4)), the interquartile
spread as a share of the median, and that spread beside the metric's bound
in BENCHMARK.json: "ok" below a third of the bound, "WIDE" below the bound,
"OVER" past it. --out keeps every run's result as JSON; --baseline compares
this set's medians with an earlier --out file and flags a metric that got
worse by more than its bound. The failed share of operations is printed per
workload so two sets can be compared exactly.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd),
                                               done.returncode))
    return json.loads(lines[-1])


def summarize(results, spec, trace):
    metrics = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    summary = {}
    for workload, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print("%s: %d runs, correct=%s, failed %d of %d" %
              (workload, len(runs), correct, failed, attempted))
        rows = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            if bound is None:
                verdict = ""
            elif spread < bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "WIDE"
            else:
                verdict = "OVER"
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound}
            print("  %-30s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%"
                  "%s %s" % (m["name"], med, q1, q3, 100 * spread,
                             "" if bound is None else
                             "  bound %5.1f%%" % (100 * bound), verdict))
        summary[workload] = {"failed": failed, "attempted": attempted,
                             "metrics": rows}
    return summary


def compare(summary, baseline, spec):
    better = {m["name"]: (m["better"], m.get("bound"))
              for m in spec["end_to_end"] + spec["per_layer"]}
    print("against baseline:")
    for workload, cur in summary.items():
        old = baseline.get("summary", {}).get(workload)
        if old is None:
            continue
        for name, row in cur["metrics"].items():
            direction, bound = better[name]
            base = old["metrics"][name]["median"]
            if bound is None or not base:
                continue
            change = (row["median"] - base) / base
            worse = change > bound if direction == "lower" else -change > bound
            print("  %-12s %-30s %+7.2f%%%s" % (workload, name, 100 * change,
                                                "  WORSE" if worse else ""))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--baseline")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = args.first_seed + i
            r = run(w, seed, spec["run_seconds"], args.trace)
            r["seed"] = seed
            results[w].append(r)
            print("run %d/%d %-12s seed %d done" % (i + 1, args.runs, w, seed),
                  file=sys.stderr)
    summary = summarize(results, spec, args.trace)
    if args.baseline:
        with open(args.baseline) as f:
            compare(summary, json.load(f), spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": results, "summary": summary}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
