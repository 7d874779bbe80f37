#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, each metric's spread
against its bound.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seconds S]

For every workload it makes --runs untraced runs per set, each with another
seed (set A seeds 1..R, set B seeds R+1..2R), through perfbench/run.py; set B
starts when set A has finished every workload.  For each end-to-end metric
it reports, per set, the median and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median.  A metric passes when both spreads stay within its bound and set B's
median is not worse than set A's by more than the bound.  "tight" marks a
spread below a third of its bound in both sets.  The summary is also written
to .bench_out/steady.json.  Exit status 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("steady: %s seed %d failed (exit %d)" % (workload, seed, r.returncode))
    return json.loads(lines[-1])["metrics"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    values = {}  # (set, workload, metric) -> [values]
    for s in range(2):
        for w in workloads:
            for i in range(args.runs):
                seed = 1 + i + s * args.runs
                for name, m in run_once(w, seed, args.seconds).items():
                    values.setdefault((s, w, name), []).append(m["value"])
                print("set %s %s seed %d done" % ("AB"[s], w, seed), file=sys.stderr)

    ok = True
    report = []
    print("%-12s %-22s %7s %12s %7s %12s %7s %7s  %s" % (
        "workload", "metric", "bound", "median A", "spreadA", "median B", "spreadB",
        "drift", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            med_a, sp_a = spread(values[(0, w, name)])
            med_b, sp_b = spread(values[(1, w, name)])
            drift = (med_b - med_a) / med_a if med_a else float("inf")
            worse = drift if m["better"] == "lower" else -drift
            passed = worse <= bound and sp_a <= bound and sp_b <= bound
            tight = max(sp_a, sp_b) < bound / 3
            ok = ok and passed
            verdict = ("ok" if passed else "FAIL") + (" tight" if tight else "")
            print("%-12s %-22s %7.3f %12.5g %7.3f %12.5g %7.3f %+7.3f  %s" % (
                w, name, bound, med_a, sp_a, med_b, sp_b, drift, verdict))
            report.append({"workload": w, "metric": name, "bound": bound,
                           "median_a": med_a, "spread_a": sp_a, "median_b": med_b,
                           "spread_b": sp_b, "drift": drift, "pass": passed,
                           "tight": tight, "values_a": values[(0, w, name)],
                           "values_b": values[(1, w, name)]})
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as f:
        json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
