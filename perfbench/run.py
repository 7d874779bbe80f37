#!/usr/bin/env python3
"""Run one workload of the sof benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds the simulator and the
benchmark from source with dune (into _build/).  With --trace 0 the run
measures the end-to-end metrics with tracing off; with --trace 1 it makes
the traced run and measures the per-layer metrics.  Every metric is printed
by name with its unit; results are written under .bench_out/<workload>/
seed-<N>/ (metrics.json for the untraced run; layers.json, layers.txt and
spans.jsonl for the traced run).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 on a correct run, 1 when the output-correctness check failed
(every operation of the run is then counted as failed), 2 when the
benchmark could not build or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(ROOT, ".bench_out")
# The benchmark must finish within 180 s of a built checkout.
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    # No shared dune cache, and the compilers' scratch files under .bench_out:
    # the benchmark writes only inside the checkout.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = ["dune", "build", "--root", ROOT, "--profile", "bench", "--display", "quiet",
           "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed (dune exit %d)" % r.returncode)


def run_bench(workload, seed, seconds, trace, spans):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", "traced" if trace else "timed"]
    if trace:
        cmd += ["--spans", spans]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        die("bench.exe exited %d without a result" % r.returncode)
    try:
        return json.loads(lines[-1])
    except ValueError:
        die("bench.exe printed no JSON result")


def layer_table(doc):
    rows = ["%-36s %18s %-7s %9s  %s" % ("metric", "value", "unit", "samples", "note")]
    for m in doc["metrics"]:
        rows.append("%-36s %18.6g %-7s %9d  %s" % (m["name"], m["value"], m["unit"],
                                                   m["samples"], m.get("note", "")))
    return "\n".join(rows) + "\n"


def main():
    ap = argparse.ArgumentParser(description="Run one workload of the sof benchmark.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die("unknown workload %r (one of %s)" % (args.workload, ", ".join(names)))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    out = os.path.join(OUT, args.workload, "seed-%d" % args.seed)
    os.makedirs(out, exist_ok=True)
    doc = run_bench(args.workload, args.seed, args.seconds, args.trace,
                    os.path.join(out, "spans.jsonl"))

    if args.trace:
        with open(os.path.join(out, "layers.json"), "w") as f:
            json.dump(doc, f, indent=1)
        with open(os.path.join(out, "layers.txt"), "w") as f:
            f.write(layer_table(doc))
    else:
        with open(os.path.join(out, "metrics.json"), "w") as f:
            json.dump(doc, f, indent=1)

    print("%s seed %d (%s, %d episodes): %s; generator lateness %s" % (
        doc["workload"], doc["seed"], doc["mode"], doc["episodes"], doc["regime"],
        doc["generator_lateness_ms"]))
    for m in doc["metrics"]:
        print("  %-36s %16.6f %-7s n=%-7d %s" % (m["name"], m["value"], m["unit"],
                                                m["samples"], m.get("note", "")))
    for v in doc["violations"]:
        print("  VIOLATION: " + v)
    print("  attempted %d, failed %d, correct %s; results in %s" % (
        doc["attempted"], doc["failed"], doc["correct"], os.path.relpath(out, ROOT)))

    by_name = {m["name"]: m for m in doc["metrics"]}
    metrics = {}
    for w in wanted:
        m = by_name.get(w["name"])
        if m is None or m["unit"] != w["unit"]:
            die("metric %s missing or not in %s" % (w["name"], w["unit"]))
        metrics[w["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    sys.exit(0 if doc["correct"] else 1)


if __name__ == "__main__":
    main()
