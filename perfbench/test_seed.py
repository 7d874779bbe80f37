#!/usr/bin/env python3
"""Seed-plumbing test for the benchmark.

    python3 perfbench/test_seed.py [--workloads a,b]

Builds the benchmark, then for each workload checks that
- two untraced runs with one seed draw the same arrival schedule and the
  same cluster seeds, and report identical virtual metrics;
- two traced runs with one seed report identical per-layer counts;
- another seed draws another arrival schedule and other cluster seeds.
Each run is the shortest the benchmark makes (--seconds 0).  Host timings
are left out of the comparison: they are the only figures allowed to differ.
Exit status 1 on the first mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

# Host timings, by unit or name; everything else is virtual or a count.
HOST_UNITS = {"s", "ns", "ns/op", "1/s", "MB"}


def run(workload, seed, mode):
    r = subprocess.run([bench.EXE, "--workload", workload, "--seed", str(seed),
                        "--seconds", "0", "--mode", mode],
                       cwd=bench.ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("FAIL %s seed %d %s: exit %d" % (workload, seed, mode, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def deterministic(doc):
    return {m["name"]: m["value"] for m in doc["metrics"]
            if m["unit"] not in HOST_UNITS and "host" not in m["name"]}


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="paper_sc,overload_sc,durable_bft")
    args = ap.parse_args()
    bench.build()
    for w in args.workloads.split(","):
        a, b, c = run(w, 7, "timed"), run(w, 7, "timed"), run(w, 8, "timed")
        check(a["schedule_digest"] == b["schedule_digest"]
              and a["cluster_seeds"] == b["cluster_seeds"],
              "%s: one seed, one arrival schedule and one set of cluster seeds" % w)
        va, vb = deterministic(a), deterministic(b)
        check(va == vb and len(va) >= 7,
              "%s: one seed, identical virtual metrics (%d compared)" % (w, len(va)))
        check(a["schedule_digest"] != c["schedule_digest"],
              "%s: another seed, another arrival schedule" % w)
        check(not set(a["cluster_seeds"]) & set(c["cluster_seeds"]),
              "%s: another seed, other cluster seeds" % w)
        ta, tb = run(w, 7, "traced"), run(w, 7, "traced")
        la, lb = deterministic(ta), deterministic(tb)
        diff = sorted(k for k in la if la[k] != lb.get(k))
        check(not diff and len(la) >= 30,
              "%s: one seed, identical per-layer counts (%d compared)%s"
              % (w, len(la), " differ: " + ", ".join(diff) if diff else ""))


if __name__ == "__main__":
    main()
