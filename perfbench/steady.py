#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs per workload.

    python3 perfbench/steady.py

Each set makes five runs of every workload, each run_seconds long (from
BENCHMARK.json) and in a fresh process with its own seed (set A: seeds
1, 3, ..., 9; set B: 2, 4, ..., 10), and the two sets alternate run by
run. For every end-to-end metric it prints each set's median and
quartiles (statistics.quantiles, n=4), each set's spread (interquartile
distance / median), the same for both sets together, and the worsening
of set B's median against set A's. It exits 1 when the worsening, or
the spread of both sets together, exceeds the metric's bound in
BENCHMARK.json, or when the sets' shares of failed operations differ.
"""

import json
import os
import statistics
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

RUNS = 5


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    if len(sys.argv) > 1:
        sys.exit(__doc__)
    os.chdir(bench.ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = bench.WORKLOADS
    bench.build()
    sets = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            for label, seed in (("A", 2 * i + 1), ("B", 2 * i + 2)):
                t0 = time.time()
                r = bench.run_one(w, seed, seconds, 0, capture=True)
                if r is None:
                    print("%s seed %d: run failed" % (w, seed), file=sys.stderr)
                    sys.exit(1)
                sets[w][label].append(r)
                print("%s %s seed %d (%.1f s): %s" % (
                    w, label, seed, time.time() - t0, json.dumps(r["metrics"])), file=sys.stderr)
    ok = True
    print("python3 perfbench/steady.py  (%d runs per set, %g s each)" % (RUNS, seconds))
    for w in workloads:
        a, b = sets[w]["A"], sets[w]["B"]
        share = {k: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v)
                 for k, v in (("A", a), ("B", b))}
        print("\n%s  (failed share A %.6f, B %.6f)" % (w, share["A"], share["B"]))
        if share["A"] != share["B"]:
            ok = False
        print("  %-18s %-5s %12s %12s %12s %8s %8s %9s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound", "worsening"))
        for name, m in bounds.items():
            qa = spread([r["metrics"][name]["value"] for r in a])
            qb = spread([r["metrics"][name]["value"] for r in b])
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            qall = spread([r["metrics"][name]["value"] for r in a + b])
            flags = []
            if qall[3] > m["bound"]:
                flags.append("SPREAD")
            if worse > m["bound"]:
                flags.append("WORSE")
            ok = ok and not flags
            for label, q in (("A", qa), ("B", qb), ("A+B", qall)):
                print("  %-18s %-5s %12.6g %12.6g %12.6g %8.4f %8.2f %9s %s" % (
                    name, label, q[0], q[1], q[2], q[3], m["bound"],
                    "%+.4f" % worse if label == "B" else "",
                    " ".join(flags) if label == "A+B" else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
