#!/usr/bin/env python3
"""Traced run: every per-layer metric of each workload, and what tracing cost.

    python3 perfbench/trace.py

For each workload it makes one untraced run (--trace 0) and one traced
run (--trace 1) at seed 42, each run_seconds long (from BENCHMARK.json)
and in a fresh process, and prints
the per-layer metrics the workload exercises, the traced run's
wall-clock overhead against the untraced one (whole process, and ops
per second of the timed phase), and on admission_socket the check that
the layer rows plus server.daemon.unexplained_us add up to
server.daemon.roundtrip_us. Layers a workload does not run read 0 and
are listed by name only.
"""

import json
import os
import re
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SEED = 42
TIMED = re.compile(r"perfbench: \S+ timed (\d+) ops in ([0-9.]+) s")
ROUNDTRIP_PARTS = ["server.engine.exec_batch_us", "server.protocol.encode_us",
                   "server.protocol.decode_us", "server.daemon.unexplained_us"]


def run(workload, seed, seconds, trace):
    t0 = time.time()
    p = subprocess.run(bench.bench_cmd(workload, seed, seconds, trace),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=175, preexec_fn=bench.one_cpu)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        sys.exit("%s (trace %d): run failed" % (workload, trace))
    m = TIMED.search(p.stderr)
    rate = int(m.group(1)) / float(m.group(2)) if m else float("nan")
    return json.loads(lines[-1]), wall, rate


def main():
    if len(sys.argv) > 1:
        sys.exit(__doc__)
    os.chdir(bench.ROOT)
    seconds = bench.run_seconds()
    bench.build()
    code = 0
    print("python3 perfbench/trace.py  (seed %d, %g s per run)" % (SEED, seconds))
    for w in bench.WORKLOADS:
        plain, plain_wall, plain_rate = run(w, SEED, seconds, 0)
        traced, traced_wall, traced_rate = run(w, SEED, seconds, 1)
        ok = traced["correct"] and traced["failed"] == 0
        code |= 0 if ok else 1
        print("\n%s  (traced: attempted %d, failed %d, correct %s)" % (
            w, traced["attempted"], traced["failed"], traced["correct"]))
        print("  overhead: process wall %.1f s traced vs %.1f s untraced (%+.1f%%); "
              "timed phase %.2f vs %.2f ops/s (%+.1f%%)" % (
                  traced_wall, plain_wall, 100 * (traced_wall / plain_wall - 1),
                  traced_rate, plain_rate, 100 * (plain_rate / traced_rate - 1)))
        idle = []
        for name, m in traced["metrics"].items():
            if m["value"] == 0:
                idle.append(name)
            else:
                print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
        if w == "admission_socket":
            v = {k: traced["metrics"][k]["value"] for k in
                 ROUNDTRIP_PARTS + ["server.daemon.roundtrip_us"]}
            parts = sum(v[k] for k in ROUNDTRIP_PARTS)
            print("  exec_batch + encode + decode + unexplained = %.3f us; "
                  "roundtrip = %.3f us" % (parts, v["server.daemon.roundtrip_us"]))
        print("  not run by this workload (0): %s" % ", ".join(idle))
    sys.exit(code)


if __name__ == "__main__":
    main()
