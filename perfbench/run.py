#!/usr/bin/env python3
"""Build the benchmark and run one workload (or all four).

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

NAME is design_sweep, soundness_sim, rover_detection, admission_socket,
or "all", the default (each workload in a fresh process, one after the
other, with a summary table on stderr). S defaults to run_seconds in
BENCHMARK.json. Run it from the repository root. The result of a
workload is the last line of stdout (see README.md). Builds go to
.bench_build/ with the dune cache off, so a run touches nothing outside
the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["design_sweep", "soundness_sim", "rover_detection", "admission_socket"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "dune")
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
DAEMON_EXE = os.path.join(BUILD_DIR, "default", "bin", "hydra_experiments.exe")
TMP_DIR = os.path.join(".bench_build", "tmp")


def run_seconds():
    """The length of one run's timed phase, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build the benchmark and the daemon from source (a no-op when up to date)."""
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            fail("no %s here: run from the root of a full checkout" % need)
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "-j", "2", "--display", "quiet", "./perfbench/main.exe",
           "./bin/hydra_experiments.exe"]
    try:
        code = subprocess.call(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if code != 0:
        fail("build failed (dune exit %d)" % code)


def bench_cmd(workload, seed, seconds, trace):
    return [os.path.join(".", BENCH_EXE), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--daemon-bin", DAEMON_EXE, "--tmp", TMP_DIR]


def one_cpu():
    """Confine the benchmark (and the daemon it spawns) to one CPU: every
    workload is sequential, and a closed-loop request then passes from
    client to daemon and back without waiting for a second, idle
    virtual CPU to be woken."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(workload, seed, seconds, trace, capture=False):
    """Run one workload in a fresh process. With capture, return its
    parsed result (None on failure) instead of passing stdout through."""
    cmd = bench_cmd(workload, seed, seconds, trace)
    if not capture:
        return subprocess.call(cmd, timeout=175, preexec_fn=one_cpu)
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175,
                           preexec_fn=one_cpu)
    except subprocess.TimeoutExpired:
        return None
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    build()
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.workload != "all":
        sys.exit(run_one(args.workload, args.seed, args.seconds, args.trace))
    code = 0
    for w in WORKLOADS:
        r = run_one(w, args.seed, args.seconds, args.trace, capture=True)
        if r is None:
            print("%s: run failed" % w, file=sys.stderr)
            code = 1
            continue
        print(json.dumps(dict(workload=w, **r)))
        print("%-17s attempted %6d  failed %d  correct %s" % (
            w, r["attempted"], r["failed"], r["correct"]), file=sys.stderr)
        for name, m in r["metrics"].items():
            print("    %-36s %14.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
        if r["failed"] or not r["correct"]:
            code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
