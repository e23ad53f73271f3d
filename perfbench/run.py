#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a dyngraph checkout. The dune build covers the
benchmark executable and the dyngraph CLI (which serve-mixed starts as
its daemon); the benchmark's own stdout follows, its last line the JSON
result. Exits non-zero without a result when the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["flood", "claims-full", "serve-mixed"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = "_build/default/perfbench/bench.exe"
CLI = "_build/default/bin/dyngraph_cli.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project next to perfbench/: run from a dyngraph checkout")
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./" + BENCH[len("_build/default/"):],
         "./" + CLI[len("_build/default/"):]],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    cmd = [os.path.join(ROOT, BENCH), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cli", CLI, "--out", "perfbench/out"]
    # Its own process group, so a run cut by the timeout takes the daemon too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
