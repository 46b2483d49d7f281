#!/usr/bin/env python3
"""Build the DARCO benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-functional --seed 1 --seconds 20 --trace 0

Workloads: suite-functional, suite-timed, campaign (or all).  The build
goes to $CARGO_TARGET_DIR when set, else _build.  The last line of
standard output is the benchmark's JSON result; a failed build or a
failed run exits non-zero without printing one.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("suite-functional", "suite-timed", "campaign", "all")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    # the dune cache lives outside the checkout: keep the build inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--display", "quiet",
         "./perfbench/darco_bench.exe", "./bin/darco_cli.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    exe = os.path.join(build_dir, "default", "perfbench", "darco_bench.exe")
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", os.path.join("perfbench", "out")],
        env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
