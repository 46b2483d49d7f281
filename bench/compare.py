#!/usr/bin/env python3
"""Gate a checkout's end-to-end benchmark figures on the committed baseline.

Run from the root of a checkout:

    python3 bench/compare.py --seed 5 --seconds 30

Runs `perfbench/run.py --trace 0` once on each workload that
BENCHMARK.json declares, and compares every end-to-end metric with
BENCH_baseline.json's median, in the direction and by the relative bound
that BENCHMARK.json gives the metric.  Prints one row per workload and
metric.  Exits 1 when a metric is worse than the median by more than its
bound, when a run fails an operation, or when a statistics digest differs
from the baseline's.  A metric whose baseline quartiles lie further apart
than its bound (relative to the median) is reported as unresolved and
does not fail the gate: one run cannot tell a change from that metric's
own spread.
"""

import argparse
import json
import subprocess
import sys


def run_workload(workload, seed, seconds):
    """One perfbench run: its JSON result and the digest it printed."""
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"compare: perfbench exited {p.returncode} on {workload}")
    digest = None
    for line in lines:
        words = line.split()
        if len(words) == 3 and words[:2] == ["digest", workload]:
            digest = words[2]
    return json.loads(lines[-1]), digest


def worse_by(metric, value, median):
    """How much worse than the median, as a fraction of it (negative: better)."""
    change = (value - median) / median
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open("BENCH_baseline.json") as f:
        baseline = json.load(f)["workloads"]

    breaches = 0
    print(f"{'workload':18s} {'metric':20s} {'baseline':>10s} {'run':>10s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        base = baseline[name]
        result, digest = run_workload(name, args.seed, args.seconds)
        for metric in bench["end_to_end"]:
            b = base[metric["name"]]
            median = b["median"]
            value = result["metrics"][metric["name"]]["value"]
            worse = worse_by(metric, value, median)
            if worse <= metric["bound"]:
                verdict = "ok"
            elif (b["q3"] - b["q1"]) / median > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "WORSE"
                breaches += 1
            print(f"{name:18s} {metric['name']:20s} {median:10.4f} {value:10.4f} "
                  f"{worse:+9.1%} {metric['bound']:6.0%}  {verdict}")
        failed = result["failed"]
        ok = failed == 0 and result["correct"]
        breaches += not ok
        print(f"{name:18s} {'failed':20s} {0:10d} {failed:10d} {'':9s} {'':6s}  "
              f"{'ok' if ok else 'FAILED'}")
        if "digest" in base:
            ok = digest == base["digest"]
            breaches += not ok
            print(f"{name:18s} {'digest':20s} {base['digest'][:10]:>10s} "
                  f"{(digest or 'none')[:10]:>10s} {'':9s} {'':6s}  "
                  f"{'ok' if ok else 'DIFFERS'}")
    sys.exit(1 if breaches else 0)


if __name__ == "__main__":
    main()
