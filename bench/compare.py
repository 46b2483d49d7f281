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

With a built checkout of the parent commit, the comparison is paired:

    python3 bench/compare.py --seed 301 --seconds 30 --parent DIR --pairs 10

runs each workload alternately in DIR and in this checkout, N times each,
the side that goes first swapping every pair and the seed counting up
from --seed.  Prints each side's median [q1, q3] and the number of pairs
the change won, and a verdict per metric: `better` when the change won at
least 9 pairs in 10 and its median differs from the parent's by more than
the parent's interquartile range, `ok` when the change's median is worse
than the parent's by no more than the bound, `unresolved` when the
parent's own quartiles lie further apart than the bound, `WORSE`
otherwise.  Exits 1 on a `WORSE`, on a failed operation, or when the two
sides print different digests.  A last row gives each checkout's `lib/`
line count, counted as CI counts it (every `*.ml` and `*.mli` under
`lib/*/`), so a paired run shows the size change beside the figures.
`--save FILE` keeps every run's JSON result, by workload and side, with
the seeds.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys


def run_workload(workload, seed, seconds, cwd="."):
    """One perfbench run in checkout `cwd`: its JSON result and the digest it printed."""
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=cwd)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"compare: perfbench exited {p.returncode} on {workload} in {cwd}")
    digest = None
    for line in lines:
        words = line.split()
        if len(words) == 3 and words[:2] == ["digest", workload]:
            digest = words[2]
    return json.loads(lines[-1]), digest


def lib_lines(root):
    """The `lib/` line count of checkout `root`: `cat lib/*/*.ml lib/*/*.mli | wc -l`."""
    n = 0
    for pattern in ("*.ml", "*.mli"):
        for path in glob.glob(os.path.join(root, "lib", "*", pattern)):
            with open(path, "rb") as f:
                n += f.read().count(b"\n")
    return n


def worse_by(metric, value, median):
    """How much worse than the median, as a fraction of it (negative: better)."""
    change = (value - median) / median
    return change if metric["better"] == "lower" else -change


def quartiles(values):
    """Median, q1 and q3, as BENCH_baseline.json computes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def ok_run(result):
    return result["failed"] == 0 and result["correct"]


def against_baseline(bench, args):
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
        ok = ok_run(result)
        breaches += not ok
        print(f"{name:18s} {'failed':20s} {0:10d} {failed:10d} {'':9s} {'':6s}  "
              f"{'ok' if ok else 'FAILED'}")
        if "digest" in base:
            ok = digest == base["digest"]
            breaches += not ok
            print(f"{name:18s} {'digest':20s} {base['digest'][:10]:>10s} "
                  f"{(digest or 'none')[:10]:>10s} {'':9s} {'':6s}  "
                  f"{'ok' if ok else 'DIFFERS'}")
    return breaches


def paired(bench, args):
    parent = os.path.abspath(args.parent)
    breaches = 0
    saved = {}
    print(f"{'workload':18s} {'metric':20s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'won':>5s} {'better':>7s} "
          f"{'bound':>6s}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        sides = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        digests_differ = 0
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            digests = {}
            for side in order:
                result, digests[side] = run_workload(
                    name, seed, args.seconds, parent if side == "parent" else ".")
                sides[side].append(result)
                failed[side] += not ok_run(result)
            digests_differ += digests["parent"] != digests["change"]
        saved[name] = dict(sides, seeds=[args.seed + k for k in range(args.pairs)])
        for metric in bench["end_to_end"]:
            key = metric["name"]
            pv = [r["metrics"][key]["value"] for r in sides["parent"]]
            cv = [r["metrics"][key]["value"] for r in sides["change"]]
            sign = 1 if metric["better"] == "higher" else -1
            won = sum(sign * (c - p) > 0 for p, c in zip(pv, cv))
            pm, pq1, pq3 = quartiles(pv)
            cm, cq1, cq3 = quartiles(cv)
            worse = worse_by(metric, cm, pm)
            if won * 10 >= 9 * args.pairs and sign * (cm - pm) > pq3 - pq1:
                verdict = "better"
            elif worse <= metric["bound"]:
                verdict = "ok"
            elif (pq3 - pq1) / pm > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "WORSE"
                breaches += 1
            p_txt = f"{pm:.4f} [{pq1:.4f}, {pq3:.4f}]"
            c_txt = f"{cm:.4f} [{cq1:.4f}, {cq3:.4f}]"
            print(f"{name:18s} {key:20s} {p_txt:>30s} {c_txt:>30s} "
                  f"{won:2d}/{args.pairs:<2d} {-worse:+7.1%} {metric['bound']:6.0%}  "
                  f"{verdict}")
        ok = failed["parent"] == 0 and failed["change"] == 0
        breaches += not ok
        print(f"{name:18s} {'failed runs':20s} {failed['parent']:>30d} "
              f"{failed['change']:>30d} {'':5s} {'':7s} {'':6s}  "
              f"{'ok' if ok else 'FAILED'}")
        breaches += digests_differ > 0
        print(f"{name:18s} {'digests differ':20s} {'':>30s} {digests_differ:>30d} "
              f"{'':5s} {'':7s} {'':6s}  {'ok' if digests_differ == 0 else 'DIFFERS'}")
    p_lines, c_lines = lib_lines(parent), lib_lines(".")
    print(f"{'code size':18s} {'lib/ lines':20s} {p_lines:>30d} {c_lines:>30d} "
          f"{'':5s} {'':7s} {'':6s}  {c_lines - p_lines:+d}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f)
    return breaches


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--parent", help="a built checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10,
                    help="runs per side with --parent (default 10)")
    ap.add_argument("--save", help="with --parent: write every run's result here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.parent:
        if args.pairs < 1:
            sys.exit("compare: --pairs must be at least 1")
        breaches = paired(bench, args)
    else:
        breaches = against_baseline(bench, args)
    sys.exit(1 if breaches else 0)


if __name__ == "__main__":
    main()
