#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload with alternated pairs.

    python3 bench/pairs.py --parent DIR --change DIR --workload NAME
        [--pairs 10] [--seed 1] [--seconds 20] [--trace 0|1] [--label TEXT]

Runs `python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace T` from the root of each checkout, PAIRS times each.  Pair i runs
the parent first when i is even and the change first when i is odd, so
slow drift of the host's load falls on both sides alike.  Every run must
exit 0 and report "correct": true.

Prints, for every metric of the result, the parent's and the change's
q1/median/q3 (Python's statistics.quantiles, method="inclusive") and in
how many pairs the change was strictly better, using the direction that
BENCHMARK.json gives the metric.  Last, it prints one JSON object: a
"trajectory" entry for BENCH_<workload>.json with the quartiles and wins
of wall_commits_per_s and minor_words_per_commit (the metrics a --trace 0
run reports; missing ones are left out), labelled with --label.

Then it gates: for every end-to-end metric of BENCHMARK.json, it prints
the change median over the parent median, and it exits 1 if the change
median is worse than the parent median by more than that metric's bound.
"""

import argparse
import json
import os
import statistics
import sys

from gate import PerfbenchError, run_perfbench

TRAJECTORY_METRICS = ("wall_commits_per_s", "minor_words_per_commit")


def load_benchmark(root):
    """The direction of every metric and the bound of every end-to-end one."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    return better, {m["name"]: m["bound"] for m in bench["end_to_end"]}


def run_once(root, args):
    cmd = ["python3", "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        result = run_perfbench(cmd, cwd=root)
    except PerfbenchError as e:
        sys.exit("pairs: %s: %s" % (root, e))
    return {name: m["value"] for name, m in result["metrics"].items()
            if isinstance(m.get("value"), (int, float))}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(values):
    q1, median, q3 = quartiles(values)
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def wins(parent, change, better):
    if better == "higher":
        return sum(1 for p, c in zip(parent, change) if c > p)
    return sum(1 for p, c in zip(parent, change) if c < p)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--label", default="", help="the trajectory entry's \"change\" text")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("pairs: --pairs must be positive")
    better, bounds = load_benchmark(args.change)

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
        print("pair %d/%d done (%s first)" % (i + 1, args.pairs, order[0]), file=sys.stderr)

    names = [n for n in runs["parent"][0] if all(n in r for r in runs["parent"] + runs["change"])]
    print("%-48s %32s %32s %5s" % ("metric", "parent q1/median/q3", "change q1/median/q3", "wins"))
    cols = {}
    for name in names:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        cols[name] = (parent, change)
        won = "%d" % wins(parent, change, better[name]) if name in better else "-"
        print("%-48s %32s %32s %5s" % (
            name,
            "/".join("%.6g" % v for v in quartiles(parent)),
            "/".join("%.6g" % v for v in quartiles(change)),
            won))

    command = "python3 perfbench/run.py --workload %s --seed %d --seconds %s --trace %d" % (
        args.workload, args.seed, args.seconds, args.trace)
    entry = {
        "change": args.label,
        "runs": "%d pairs, parent and change alternating which runs first; %s" % (args.pairs, command),
    }
    for name in TRAJECTORY_METRICS:
        if name in cols:
            parent, change = cols[name]
            entry[name] = {
                "parent": summary(parent),
                "change": summary(change),
                "change_wins": wins(parent, change, better[name]),
            }
    print(json.dumps(entry, indent=2))

    failed = []
    for name, bound in bounds.items():
        if name not in cols:
            continue
        p, c = (quartiles(v)[1] for v in cols[name])
        if better[name] == "higher":
            worse = c < p * (1 - bound)
        else:
            worse = c > p * (1 + bound)
        ratio = "%.4f" % (c / p) if p else "n/a"
        print("bound %-24s change/parent median %s (bound %g) %s" % (
            name, ratio, bound, "WORSE" if worse else "ok"))
        if worse:
            failed.append(name)
    if failed:
        sys.exit("pairs: worse than the parent beyond the bound: " + ", ".join(failed))


if __name__ == "__main__":
    main()
