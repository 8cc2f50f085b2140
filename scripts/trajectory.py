#!/usr/bin/env python3
"""Print one benchmark row across the committed trajectory.

    scripts/trajectory.py <workload> <metric>

Reads every BENCH_<rev>.json at the repo root (written by
scripts/bench_pair.sh, one per paired comparison), oldest first, and prints
per file the base and change medians of <metric> on <workload>, their
spreads (distance between the quartiles), the relative change and how many
same-seed pairs the change won. <metric> is an end-to-end metric of
BENCHMARK.json (e.g. recovery_s).
"""
import glob
import json
import os
import statistics
import sys


def spread(values):
    if len(values) < 4:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    workload, metric = sys.argv[1:]
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    better = {m["name"]: m["better"] for m in json.load(open(os.path.join(root, "BENCHMARK.json")))["end_to_end"]}
    if metric not in better:
        sys.exit("unknown metric %s; one of: %s" % (metric, ", ".join(sorted(better))))
    files = [json.load(open(p)) for p in glob.glob(os.path.join(root, "BENCH_*.json"))]
    files.sort(key=lambda f: f["date"])
    print("%-20s %-9s %-14s %5s %12s %9s %12s %9s %8s %6s"
          % ("date", "base", "change", "nproc", "base", "spread", "change", "spread", "delta", "won"))
    sign = 1 if better[metric] == "higher" else -1
    for f in files:
        try:
            a = f["base"][workload]["end_to_end"][metric]["values"]
            b = f["change"][workload]["end_to_end"][metric]["values"]
        except KeyError:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        delta = (mb - ma) / ma * 100 if ma else float("nan")
        print("%-20s %-9s %-14s %5s %12.4g %9.3g %12.4g %9.3g %+7.1f%% %3d/%d"
              % (f["date"], f["base_rev"], f["change_rev"], f["nproc"], ma, spread(a), mb, spread(b),
                 delta, won, len(a)))


if __name__ == "__main__":
    main()
