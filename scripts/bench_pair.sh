#!/usr/bin/env bash
# Paired benchmark of this checkout (the change) against a base revision,
# the way the PR driver will judge it — run before submitting, so a row
# about to come back `worse` or `unresolved` is seen before the PR is.
#
#   scripts/bench_pair.sh <base-rev> [workload]
#
# Unpacks the base (`git archive`) under target/bench-pair/, builds both
# perfbench binaries into target/bench-pair/ too, and runs RUNS
# (default 10) untraced seeds of the workload (default: every workload of
# BENCHMARK.json) per side, seed by seed with the sides taking turns to
# go first, so that a drift of the host lands on both. Then prints, per
# end-to-end metric, each side's median and spread (the distance between
# the quartiles of its runs), the limit the PR driver holds BOTH spreads
# against — the metric's bound times the BASE's median, so a throughput
# that rises k-fold must be k times steadier in relative terms — how many
# same-seed pairs the change won, and finally `bench compare` itself
# (which holds each side's spread against its own median).
#
# `bench --runs` cannot be restricted to one workload, so the runs are
# driven from here and folded into the result-file format with python3.
# Both sides also go to BENCH_<base-short-rev>.json at the repo root, with
# the seeds, nproc, the run seconds and both revs: the committed trajectory
# `scripts/trajectory.py <workload> <metric>` reads.
# Environment: RUNS (default 10), SEED (first seed, default 1000).
set -euo pipefail
cd "$(dirname "$0")/.."

base_rev=${1:?usage: scripts/bench_pair.sh <base-rev> [workload]}
runs=${RUNS:-10}
seed=${SEED:-1000}
workloads=${2:-$(python3 -c '
import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

root=$PWD/target/bench-pair
base=$root/base
rm -rf "$root/lines" && mkdir -p "$root/lines"
rm -rf "$base" && mkdir -p "$base"
git archive "$base_rev" | tar -x -C "$base"

echo "== building base ($(git rev-parse --short "$base_rev")) and change" >&2
CARGO_TARGET_DIR=$root/base-target \
    cargo build --release --quiet --manifest-path "$base/perfbench/Cargo.toml"
CARGO_TARGET_DIR=$root/change-target \
    cargo build --release --quiet --manifest-path perfbench/Cargo.toml

# One run, from the side's own tree; the result JSON is the last stdout line.
run() { # side workload seed
    local dir=$PWD
    if [ "$1" = base ]; then dir=$base; fi
    echo "== $2 seed $3 $1" >&2
    (cd "$dir" && "$root/$1-target/release/bench" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null) |
        tail -n 1 >>"$root/lines/$1.$2"
}

for w in $workloads; do
    for ((i = 0; i < runs; i++)); do
        if ((i % 2 == 0)); then order="base change"; else order="change base"; fi
        for side in $order; do
            run "$side" "$w" $((seed + i))
        done
    done
done

base_short=$(git rev-parse --short "$base_rev")
change_short=$(git rev-parse --short HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    change_short="$change_short+dirty"
fi
python3 - "$root" "$base_short" "$change_short" "$seed" "$runs" "$seconds" $workloads <<'EOF'
import datetime, json, os, statistics, sys

root, base_rev, change_rev = sys.argv[1:4]
first_seed, runs, seconds = int(sys.argv[4]), int(sys.argv[5]), float(sys.argv[6])
workloads = sys.argv[7:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

def spread(values):
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)  # the method perfbench's iqr_share uses
    return q[2] - q[0]

def show(s):
    return "-" if s is None else f"{s:.4g}"

sides = {}
for side in ("base", "change"):
    entries = {}
    for w in workloads:
        lines = [json.loads(l) for l in open(f"{root}/lines/{side}.{w}")]
        table = {}
        for m in metrics:
            values = [l["metrics"][m["name"]]["value"] for l in lines]
            table[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                "median": statistics.median(values), "values": values}
        entries[w] = {"config": None,
                      "attempted": sum(l["attempted"] for l in lines),
                      "failed": sum(l["failed"] for l in lines),
                      "end_to_end": table, "per_layer": {}}
    sides[side] = entries
    json.dump({"workloads": entries}, open(f"{root}/{side}.json", "w"))

trajectory = {
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "base_rev": base_rev,
    "change_rev": change_rev,
    "nproc": os.cpu_count(),
    "run_seconds": seconds,
    "seeds": list(range(first_seed, first_seed + runs)),
    "base": sides["base"],
    "change": sides["change"],
}
with open(f"BENCH_{base_rev}.json", "w") as out:
    json.dump(trajectory, out, indent=1, sort_keys=True)
    out.write("\n")
print(f"wrote BENCH_{base_rev}.json")

for w in workloads:
    print(f"\n== {w}")
    print(f"{'metric':<26} {'base median':>14} {'spread':>9} {'change median':>14} {'spread':>9} "
          f"{'limit':>9} {'pairs won':>9}")
    for m in metrics:
        a, b = (sides[s][w]["end_to_end"][m["name"]] for s in ("base", "change"))
        sa, sb = spread(a["values"]), spread(b["values"])
        limit = m["bound"] * a["median"]
        sign = 1 if m["better"] == "higher" else -1
        won = sum(sign * (y - x) > 0 for x, y in zip(a["values"], b["values"]))
        wide = max(sa or 0, sb or 0) > limit
        print(f"{m['name']:<26} {a['median']:>14.4f} {show(sa):>9} {b['median']:>14.4f} "
              f"{show(sb):>9} {limit:>9.4g} {won:>4}/{len(a['values']):<4}"
              f"{'  spread > limit: unresolved' if wide else ''}")
EOF

echo
"$root/change-target/release/bench" compare "$root/base.json" "$root/change.json"
