#!/usr/bin/env bash
# A/A comparison of the benchmark against itself: two sets of runs of the
# same binary, alternating A, B, B, A, ... so that slow drift on the host
# lands on both sets. Run i of either set uses seed FIRST_SEED + i.
#
# For every (workload, end-to-end metric) pair it prints both set medians,
# their relative difference, and each set's spread across its seeds
# (distance between the quartiles over the median, as Python's
# statistics.quantiles(n=4) gives them). It fails if any pair's medians
# differ by more than the metric's bound in BENCHMARK.json, and warns when
# a spread is above a third of the bound.
#
#   benchmark/aa.sh [runs-per-set=5] [first-seed=0] [workload ...]
#
# Run from the repository root. Writes benchmark/out/aa/{A,B}.jsonl.
set -euo pipefail

runs=${1:-5}
first_seed=${2:-0}
shift $(( $# < 2 ? $# : 2 ))
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

read -r -a workloads <<<"${*:-$(python3 -c '
import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark
out=benchmark/out/aa
mkdir -p "$out"
: >"$out/A.jsonl"
: >"$out/B.jsonl"

for workload in "${workloads[@]}"; do
    for ((i = 0; i < runs; i++)); do
        order=(A B)
        ((i % 2 == 1)) && order=(B A)
        for set in "${order[@]}"; do
            echo "aa: $workload seed $((first_seed + i)) set $set" >&2
            result=$("$bin" --workload "$workload" --seed $((first_seed + i)) \
                --seconds "$seconds" --trace 0 --out "$out" | tail -n 1)
            echo "{\"workload\": \"$workload\", \"result\": $result}" >>"$out/$set.jsonl"
        done
    done
done

python3 - "$out" <<'EOF'
import json, statistics, sys

out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

def load(name):
    values = {}
    for line in open(f"{out}/{name}.jsonl"):
        row = json.loads(line)
        assert row["result"]["correct"] and row["result"]["failed"] == 0, row
        for metric, v in row["result"]["metrics"].items():
            values.setdefault((row["workload"], metric), []).append(v["value"])
    return values

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

a, b = load("A"), load("B")
failed = False
print(f"{'workload':<11} {'metric':<20} {'median A':>12} {'median B':>12} {'diff':>7} "
      f"{'spread A':>8} {'spread B':>8} {'bound':>6}")
for (workload, metric), va in a.items():
    vb, bound = b[(workload, metric)], bounds[metric]
    ma, mb = statistics.median(va), statistics.median(vb)
    diff = abs(mb - ma) / ma
    sa, sb = spread(va), spread(vb)
    verdict = ""
    if diff > bound:
        verdict, failed = "  FAIL: medians differ by more than the bound", True
    elif metric != "setup_s" and max(sa, sb) > bound / 3:
        verdict = "  warn: spread above a third of the bound"
    print(f"{workload:<11} {metric:<20} {ma:12.4f} {mb:12.4f} {diff:7.2%} "
          f"{sa:8.2%} {sb:8.2%} {bound:6.2f}{verdict}")
sys.exit(1 if failed else 0)
EOF
