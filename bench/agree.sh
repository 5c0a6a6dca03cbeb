#!/usr/bin/env bash
# Run the whole benchmark twice on the same code and seed, then print, per
# workload and end-to-end metric, both values, their relative difference
# and the metric's bound. Exits non-zero when a pair differs by more than
# its bound: a metric that cannot agree with itself cannot gate a change.
#
#   bench/agree.sh [seed] [seconds]
#
# Without [seconds] the windows have the command's default length, the
# one BENCHMARK.json gates at.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
window=()
if [ -n "${2:-}" ]; then window=(-seconds "$2"); fi
out="$bench/out"
mkdir -p "$out"

for n in 1 2; do
	echo "== agree: run $n of 2 (seed $seed)"
	bash "$bench/run.sh" -workload all -seed "$seed" "${window[@]}" -summary "$out/agree-$n.json"
done
bash "$bench/run.sh" -compare "$out/agree-1.json" "$out/agree-2.json"
