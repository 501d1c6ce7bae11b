#!/usr/bin/env bash
# Benchmark gate: runs the end-to-end benchmark (bench/) on a parent commit
# and on the working tree, alternating the two, and fails when `bench
# compare` reads a regression. CI runs it on every push and pull request;
# run it from the repository root the same way:
#
#   bash .github/bench-gate.sh main
#   bash .github/bench-gate.sh HEAD     # an A/A run, which must pass
#
# The parent is checked out into a git worktree under a temporary directory
# and each side builds and runs its own bench/run.sh. The run files, each
# run's output and the comparison report go to .bench_build/gate/. The exit
# status is bench compare's: 0 when nothing regressed, 1 on a regression.
set -euo pipefail

# Fixed, not flags: every gate reads the same number of samples. On a
# shared 2-vCPU host, five pairs of 5-second runs read host noise as a 27%
# sweep_exact latency_p99_ms regression in one of seven comparisons whose
# sweep code was identical, and 10-second runs were no steadier; ten pairs
# of 5-second runs passed every such comparison.
readonly pairs=10 seconds=5 seed=1
# The replay and serving hot loops, and the durable store's write, restart
# and read path (serve_cold_store is the only workload that runs the store).
readonly gated=(sweep_exact serve_hot serve_cold_store)

if [[ $# -ne 1 ]]; then
	echo "usage: bash .github/bench-gate.sh <parent-rev>" >&2
	exit 2
fi
if [[ ! -f go.mod || ! -f bench/run.sh ]]; then
	echo "bench-gate: run from the repository root" >&2
	exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")

out="$PWD/.bench_build/gate"
rm -rf "$out"
mkdir -p "$out"
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/parent" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/parent" "$parent"

# run <side> <checkout> <workload> <pair> runs one workload on one side.
run() {
	echo "bench-gate: pair $4 of $pairs, $3, $1"
	(cd "$2" && bash bench/run.sh --workload "$3" --seed "$seed" --seconds "$seconds" \
		-o "$out/$1-$3-$4.json") >"$out/$1-$3-$4.log"
}

# Odd pairs run the parent first and even pairs the change, so a drift in
# host speed favours neither side.
for i in $(seq 1 "$pairs"); do
	for w in "${gated[@]}"; do
		if ((i % 2)); then
			run parent "$tmp/parent" "$w" "$i"
			run change "$PWD" "$w" "$i"
		else
			run change "$PWD" "$w" "$i"
			run parent "$tmp/parent" "$w" "$i"
		fi
	done
done

.bench_build/bench compare "$out"/parent-*.json -- "$out"/change-*.json | tee "$out/compare.txt"
