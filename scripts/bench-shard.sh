#!/bin/sh
# Benchmarks the sharded control plane and records BENCH_shard.json at
# the repo root: per-join latency of the coordinator at 1/2/4 shards
# (from the Go benchmark's ns/join metric) plus the aggregate-throughput
# gap each shard count pays vs the single global WOLT solve (from a
# small deterministic run of the woltsim "shard" experiment — the gap is
# bit-identical for any worker count, so this is stable across machines;
# only the latencies are wall-clock).
# Usage: scripts/bench-shard.sh [count]
set -eu

cd "$(dirname "$0")/.."
count="${1:-3}"
out="BENCH_shard.json"
cores="$(getconf _NPROCESSORS_ONLN)"
raw="$(mktemp)"
csvdir="$(mktemp -d)"
trap 'rm -rf "$raw" "$csvdir"' EXIT

go test -run '^$' -bench CoordinatorJoin -count "$count" \
	./internal/shard | tee "$raw"

go run ./cmd/woltsim -csv "$csvdir" -trials 2 -users 18 -extenders 8 shard \
	> /dev/null
csv="$(find "$csvdir" -name '*.csv' | head -n 1)"

awk -v cores="$cores" -v csv="$csv" '
BEGIN {
	printf "{\n  \"cores\": %s,\n  \"joins\": [\n", cores
	# Gap per shard count at the largest user population (last row wins
	# per K as the CSV is ordered by ascending users).
	FS = ","
	while ((getline line < csv) > 0) {
		nf = split(line, f, ",")
		if (f[1] == "users" || nf < 5) continue
		gap[f[2]] = f[5]
	}
	FS = " "
}
/^Benchmark/ {
	name = $1; iters = $2
	ns = "null"; join = "null"
	for (i = 3; i <= NF; i++) {
		if ($(i) == "ns/op") ns = $(i - 1)
		if ($(i) == "ns/join") join = $(i - 1)
	}
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"ns_per_join\": %s}", \
		name, iters, ns, join
}
END {
	printf "\n  ],\n  \"gap_pct\": {"
	m = 0
	for (k = 1; k <= 4; k++) {
		if (k in gap) {
			if (m++) printf ", "
			printf "\"%s\": %s", k, gap[k]
		}
	}
	print "}\n}"
}
' "$raw" > "$out"

echo "wrote $out"
