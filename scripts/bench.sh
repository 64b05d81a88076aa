#!/bin/sh
# Benchmarks the parallel evaluation engine (sweep + static trial
# fan-out) and records the runs as JSON in BENCH_sweep.json at the repo
# root. Usage: scripts/bench.sh [count]
set -eu

cd "$(dirname "$0")/.."
count="${1:-3}"
out="BENCH_sweep.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'Sweep|Static' -benchmem -count "$count" \
	./internal/sweep ./internal/netsim | tee "$raw"

awk '
BEGIN { print "[" }
/^Benchmark/ {
	name = $1; iters = $2; ns = $3; bpo = "null"; apo = "null"
	for (i = 4; i <= NF; i++) {
		if ($(i) == "B/op") bpo = $(i - 1)
		if ($(i) == "allocs/op") apo = $(i - 1)
	}
	if (n++) printf ",\n"
	printf "  {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", \
		name, iters, ns, bpo, apo
}
END { print "\n]" }
' "$raw" > "$out"

echo "wrote $out"
