#!/bin/sh
# bench.sh — the one benchmark driver. It runs the Go benchmarks behind
# every recorded performance claim and appends their results to
# BENCH_<suite>.jsonl at the repo root, one JSON object per line:
#
#   {"suite": "wire", "bench": "BenchmarkWireEncodeDecode", "procs": 2,
#    "iters": 1000000, "metrics": {"ns/op": 1018, "B/op": 0, ...},
#    "host": {"nproc": 2, "gomaxprocs": 2, "go": "go1.24.0",
#             "commit": "a16a359", "date": "2026-10-18T12:00:00Z"}}
#
# bench is the benchmark name with its -N GOMAXPROCS suffix split off
# into procs; metrics holds every "value unit" pair go test printed,
# keyed by unit. The files are append-only: each recording adds rows.
#
# Gates live in the benchmarks themselves (b.Fatalf), so the driver
# fails exactly when go test fails, and a failed suite appends nothing.
#
# Recording sets the WOLT_CITY_1M and WOLT_CITY_TCP gates of the two
# long city runs unless the caller has set them; an empty value skips
# that run (on 2 vCPUs the 10^6-user city takes about a minute and
# peaks near 0.5 GB of RSS).
#
# Usage:
#   scripts/bench.sh SUITE|all [count]   record (count defaults to 3)
#   scripts/bench.sh smoke               run every row once, record nothing
set -eu
cd "$(dirname "$0")/.."

# The suite table: suite, package, -bench regex, -benchtime ("-" keeps
# go test's default). It is the one list of recorded benchmarks.
table='
sweep     ./internal/sweep         Sweep
sweep     ./internal/netsim        Static
solve     ./internal/core          LargeSolve
solve     ./internal/nlp           Phase2Campus|Phase2City
delta     ./internal/model         Delta
anytime   ./internal/localsearch   WarmResolve|WarmRepair
frontier  .                        FrontierAlpha
shard     ./internal/shard         CoordinatorJoin
shard     ./internal/experiments   ShardGap
city      ./internal/city          CitySmoke
city      ./internal/city          CitySustained|CityHeap     1x
city      ./internal/control       EngineChurnEvent|EngineJoinLeave
wire      ./internal/wire          WireEncodeDecode
wire      ./internal/control       AgentLifecycle
wire      ./internal/city          CityTCPSmoke
wire      ./internal/city          CityTCP10K                 1x
'
suites=$(echo "$table" | awk 'NF && !seen[$1]++ { printf "%s ", $1 }')

usage() {
	echo "usage: scripts/bench.sh SUITE|all [count] | smoke   (suites: $suites)" >&2
	exit 2
}

# run SUITE COUNT BENCHTIME OUT: every table row of SUITE through
# go test, output shown and appended to OUT; exits on the first failure.
# BENCHTIME "-" keeps each row's own.
run() {
	echo "$table" | awk -v s="$1" '$1 == s' | while read -r _ pkg re bt; do
		[ "$3" = - ] || bt=$3
		status=$(mktemp)
		{
			go test -run '^$' -bench "$re" ${bt:+-benchtime "$bt"} -benchmem \
				-count "$2" -timeout 2h "$pkg" </dev/null 2>&1 || echo $? >"$status"
		} | tee -a "$4"
		code=$(cat "$status")
		rm -f "$status"
		[ -z "$code" ] || exit "$code"
	done
}

# parse SUITE HOST: go test output on stdin, JSON Lines on stdout.
parse() {
	awk -v suite="$1" -v host="$2" '
	$1 ~ /^Benchmark/ && $2 ~ /^[0-9]+$/ {
		bench = $1; procs = 1
		if (match(bench, /-[0-9]+$/)) {
			procs = substr(bench, RSTART + 1)
			bench = substr(bench, 1, RSTART - 1)
		}
		m = ""
		for (i = 3; i < NF; i += 2) {
			v = $i
			if (v !~ /^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?$/) v = "\"" v "\""
			m = m (m == "" ? "" : ", ") "\"" $(i + 1) "\": " v
		}
		printf "{\"suite\": \"%s\", \"bench\": \"%s\", \"procs\": %s, \"iters\": %s, \"metrics\": {%s}, \"host\": %s}\n", \
			suite, bench, procs, $2, m, host
	}'
}

[ $# -ge 1 ] || usage
if [ "$1" = smoke ]; then
	[ $# -eq 1 ] || usage
	for s in $suites; do
		run "$s" 1 1x /dev/null
	done
	exit 0
fi

case " $suites all " in
*" $1 "*) ;;
*) usage ;;
esac
[ "$1" = all ] || suites=$1
count=${2:-3}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

export WOLT_CITY_1M="${WOLT_CITY_1M-1}" WOLT_CITY_TCP="${WOLT_CITY_TCP-1}"
nproc=$(getconf _NPROCESSORS_ONLN)

# commit names the code measured: the described commit and, for a tree
# with uncommitted changes, that working tree's hash as well, so two
# different edits of one commit get two tags. The hash is what
# `git write-tree` gives after `git add -A`, on a scratch copy of the
# index, so the repository's own index is left as it was.
commit=$(git describe --always --dirty 2>/dev/null || echo unknown)
case $commit in
*-dirty)
	index=$(mktemp)
	cp "$(git rev-parse --git-path index)" "$index" 2>/dev/null || rm -f "$index"
	tree=$(GIT_INDEX_FILE=$index git add -A && GIT_INDEX_FILE=$index git write-tree) || tree=unknown
	rm -f "$index"
	commit=$commit-$(echo "$tree" | cut -c1-12)
	;;
esac
host=$(printf '{"nproc": %s, "gomaxprocs": %s, "go": "%s", "commit": "%s", "date": "%s"}' \
	"$nproc" "${GOMAXPROCS:-$nproc}" "$(go env GOVERSION)" "$commit" \
	"$(date -u +%Y-%m-%dT%H:%M:%SZ)")

for s in $suites; do
	: >"$raw"
	run "$s" "$count" - "$raw"
	rows=$(parse "$s" "$host" <"$raw" | tee -a "BENCH_$s.jsonl" | wc -l)
	echo "appended $rows rows to BENCH_$s.jsonl"
done
