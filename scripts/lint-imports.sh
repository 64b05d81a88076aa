#!/bin/sh
# lint-imports.sh — keep internal/baseline an implementation detail of
# the strategy layer, hold the other package-layer rules below, and
# keep deleted identifiers from coming back.
#
# Every consumer (simulator, experiments, control plane, CLI, facade)
# must go through internal/strategy: one registry, one instrumentation
# point, one scratch discipline. Direct baseline imports are allowed
# only inside internal/strategy and internal/baseline themselves, and
# in test files (which compare strategies against the raw algorithms).
set -eu
cd "$(dirname "$0")/.."

bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/baseline"' --include='*.go' . \
	| grep -v '^\./internal/baseline/' \
	| grep -v '^\./internal/strategy/' \
	| grep -v '_test\.go:' || true)

if [ -n "$bad" ]; then
	echo "import lint: direct internal/baseline import outside the strategy layer:" >&2
	echo "$bad" >&2
	echo "route it through internal/strategy (registry name or passthrough)" >&2
	exit 1
fi

# The shard layer gets no test-file exemption: shards must observe
# policies strictly through control.Engine (and thus the strategy
# registry), so internal/baseline stays unreachable from internal/shard
# in any file.
bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/baseline"' --include='*.go' ./internal/shard/ || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/shard must not reach internal/baseline (not even in tests):" >&2
	echo "$bad" >&2
	echo "shard members drive policies only through control.Engine" >&2
	exit 1
fi

# model.DeltaEval is the stateful O(Δ) evaluator behind the algorithm
# layers' probe loops. Its re-attach discipline (generation counter,
# Matches) is easy to hold inside a solver and easy to violate from ad
# hoc call sites, so only the algorithm packages — internal/baseline,
# internal/core, internal/localsearch, internal/nlp — may construct one
# (internal/model owns it). Everyone else consumes
# delta-evaluated results through the strategy registry's
# instrumentation. Test files are exempt.
bad=$(grep -rn 'model\.DeltaEval' --include='*.go' . \
	| grep -v '^\./internal/model/' \
	| grep -v '^\./internal/baseline/' \
	| grep -v '^\./internal/core/' \
	| grep -v '^\./internal/localsearch/' \
	| grep -v '^\./internal/nlp/' \
	| grep -v '_test\.go:' || true)
if [ -n "$bad" ]; then
	echo "import lint: model.DeltaEval constructed outside the algorithm layers:" >&2
	echo "$bad" >&2
	echo "only internal/{baseline,core,localsearch,nlp} may hold a delta evaluator; use the strategy registry" >&2
	exit 1
fi

# internal/localsearch is pure algorithm layer: it sits below strategy
# (the one package that imports it, for the local-search family's warm
# repairs), so it may depend only on internal/model and internal/seed.
# An import of the registry, the solver pipeline, or any plane above
# them would be a layering cycle waiting to happen. Test files are
# exempt (bench_test.go prices the warm re-solve against the full solve
# in internal/core).
bad=$(grep -rnE '"github.com/plcwifi/wolt/internal/(strategy|core|control|shard|netsim|experiments|baseline|nlp)"' \
	--include='*.go' ./internal/localsearch/ \
	| grep -v '_test\.go:' || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/localsearch must stay in the algorithm layer (model+seed only):" >&2
	echo "$bad" >&2
	echo "hand results up through the strategy registry instead" >&2
	exit 1
fi
# Conversely, internal/strategy is the only package that imports
# internal/localsearch: every warm repair is a registry strategy
# (wolt-hillclimb, wolt-kopt, wolt-anneal), and internal/core keeps only
# the two-phase solve and wolt-incremental's cold target-directed moves.
# localsearch's own test files are the one exemption.
bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/localsearch"' --include='*.go' . \
	| grep -v '^\./internal/strategy/' \
	| grep -v '^\./internal/localsearch/[^/]*_test\.go:' || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/localsearch imported outside internal/strategy:" >&2
	echo "$bad" >&2
	echo "run a warm repair through the strategy registry (wolt-hillclimb) instead" >&2
	exit 1
fi
# internal/city is a pure harness: it composes the planes (shard,
# control) with the workload generators (workload, eventsim, seed) and
# carries a strategy.Budget through to the engines. It must never reach
# into the model or algorithm layers directly — a city that builds its
# own model.Network or calls a solver is no longer measuring the plane
# it claims to. No test-file exemption: the differential tests compare
# planes against each other, not against raw algorithms.
bad=$(grep -rnE '"github.com/plcwifi/wolt/internal/(model|baseline|core|nlp|localsearch|netsim|hungarian|topology|radio|plc)"' \
	--include='*.go' ./internal/city/ || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/city must drive the plane only via shard/control/workload/eventsim/seed:" >&2
	echo "$bad" >&2
	echo "scan reports and budgets are the only interface; do not reach the model or algorithm layers" >&2
	exit 1
fi
# internal/model is the evaluation-layer leaf: the network model, the
# delta evaluator, and the utility family (model.Utility — every α-fair
# objective definition) all live here, beneath every solver. Utility
# semantics must not leak upward into nlp/core/localsearch-specific
# definitions, and model must not reach up either: its non-test files
# are stdlib-only (tests may use internal/seed for derived streams).
bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/' --include='*.go' ./internal/model/ \
	| grep -v '_test\.go:' || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/model must stay a stdlib-only leaf package:" >&2
	echo "$bad" >&2
	echo "utility/objective definitions belong in internal/model; solvers adapt to them, not vice versa" >&2
	exit 1
fi
# internal/wire is the binary wire codec: a stdlib-only leaf beneath
# the control plane. It defines the frame layout and the Message/Stats
# types that internal/control re-exports as aliases; pulling any other
# internal package into it would couple the on-the-wire format to model
# or plane internals. No test-file exemption — even its fuzzers need
# nothing above stdlib.
bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/' --include='*.go' ./internal/wire/ || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/wire must stay a stdlib-only leaf package:" >&2
	echo "$bad" >&2
	echo "the wire codec defines the protocol; planes adapt to it, not vice versa" >&2
	exit 1
fi
# Conversely, only the transport layers — internal/control (framed
# connections, the hello handshake) and internal/shard (redirect framing) — may import
# internal/wire directly. Everyone above them uses the control-package
# aliases (control.Message, control.Stats), so the codec can evolve
# behind one seam. Test files inside those two packages are covered by
# the path allowlist; tests elsewhere must also go through control.
bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/wire"' --include='*.go' . \
	| grep -v '^\./internal/wire/' \
	| grep -v '^\./internal/control/' \
	| grep -v '^\./internal/shard/' || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/wire imported outside the transport layer (control, shard):" >&2
	echo "$bad" >&2
	echo "use the control-package aliases (control.Message, control.Stats) instead" >&2
	exit 1
fi
# internal/stats is a leaf utility (streaming quantile sketches for
# host-side measurements): stdlib only, so every layer — harness, CLI,
# experiments — may use it without dragging plane or algorithm code
# along. Any internal import from it is a layering violation. No
# test-file exemption; even its tests need nothing above stdlib.
bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/' --include='*.go' ./internal/stats/ || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/stats must stay a stdlib-only leaf package:" >&2
	echo "$bad" >&2
	echo "move anything needing plane or algorithm types out of internal/stats" >&2
	exit 1
fi
# Removed names stay removed. The binary wire codec is the only agent↔CC
# encoding (the JSON fallback, its codec knobs and the tcp-json city
# plane are gone), policies are plain strategy-registry strings, the
# proportional-fair variant is core.Assign with model.ProportionalFairness,
# shard routing has one exported rule (shard.OwnerForRates; the
# BestExtender duplicate and the unused Coordinator.NumShards are gone),
# and netsim policies are netsim.Policy values over the strategy
# registry (the per-policy types, their caching dispatch and sequential
# escape hatch, the duplicate strongest-signal rule and the experiments'
# copy of Policy.Assign are gone; baseline.Strongest is the one rule),
# the hill climb visits users through localsearch's persistent
# deficitRank (the per-pass heap and the function that filled it are
# gone), wolt-hillclimb is the only warm repair (core's hill-climb
# fork behind wolt-incremental and its options struct are gone), and
# Searcher.Search is the one search entry point (the HillClimb, KOpt and
# Anneal wrappers and the unused Budget.Unlimited are gone), and a shard
# member's engine is its one user table (the coordinator's per-user
# scan copies, their pool and the directive fold over them are gone),
# and every option has a caller: the Hungarian algorithm is the one
# Phase I engine (the auction solver and the Phase I selector are
# gone), the annealer's schedule is constants (its options struct is
# gone), the city's roam step is a constant, and a wire.MsgType is its
# own one-byte code (the string-to-code tables are gone), and an agent's
# keepalive is a re-armed timer (the goroutine and ticker loop are gone),
# and shard membership is static: a ring fixed at construction (live
# resharding, its routing snapshot and epoch, the mutable Ring type and
# the engine's global-width report read-back are gone), and a member
# engine's rows are stable slots (the evaluator's member-index shift and
# the visit order's index shift that every insert and remove paid are
# gone), and a row edit is an append, a set or a remove that moves the
# last row into the freed one (the positional insert, the shift edit and
# the evaluator's member-list rebuild after it are gone).
# This list only needs names a caller could bring back: a deleted
# exported name that returns without a non-test caller (or a config
# field no caller sets) already fails the export check in
# exports_test.go, which runs under go test ./....
# Test files are covered too; the one exemption is the experiments test
# that pins the refusal of the retired "tcp-json" plane name.
bad=$(grep -rnE 'jsonConn|CodecJSON|DialCodec|PolicyKind|"wolt-fair"|"tcp-json"|core\.AssignProportionalFair|\bBestExtender|\bNumShards\(|StrategyPolicy|RandomPolicy|sequentialOnly|strategyBacked|forcesSequential|assignBestRSSI|assignStatic|deficitOrder|sweepOrder|WarmOptions|assignWarm|\.Unlimited\(|\.HillClimb\(|\.KOpt\(|\.Anneal\(|scanPool|takeScan|releaseScan|userRec|scanPoolCap|applyLocked|Phase1Solver|Phase1Auction|Phase1Hungarian|AuctionMaximize|AnnealOptions|\bInitTemp\b|FloorFrac|\bStepFrac\b|\btypeCode\b|\bcodeType\b|keepaliveLoop|AddShard|RemoveShard|AppendReport|NewRing|routing\.Load|\.Epoch\(\)|shiftMembers|func \(r \*deficitRank\) shift\(|r\.shift\(|InsertRow|EditShift|renumber\(' \
	--include='*.go' . \
	| grep -v '^\./internal/experiments/experiments_test\.go:.*"tcp-json"' || true)
if [ -n "$bad" ]; then
	echo "import lint: removed identifier reintroduced:" >&2
	echo "$bad" >&2
	echo "the wire codec is binary-only, policies are registry strings, wolt-pf/model.ProportionalFairness replace the fair aliases, and shard.OwnerForRates is the one routing rule, netsim policies are netsim.Policy values, the hill climb's visit order is the persistent localsearch.deficitRank, wolt-hillclimb is the one warm repair, Searcher.Search is the one search entry point, a shard member's control.Engine is its one user table, Hungarian is the one Phase I engine, the annealing schedule and roam step are constants, a wire.MsgType is its own wire code, the agent keepalive is a timer, and shard membership is fixed at construction (OwnerMapFor is the one ring), and engine rows are stable slots whose edits no replay shifts, and a row edit appends, sets or moves the last row into a freed one" >&2
	exit 1
fi
# One bench driver: scripts/bench.sh runs every recorded benchmark and
# appends to BENCH_<suite>.jsonl. The per-suite runners it replaced and
# their single-document JSON outputs stay gone: no scripts/bench-*.sh
# file, and no mention of a deleted runner or of a .json BENCH file in
# code, scripts, CI or the living docs. CHANGES.md and ROADMAP.md keep
# the history, and the other Markdown files are paper notes and change
# requests that quote it.
old_bench='bench-(anytime|city|delta|frontier|shard|solve|wire)\.sh|BENCH_[a-z]+\.json\b'
bad=$( (ls scripts/bench-*.sh 2>/dev/null || true)
	grep -rnE "$old_bench" --exclude-dir=.git --exclude-dir=.bench_build --exclude='*.md' . || true
	grep -nE "$old_bench" README.md DESIGN.md EXPERIMENTS.md perfbench/METRICS.md \
		.claude/skills/verify/SKILL.md || true)
if [ -n "$bad" ]; then
	echo "import lint: a per-suite bench runner or a .json BENCH file is back:" >&2
	echo "$bad" >&2
	echo "record through scripts/bench.sh SUITE, which appends to BENCH_<suite>.jsonl" >&2
	exit 1
fi
echo "import lint: clean"
