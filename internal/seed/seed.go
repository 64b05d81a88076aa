// Package seed derives collision-free pseudorandom seed streams from a
// single experiment seed.
//
// The repo's determinism contract (DESIGN.md §7) requires every unit of
// parallel work — a trial, a grid cell, a MAC run — to seed its
// randomness as a pure function of its indices, never of scheduling.
// The original additive convention (seed+trial, seed+100+active,
// seed+pi*1000+trial) satisfies purity but not independence: distinct
// logical streams land on overlapping integers, so "trial 103 of stream
// A" and "trial 3 of stream B" silently share one RNG sequence and the
// averaged results correlate. This is the classic sequential-seeding
// pitfall that splittable generators were designed to eliminate (Steele,
// Lea & Flood, "Fast Splittable Pseudorandom Number Generators",
// OOPSLA 2014).
//
// Derive replaces all of that arithmetic with a SplitMix64-style keyed
// hash: each (stream, index) pair is absorbed through two rounds of the
// SplitMix64 finalizer. Within one (base, stream) pair the map
// index → seed is a bijection composed with a fixed permutation, so two
// distinct indices of the same stream can never collide; seeds of
// different streams are decorrelated by the avalanche of the finalizer
// (any colliding pair would be a 64-bit hash collision, not a
// small-offset accident).
package seed

import "math/rand"

// Stream identifies one logical consumer of randomness. Every
// experiment driver that derives per-index seeds owns a distinct
// constant, so no two drivers can ever share an RNG sequence, no matter
// how their index ranges overlap.
type Stream uint64

const (
	// streamZero is deliberately unused: a zero-valued Stream in a call
	// site is almost always a forgotten argument.
	streamZero Stream = iota

	// NetsimTrial seeds trial t's topology in netsim.RunStatic.
	NetsimTrial
	// NetsimPositions seeds arrival placement in netsim.RunDynamic.
	NetsimPositions
	// SweepPoint and SweepTrial nest: point pi's sub-base is
	// Derive(seed, SweepPoint, pi), and trial t of that point seeds with
	// Derive(sub-base, SweepTrial, t).
	SweepPoint
	SweepTrial
	// Fig2aLocation seeds the per-location 802.11 MAC runs of Fig 2a.
	Fig2aLocation
	// Fig2bLines seeds the PLC line synthesis and probe noise of Fig 2b.
	Fig2bLines
	// Fig2cSolo and Fig2cShared seed the solo-extender and shared-medium
	// IEEE 1901 MAC runs of Fig 2c (formerly seed+j vs seed+100+active,
	// which collide for nearby offsets).
	Fig2cSolo
	Fig2cShared
	// Fig4Trial seeds the emulated-testbed topologies of Fig 4.
	Fig4Trial
	// ClaimsFig5Trial seeds the model-replay topologies behind the
	// fig5-tradeoff claim check.
	ClaimsFig5Trial
	// ChannelsTrial seeds the channel-scarcity ablation topologies.
	ChannelsTrial
	// QoSTrial seeds the guaranteed-rate ablation topologies.
	QoSTrial
	// NPHardTrial seeds the random PARTITION instances of Theorem 1.
	NPHardTrial
	// GapTrial seeds the small brute-force optimality-gap instances.
	GapTrial
	// StrategyRand seeds a strategy instance's private randomness
	// (internal/strategy; e.g. the random baseline's draws).
	StrategyRand
	// ShardRing seeds the virtual-node positions of the consistent-hash
	// ring (internal/shard); the index packs (member, vnode) as
	// member*vnodes+vnode.
	ShardRing
	// ShardKey seeds the per-extender key hashes looked up on the ring.
	ShardKey
	// ShardEngine seeds shard member engines' policy randomness, indexed
	// by member ID.
	ShardEngine
	// ShardTrial seeds the per-unit topologies of the shard experiment.
	ShardTrial
	// DeltaFuzz seeds the random instances and move sequences of the
	// delta-vs-full differential fuzz harness (internal/model).
	DeltaFuzz
	// DeltaBench seeds the networks and probe schedules of the
	// delta-evaluation benchmarks behind BENCH_delta.jsonl.
	DeltaBench
	// LocalSearchFuzz seeds the random instances, start assignments and
	// perturbations of the local-search differential harness
	// (internal/localsearch).
	LocalSearchFuzz
	// AnytimeBench seeds the churn perturbations of the warm re-solve
	// benchmarks behind BENCH_anytime.jsonl.
	AnytimeBench
	// CityTrace seeds a city run's churn trace (internal/city via
	// internal/workload).
	CityTrace
	// CityUser roots a city user's private sub-hierarchy: the user's base
	// is Derive(citySeed, CityUser, userID) and its scalar draws come
	// from the CityDraw stream under that base.
	CityUser
	// CityDraw indexes a city user's successive scalar draws (position,
	// roam steps) under its CityUser base — a counter-mode stream, so a
	// million users don't need a million live *rand.Rand states.
	CityDraw
	// CityExtender seeds per-extender deployment draws (PLC capacities),
	// indexed by extender ID.
	CityExtender
	// CityTrial seeds the per-trial city runs of the woltsim experiment.
	CityTrial
)

// golden is the SplitMix64 increment, the odd integer closest to
// 2^64/φ; multiplying by it is a bijection on uint64 that spreads
// consecutive inputs across the word.
const golden = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 output finalizer (a bijection on uint64 with
// full avalanche).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Derive returns the seed of element index within the given stream,
// rooted at base. It is a pure function of its three arguments, and for
// a fixed (base, stream) it is injective in index: two elements of one
// stream never share a seed.
func Derive(base int64, stream Stream, index int64) int64 {
	z := mix64(uint64(base) + golden)
	z = mix64(z + golden*uint64(stream))
	z = mix64(z + golden*uint64(index))
	return int64(z)
}

// Rand returns a generator seeded with Derive(base, stream, index). It
// is the only sanctioned way to construct a *rand.Rand for a derived
// stream: scripts/lint-seeds.sh rejects direct rand.New(rand.NewSource(
// calls outside this package, so call sites cannot silently bypass the
// stream scheme.
func Rand(base int64, stream Stream, index int64) *rand.Rand {
	return rand.New(rand.NewSource(Derive(base, stream, index)))
}

// Root returns a generator seeded directly with s, for the package
// roots of a seed hierarchy (topology generation, churn traces, walker
// fleets) whose seed is itself already a derived or user-chosen value.
func Root(s int64) *rand.Rand {
	return rand.New(rand.NewSource(s))
}
