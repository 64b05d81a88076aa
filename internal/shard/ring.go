// Package shard partitions the WOLT control plane across multiple CC
// engines so association decisions scale beyond one controller's socket
// and CPU budget (ROADMAP: sharded control plane).
//
// A deterministic consistent-hash ring (seeded via internal/seed, with
// virtual nodes) assigns every extender to exactly one shard member.
// Membership is static: the ring holds members 0..Shards-1, fixed when
// the plane is built. Each member runs a transport-free control.Engine
// restricted to its owned extenders. Both compositions below are
// configured by one Config whose embedded control.EngineConfig is the
// member template (member m runs it over its owned extenders with
// seed.Derive(Seed, ShardEngine, m)), and both route by one rule,
// OwnerForRates: a user belongs to the member owning its best-rate
// extender.
//
//   - Coordinator: N in-process engines behind one API, with cross-shard
//     handoffs on scan updates. Used by the "shard" experiment, the city
//     harness and the integration tests.
//   - Plane: N TCP control.Servers (one process or one member per
//     process; PlaneConfig adds the listen addresses and socket knobs)
//     that bounce mis-routed joins to the owning member with typed
//     MsgRedirect messages, which control.Agent follows. MergeStats
//     folds the members' snapshots into one view, for the Plane and for
//     clients probing members over the wire.
//
// Determinism: ring positions and extender keys are pure functions of
// (seed, member, vnode) and (seed, extender) through internal/seed, so
// every process that shares a seed computes the identical extender→shard
// map (OwnerMapFor) — the property that lets shard members and clients
// route without talking to each other.
package shard

import (
	"sort"

	"github.com/plcwifi/wolt/internal/seed"
)

// DefaultVirtualNodes is the per-member virtual node count. 64 vnodes
// keep the expected ownership imbalance below ~15% for small member
// counts while keeping ring builds cheap.
const DefaultVirtualNodes = 64

type ringPoint struct {
	hash   uint64
	member int
}

// ringPoints places the virtual nodes of members 0..shards-1 on the
// ring rooted at base, sorted by hash (ties to the lower member ID).
func ringPoints(base int64, shards, vnodes int) []ringPoint {
	points := make([]ringPoint, 0, shards*vnodes)
	for m := 0; m < shards; m++ {
		for v := 0; v < vnodes; v++ {
			idx := int64(m)*int64(vnodes) + int64(v)
			h := uint64(seed.Derive(base, seed.ShardRing, idx))
			points = append(points, ringPoint{hash: h, member: m})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].member < points[j].member
	})
	return points
}

// OwnerMapFor computes the deterministic extender→member map both
// transports derive from (base seed, shards, virtualNodes): extender j
// belongs to the successor of its key hash on the ring (wrapping
// around), or -1 when the ring is empty. virtualNodes <= 0 selects
// DefaultVirtualNodes. Any process sharing those three values routes
// identically without asking the plane; clients use the map with
// OwnerForRates to dial the owning member directly and skip the
// redirect hop.
func OwnerMapFor(base int64, shards, virtualNodes, numExtenders int) []int {
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	points := ringPoints(base, shards, virtualNodes)
	owners := make([]int, numExtenders)
	for j := range owners {
		if len(points) == 0 {
			owners[j] = -1
			continue
		}
		key := uint64(seed.Derive(base, seed.ShardKey, int64(j)))
		i := sort.Search(len(points), func(i int) bool {
			return points[i].hash >= key
		})
		if i == len(points) {
			i = 0
		}
		owners[j] = points[i].member
	}
	return owners
}

// ownedSets groups extenders by owning member, indexed by member ID;
// a member owning nothing gets an empty entry.
func ownedSets(shards int, ownerOf []int) [][]int {
	sets := make([][]int, shards)
	for j, m := range ownerOf {
		sets[m] = append(sets[m], j)
	}
	return sets
}

// OwnerForRates is the routing rule: a scan report belongs to the
// member owning the user's best-rate extender. It returns -1 when the
// user reaches nothing (or its best extender is outside ownerOf).
func OwnerForRates(ownerOf []int, rates []float64) int {
	best := bestExtender(rates)
	if best < 0 || best >= len(ownerOf) {
		return -1
	}
	return ownerOf[best]
}

// bestExtender returns the index of the highest positive rate (ties go
// to the lowest extender ID), or -1 when the user reaches nothing.
func bestExtender(rates []float64) int {
	best, bestRate := -1, 0.0
	for j, r := range rates {
		if r > bestRate {
			best, bestRate = j, r
		}
	}
	return best
}
