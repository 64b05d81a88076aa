// Package shard partitions the WOLT control plane across multiple CC
// engines so association decisions scale beyond one controller's socket
// and CPU budget (ROADMAP: sharded control plane).
//
// A deterministic consistent-hash ring (seeded via internal/seed, with
// virtual nodes) assigns every extender to exactly one shard member.
// Each member runs a transport-free control.Engine restricted to its
// owned extenders. Both compositions below are configured by one Config
// whose embedded control.EngineConfig is the member template (member m
// runs it over its owned extenders with seed.Derive(Seed, ShardEngine,
// m)), and both route by one rule, OwnerForRates: a user belongs to the
// member owning its best-rate extender.
//
//   - Coordinator: N in-process engines behind one API, with cross-shard
//     handoffs on scan updates and rebalancing when a shard joins or
//     leaves. Used by the "shard" experiment and the integration tests.
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
// counts while keeping ring rebuilds cheap.
const DefaultVirtualNodes = 64

// Ring is a deterministic consistent-hash ring mapping extenders to
// shard members. It is not safe for concurrent mutation; the coordinator
// guards it with its own lock.
type Ring struct {
	base   int64
	vnodes int
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	member int
}

// NewRing creates an empty ring rooted at the given seed. vnodes <= 0
// selects DefaultVirtualNodes.
func NewRing(base int64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{base: base, vnodes: vnodes}
}

// Add places a member's virtual nodes on the ring. Adding an existing
// member is a no-op.
func (r *Ring) Add(member int) {
	for _, p := range r.points {
		if p.member == member {
			return
		}
	}
	for v := 0; v < r.vnodes; v++ {
		idx := int64(member)*int64(r.vnodes) + int64(v)
		h := uint64(seed.Derive(r.base, seed.ShardRing, idx))
		r.points = append(r.points, ringPoint{hash: h, member: member})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

// Remove deletes a member's virtual nodes from the ring.
func (r *Ring) Remove(member int) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members returns the distinct member IDs on the ring, sorted.
func (r *Ring) Members() []int {
	set := map[int]struct{}{}
	for _, p := range r.points {
		set[p.member] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// Owner returns the member owning extender j: the successor of the
// extender's key hash on the ring (wrapping around), or -1 on an empty
// ring.
func (r *Ring) Owner(extender int) int {
	if len(r.points) == 0 {
		return -1
	}
	key := uint64(seed.Derive(r.base, seed.ShardKey, int64(extender)))
	i := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= key
	})
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// OwnerMap returns the extender→member map for numExtenders extenders.
func (r *Ring) OwnerMap(numExtenders int) []int {
	owners := make([]int, numExtenders)
	for j := range owners {
		owners[j] = r.Owner(j)
	}
	return owners
}

// newRing builds the ring holding members 0..shards-1: the one
// construction NewCoordinator, Listen and OwnerMapFor share.
func newRing(base int64, shards, virtualNodes int) *Ring {
	r := NewRing(base, virtualNodes)
	for m := 0; m < shards; m++ {
		r.Add(m)
	}
	return r
}

// OwnerMapFor recomputes the deterministic extender→member map both
// transports derive from (seed, shards, virtualNodes): any process
// sharing those three values routes identically without asking the
// plane. Clients use it with OwnerForRates to dial the owning member
// directly and skip the redirect hop.
func OwnerMapFor(seed int64, shards, virtualNodes, numExtenders int) []int {
	return newRing(seed, shards, virtualNodes).OwnerMap(numExtenders)
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
