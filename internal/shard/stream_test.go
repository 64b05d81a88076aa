package shard

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"maps"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/strategy"
)

// streamDigest folds every observable output of a coordinator run into
// one FNV-64a hash, so any change to a directive, a reassociation flag,
// an error, a handoff count or a final counter shows as a new digest.
type streamDigest struct{ h hash.Hash64 }

func (d streamDigest) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
}

func (d streamDigest) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d streamDigest) err(err error) {
	d.bool(err != nil)
	if err != nil {
		d.h.Write([]byte(err.Error()))
	}
}

func (d streamDigest) dirs(dirs []control.Directive) {
	d.int(len(dirs))
	for _, x := range dirs {
		d.int(x.UserID)
		d.int(x.Extender)
		d.bool(x.Reassociation)
	}
}

func (d streamDigest) assignment(a map[int]int) {
	ids := make([]int, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	d.int(len(ids))
	for _, id := range ids {
		d.int(id)
		d.int(a[id])
	}
}

// sparseScan is a user's scan from a position on a ring of numExt
// extenders: it reaches only the extender it stands at and the two
// beside it, so a move of the position moves the best-rate extender
// and, across the ring's ownership, hands the user off. Odd users also
// report RSSI; even users report none.
func sparseScan(rng interface{ Float64() float64 }, userID, pos, numExt int) (rates, rssi []float64) {
	rates = make([]float64, numExt)
	for k := -1; k <= 1; k++ {
		j := (pos + k + numExt) % numExt
		rates[j] = 10 + 90*rng.Float64()
		if k == 0 {
			rates[j] += 100
		}
	}
	if userID%2 == 1 {
		rssi = make([]float64, numExt)
		for j, r := range rates {
			if r > 0 {
				rssi[j] = -90 + 50*rng.Float64()
			}
		}
	}
	return rates, rssi
}

// checkStatsAgree asserts that, with no operation in flight, the
// member-at-a-time Stats and the stop-the-world StatsWithAssignment
// report the same counters, merged and per member, and returns the
// latter.
func checkStatsAgree(t *testing.T, c *Coordinator) Stats {
	t.Helper()
	full, lite := c.StatsWithAssignment(), c.Stats()
	counters := func(st Stats) Stats {
		st.Assignment = nil
		st.PerShard = slices.Clone(st.PerShard)
		for i := range st.PerShard {
			st.PerShard[i].Assignment = nil
		}
		return st
	}
	if got, want := counters(lite), counters(full); !reflect.DeepEqual(got, want) {
		t.Errorf("with no traffic in flight Stats() = %+v, StatsWithAssignment() = %+v", got, want)
	}
	return full
}

// TestCoordinatorDirectiveStream pins the coordinator's whole output
// stream — directives with their reassociation flags, errors, handoff
// counts and the final merged counters and assignment — across joins,
// updates, leaves and roaming handoffs under four policies. At every
// checkpoint the merged assignment must equal the union of the
// members' own assignments, and Stats must agree with
// StatsWithAssignment.
func TestCoordinatorDirectiveStream(t *testing.T) {
	const (
		numExt = 16
		users  = 48
		ops    = 2000
		sd     = 2026
	)
	cases := []struct {
		name string
		ec   control.EngineConfig
		want uint64
	}{
		{"wolt-hillclimb", control.EngineConfig{
			Policy:             "wolt-hillclimb",
			Budget:             strategy.Budget{Probes: 60},
			ReassignOnLeave:    true,
			PlacementOnlyJoins: true,
			FullResolveEvery:   5,
		}, 0x820e8666fcd10418},
		{"wolt", control.EngineConfig{Policy: control.PolicyWOLT}, 0x9e590b5507ba2f0d},
		{"greedy", control.EngineConfig{Policy: control.PolicyGreedy}, 0x1483d404ecb88165},
		{"rssi", control.EngineConfig{Policy: control.PolicyRSSI}, 0x21f5861a8c14a5a3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ec := tc.ec
			ec.PLCCaps = testCaps(numExt)
			ec.ModelOpts = model.Options{Redistribute: true}
			ec.Seed = sd
			c, err := NewCoordinator(Config{Shards: 3, EngineConfig: ec})
			if err != nil {
				t.Fatal(err)
			}
			d := streamDigest{fnv.New64a()}
			rng := seed.Rand(sd, seed.ShardTrial, 1<<20)
			pos := make([]int, users)
			joined := make([]bool, users)
			for i := range pos {
				pos[i] = rng.Intn(numExt)
			}
			checkMerged := func() {
				st := checkStatsAgree(t, c)
				union := make(map[int]int)
				for _, es := range st.PerShard {
					maps.Copy(union, es.Assignment)
				}
				if !reflect.DeepEqual(st.Assignment, union) {
					t.Fatalf("merged assignment (%d users) differs from the members' union (%d users)",
						len(st.Assignment), len(union))
				}
				d.assignment(st.Assignment)
			}
			for op := 0; op < ops; op++ {
				d.int(op)
				if op > 0 && op%500 == 0 {
					checkMerged()
				}
				u := rng.Intn(users)
				roll := rng.Float64()
				switch {
				case roll < 0.02:
					// A scan that reaches nothing is refused.
					_, err := c.Join(u, make([]float64, numExt), nil)
					d.err(err)
				case !joined[u] && roll < 0.05:
					_, err := c.Update(u, make([]float64, numExt), nil)
					d.err(err)
				case !joined[u]:
					rates, rssi := sparseScan(rng, u, pos[u], numExt)
					dirs, err := c.Join(u, rates, rssi)
					d.dirs(dirs)
					d.err(err)
					joined[u] = err == nil
				case roll < 0.2:
					dirs, ok := c.Leave(u)
					d.dirs(dirs)
					d.bool(ok)
					joined[u] = false
				default:
					// Roam: a step along the ring, sometimes a jump.
					if roll < 0.35 {
						pos[u] = rng.Intn(numExt)
					} else {
						pos[u] = (pos[u] + 2*rng.Intn(2) - 1 + numExt) % numExt
					}
					rates, rssi := sparseScan(rng, u, pos[u], numExt)
					dirs, err := c.Update(u, rates, rssi)
					d.dirs(dirs)
					d.err(err)
				}
			}
			st := checkStatsAgree(t, c)
			for _, v := range []int{st.Shards, st.Users, st.Joins, st.Leaves, st.Reassociations,
				st.Handoffs, st.Redirects, st.DroppedReassigns, st.DroppedPushes} {
				d.int(v)
			}
			d.assignment(st.Assignment)
			if st.Handoffs == 0 || st.Reassociations == 0 {
				t.Errorf("stream exercised %d handoffs and %d reassociations, want both > 0",
					st.Handoffs, st.Reassociations)
			}
			if got := d.h.Sum64(); got != tc.want {
				t.Errorf("directive stream digest = %#x, want %#x", got, tc.want)
			}
		})
	}
}
