package shard

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"maps"
	"reflect"
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

// TestCoordinatorDirectiveStream pins the coordinator's whole output
// stream — directives with their reassociation flags, errors, handoff
// counts and the final merged counters and assignment — across joins,
// updates, leaves, roaming handoffs and rebalances under four policies.
// After each rebalance the merged assignment must equal the union of
// the members' own assignments.
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
		}, 0x62694c4bc4bb96a3},
		{"wolt", control.EngineConfig{Policy: control.PolicyWOLT}, 0xbe13cfdbd6a1cd0e},
		{"greedy", control.EngineConfig{Policy: control.PolicyGreedy}, 0x1520fd38d58836b4},
		{"rssi", control.EngineConfig{Policy: control.PolicyRSSI}, 0xaba12c85ae97db98},
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
				st := c.StatsWithAssignment()
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
				switch op {
				case 500, 1500:
					id, n, err := c.AddShard()
					d.int(id)
					d.int(n)
					d.err(err)
					checkMerged()
					continue
				case 1000:
					n, err := c.RemoveShard(1)
					d.int(n)
					d.err(err)
					checkMerged()
					continue
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
			st := c.StatsWithAssignment()
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
