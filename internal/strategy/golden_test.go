package strategy

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
)

// goldenDigest folds a search stream's observable outputs into one
// FNV-64a hash: every assignment entry and every Stats field except the
// wall-clock timings.
type goldenDigest struct{ h hash.Hash64 }

func (d goldenDigest) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
}

func (d goldenDigest) float(v float64) { d.int(int(math.Float64bits(v))) }

// assignment folds a in n's key order, so the digest does not depend
// on which row a user sits in.
func (d goldenDigest) assignment(n *model.Network, a model.Assignment) {
	d.int(len(a))
	for _, i := range rowsByKey(n) {
		d.int(a[i])
	}
}

func (d goldenDigest) stats(s Stats) {
	d.h.Write([]byte(s.Strategy))
	for _, v := range []int{s.Users, s.Extenders, s.Evaluations, s.DeltaProbes,
		s.BoundedProbes, s.Commits, s.Improving} {
		d.int(v)
	}
	d.float(s.Aggregate)
	d.float(s.Utility)
	d.int(len(s.Trajectory))
	for _, v := range s.Trajectory {
		d.float(v)
	}
	d.h.Write([]byte(s.Stop))
}

// goldenRow is a random scan over numExt extenders: each extender is in
// reach with probability 0.7 (at least one always is), at 6–300 Mbps.
func goldenRow(rng *rand.Rand, numExt int) []float64 {
	row := make([]float64, numExt)
	for j := range row {
		if rng.Float64() < 0.7 {
			row[j] = 6 + 294*rng.Float64()
		}
	}
	if k := rng.Intn(numExt); row[k] == 0 {
		row[k] = 6 + 294*rng.Float64()
	}
	return row
}

// TestLocalSearchGolden pins the exact trajectories of wolt-kopt and
// wolt-anneal, which TestCoordinatorDirectiveStream does not cover:
// registry instances with fixed seeds and probe budgets, with and
// without Redistribute, run one cold Solve and then a warm Reassign
// after every row edit of a 60-step arrival/departure/rescan stream on
// a keyed network. The stream draws a position in key order for each
// edit: an arrival is appended with a key that sorts at that position,
// and a departure moves the last row into the freed one.
// The digest covers every assignment and every Stats field but the
// timings, so any change to the search order, the annealing schedule
// or the rng draws shows as a new digest.
func TestLocalSearchGolden(t *testing.T) {
	const (
		numExt = 6
		users  = 36
		steps  = 60
	)
	cases := []struct {
		name         string
		redistribute bool
		probes       int
		want         uint64
	}{
		{"wolt-kopt", false, 300, 0x19a38d648cb52096},
		{"wolt-kopt", true, 300, 0xfa2b05152b46e2c9},
		{"wolt-kopt", true, 0, 0x0b5328c874ed855b},
		{"wolt-anneal", false, 300, 0x75b6e843756635b4},
		{"wolt-anneal", true, 300, 0x63066fb0d2a1dabf},
		{"wolt-anneal", false, 0, 0x7f3dc1a306b009f0},
	}
	for _, tc := range cases {
		d := goldenDigest{fnv.New64a()}
		var improving int
		st, err := New(tc.name, Config{
			ModelOpts: model.Options{Redistribute: tc.redistribute},
			Seed:      11,
			Budget:    Budget{Probes: tc.probes},
			Observer: func(s Stats) {
				improving += s.Improving
				d.stats(s)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		n := &model.Network{PLCCaps: make([]float64, numExt)}
		for j := range n.PLCCaps {
			n.PLCCaps[j] = 60 + 840*rng.Float64()
		}
		for i := 0; i < users; i++ {
			n.AppendRow(i*keyGap, goldenRow(rng, numExt))
		}
		assign, err := st.Solve(n)
		if err != nil {
			t.Fatal(err)
		}
		d.assignment(n, assign)
		for step := 0; step < steps; step++ {
			p := rng.Intn(n.NumUsers())
			i := rowsByKey(n)[p]
			switch roll := rng.Float64(); {
			case roll < 0.3:
				n.AppendRow(keyAt(n, p), goldenRow(rng, numExt))
				assign = append(assign, model.Unassigned)
			case roll < 0.5 && n.NumUsers() > numExt:
				last := len(assign) - 1
				n.RemoveRow(i)
				assign[i] = assign[last]
				assign = assign[:last]
			default:
				row := goldenRow(rng, numExt)
				if j := assign[i]; j != model.Unassigned && row[j] <= 0 {
					assign[i] = model.Unassigned
				}
				n.SetRow(i, row)
			}
			if assign, err = st.(Reassigner).Reassign(n, assign); err != nil {
				t.Fatal(err)
			}
			d.assignment(n, assign)
		}
		label := tc.name
		if tc.redistribute {
			label += "/redistribute"
		}
		if improving == 0 {
			t.Errorf("%s probes=%d: the stream never improved an assignment; it pins nothing", label, tc.probes)
		}
		if got := d.h.Sum64(); got != tc.want {
			t.Errorf("%s probes=%d: digest %#x, want %#x", label, tc.probes, got, tc.want)
		}
	}
}

// keyGap spaces the keys of a network built in key order, so that keyAt
// finds a fresh key between two neighbours for 40 nested inserts.
const keyGap = 1 << 40

// rowsByKey returns n's rows in ascending key order.
func rowsByKey(n *model.Network) []int {
	if rows := n.KeyOrder(nil); rows != nil {
		return rows
	}
	rows := make([]int, n.NumUsers())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// keyAt returns a fresh key that sorts at position p of n's key order,
// between the keys now at positions p-1 and p: an AppendRow with it
// adds the user a positional stream inserts at p.
func keyAt(n *model.Network, p int) int {
	rows := rowsByKey(n)
	switch {
	case len(rows) == 0:
		return 0
	case p == 0:
		return n.Key(rows[0]) - keyGap
	case p == len(rows):
		return n.Key(rows[p-1]) + keyGap
	}
	lo, hi := n.Key(rows[p-1]), n.Key(rows[p])
	if hi-lo < 2 {
		panic("keyAt: no free key between two neighbours")
	}
	return lo + (hi-lo)/2
}
