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

func (d goldenDigest) assignment(a model.Assignment) {
	d.int(len(a))
	for _, j := range a {
		d.int(j)
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
// after every row edit of a 60-step arrival/departure/rescan stream.
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
		{"wolt-kopt", false, 300, 0xbcd717060ccdfc8b},
		{"wolt-kopt", true, 300, 0x9f531c2586d60878},
		{"wolt-kopt", true, 0, 0xbcad9e7df77ca6e8},
		{"wolt-anneal", false, 300, 0x75b6e843756635b4},
		{"wolt-anneal", true, 300, 0x1f5b98c6696a1a97},
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
			n.InsertRow(i, goldenRow(rng, numExt))
		}
		assign, err := st.Solve(n)
		if err != nil {
			t.Fatal(err)
		}
		d.assignment(assign)
		for step := 0; step < steps; step++ {
			i := rng.Intn(n.NumUsers())
			switch roll := rng.Float64(); {
			case roll < 0.3:
				n.InsertRow(i, goldenRow(rng, numExt))
				assign = append(assign, 0)
				copy(assign[i+1:], assign[i:])
				assign[i] = model.Unassigned
			case roll < 0.5 && n.NumUsers() > numExt:
				n.RemoveRow(i)
				assign = append(assign[:i], assign[i+1:]...)
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
			d.assignment(assign)
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
