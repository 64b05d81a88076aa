package strategy

import (
	"reflect"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
)

// TestWoltAlphaZeroMatchesWolt: the α=0 member of the family must
// reproduce plain wolt bit-for-bit — same assignment, and (through the
// observer) the same sum-rate aggregate.
func TestWoltAlphaZeroMatchesWolt(t *testing.T) {
	n := testNetwork(t, 24, 4)
	solve := func(name string, cfg Config) (model.Assignment, Stats) {
		var got []Stats
		cfg.Observer = func(s Stats) { got = append(got, s) }
		st, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assign, err := st.Solve(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 1 {
			t.Fatalf("%s: observer saw %d records, want 1", name, len(got))
		}
		return assign, got[0]
	}

	base, baseStats := solve("wolt", Config{ModelOpts: model.Options{Redistribute: true}})
	alpha, alphaStats := solve("wolt-alpha", Config{ModelOpts: model.Options{Redistribute: true}, Alpha: 0})
	if !reflect.DeepEqual(base, alpha) {
		t.Fatal("wolt-alpha with Alpha=0 diverged from wolt")
	}
	if alphaStats.Aggregate != baseStats.Aggregate {
		t.Fatalf("wolt-alpha Aggregate %v != wolt %v", alphaStats.Aggregate, baseStats.Aggregate)
	}
	if alphaStats.Utility != alphaStats.Aggregate {
		t.Fatalf("α=0 Utility %v != Aggregate %v", alphaStats.Utility, alphaStats.Aggregate)
	}
}

// TestFairnessVariantsEmitFullStats: the proportional-fair member goes
// through the common two-phase machinery, so it reports phase timings,
// augmentations, and the priced utility like every other variant.
func TestFairnessVariantsEmitFullStats(t *testing.T) {
	n := testNetwork(t, 24, 4)
	const name = "wolt-pf"
	var got []Stats
	st, err := New(name, Config{
		ModelOpts: model.Options{Redistribute: true},
		Observer:  func(s Stats) { got = append(got, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Solve(n); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(got) != 1 {
		t.Fatalf("%s: observer saw %d records, want 1", name, len(got))
	}
	s := got[0]
	if s.Phase1 <= 0 || s.Phase2 <= 0 {
		t.Errorf("%s: phase timings = %v, %v; want both > 0", name, s.Phase1, s.Phase2)
	}
	if s.HungarianAugmentations < n.NumExtenders() {
		t.Errorf("%s: HungarianAugmentations = %d, want >= %d",
			name, s.HungarianAugmentations, n.NumExtenders())
	}
	if s.Phase2Iterations <= 0 {
		t.Errorf("%s: Phase2Iterations = %d, want > 0", name, s.Phase2Iterations)
	}
	if s.Aggregate <= 0 {
		t.Errorf("%s: Aggregate = %v, want > 0", name, s.Aggregate)
	}
	if s.Utility == 0 || s.Utility == s.Aggregate {
		t.Errorf("%s: Utility = %v (Aggregate %v), want a distinct PF value",
			name, s.Utility, s.Aggregate)
	}
}
