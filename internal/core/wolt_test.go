package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/plcwifi/wolt/internal/baseline"
	"github.com/plcwifi/wolt/internal/model"
)

// fig3Network is the paper's Fig 3 case study.
func fig3Network() *model.Network {
	return &model.Network{
		WiFiRates: [][]float64{
			{15, 10},
			{40, 20},
		},
		PLCCaps: []float64{60, 20},
	}
}

func TestUtilitiesFig3(t *testing.T) {
	// u_ij = min(c_j/|A|, r_ij) with c/|A| = 30 and 10.
	u := UtilitiesWith(nil, fig3Network())
	want := [][]float64{
		{15, 10},
		{30, 10},
	}
	for i := range want {
		for j := range want[i] {
			if u[i][j] != want[i][j] {
				t.Errorf("u[%d][%d] = %v, want %v", i, j, u[i][j], want[i][j])
			}
		}
	}
}

func TestUtilitiesUnreachable(t *testing.T) {
	n := &model.Network{
		WiFiRates: [][]float64{{0, 20}},
		PLCCaps:   []float64{50, 50},
	}
	u := UtilitiesWith(nil, n)
	if u[0][0] != unreachableUtility {
		t.Errorf("unreachable utility = %v", u[0][0])
	}
	if u[0][1] != 20 {
		t.Errorf("u[0][1] = %v, want 20", u[0][1])
	}
}

func TestAssignFig3FindsOptimal(t *testing.T) {
	// Phase I alone solves Fig 3 optimally: user 1 -> extender 2,
	// user 2 -> extender 1, total 40 Mbps (the paper's Fig 3d).
	res, err := Assign(fig3Network(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != 1 || res.Assign[1] != 0 {
		t.Fatalf("assign = %v, want [1 0]", res.Assign)
	}
	agg := model.Aggregate(fig3Network(), res.Assign, model.Options{Redistribute: true})
	if math.Abs(agg-40) > 1e-9 {
		t.Errorf("aggregate = %v, want 40", agg)
	}
	if len(res.PhaseIUsers) != 2 {
		t.Errorf("PhaseIUsers = %v, want both users", res.PhaseIUsers)
	}
	if res.PhaseIUtility != 40 {
		t.Errorf("PhaseIUtility = %v, want 40", res.PhaseIUtility)
	}
	if res.Phase2 != nil {
		t.Error("Phase2 should be nil when Phase I covers all users")
	}
}

func TestAssignEmptyNetworkUsers(t *testing.T) {
	n := &model.Network{WiFiRates: nil, PLCCaps: []float64{10}}
	res, err := Assign(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != 0 {
		t.Errorf("assign = %v, want empty", res.Assign)
	}
}

func TestAssignInvalidNetwork(t *testing.T) {
	if _, err := Assign(&model.Network{}, Options{}); err == nil {
		t.Error("want error for empty network")
	}
	if _, err := Assign(fig3Network(), Options{Solver: Phase2Solver(99)}); err == nil {
		t.Error("want error for unknown solver")
	}
}

func TestAssignMoreUsersThanExtenders(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := randomNetwork(rng, 3, 9)
	for _, solver := range []Phase2Solver{Phase2ProjectedGradient, Phase2Coordinate} {
		res, err := Assign(n, Options{Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.PhaseIUsers); got != 3 {
			t.Errorf("solver %d: phase I selected %d users, want 3", solver, got)
		}
		if res.Phase2 == nil {
			t.Fatalf("solver %d: missing phase II diagnostics", solver)
		}
		// Every user assigned and reachable.
		for i, j := range res.Assign {
			if j == model.Unassigned {
				t.Fatalf("solver %d: user %d unassigned", solver, i)
			}
			if n.WiFiRates[i][j] <= 0 {
				t.Fatalf("solver %d: user %d on unreachable extender %d", solver, i, j)
			}
		}
		// Phase I users keep their extender through Phase II.
		members := make([]int, n.NumExtenders())
		for _, j := range res.Assign {
			if j != model.Unassigned {
				members[j]++
			}
		}
		for j, m := range members {
			if m == 0 {
				t.Errorf("solver %d: extender %d has no users despite |U|>|A|", solver, j)
			}
		}
	}
}

func TestAssignFewerUsersThanExtenders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := randomNetwork(rng, 6, 3)
	res, err := Assign(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseIUsers) != 3 {
		t.Errorf("phase I selected %d users, want all 3", len(res.PhaseIUsers))
	}
	if res.Assign.NumAssigned() != 3 {
		t.Errorf("assigned %d users, want 3", res.Assign.NumAssigned())
	}
}

func TestAssignNearOptimalSmallInstances(t *testing.T) {
	// WOLT is a heuristic for an NP-hard problem; on small random
	// instances it should stay close to the brute-force optimum under
	// the full redistribution model.
	rng := rand.New(rand.NewSource(77))
	opts := model.Options{Redistribute: true}
	var totalWolt, totalOpt float64
	for trial := 0; trial < 40; trial++ {
		n := randomNetwork(rng, 2+rng.Intn(2), 3+rng.Intn(4))
		res, err := Assign(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		woltAgg := model.Aggregate(n, res.Assign, opts)
		_, optAgg, err := baseline.Optimal(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if woltAgg > optAgg+1e-9 {
			t.Fatalf("trial %d: WOLT %v beats brute force %v (impossible)", trial, woltAgg, optAgg)
		}
		if woltAgg < 0.6*optAgg {
			t.Errorf("trial %d: WOLT %v far below optimum %v", trial, woltAgg, optAgg)
		}
		totalWolt += woltAgg
		totalOpt += optAgg
	}
	if totalWolt < 0.85*totalOpt {
		t.Errorf("aggregate optimality ratio %v below 0.85", totalWolt/totalOpt)
	}
}

func TestAssignBeatsRSSIOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	opts := model.Options{Redistribute: true}
	var wolt, rssi float64
	for trial := 0; trial < 30; trial++ {
		n := randomNetwork(rng, 3, 10)
		res, err := Assign(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wolt += model.Aggregate(n, res.Assign, opts)
		ra, err := baseline.RSSIByRate(n)
		if err != nil {
			t.Fatal(err)
		}
		rssi += model.Aggregate(n, ra, opts)
	}
	if wolt <= rssi {
		t.Errorf("WOLT total %v not above RSSI total %v", wolt, rssi)
	}
}

func TestLemma1Improves(t *testing.T) {
	tests := []struct {
		name    string
		members []float64
		r       float64
		want    bool
	}{
		{name: "empty cell always improves", members: nil, r: 10, want: true},
		{name: "equal rate preserves", members: []float64{10, 10}, r: 10, want: true},
		{name: "faster user improves", members: []float64{10}, r: 50, want: true},
		{name: "slower user degrades", members: []float64{50}, r: 10, want: false},
		{name: "non-positive rate", members: []float64{10}, r: 0, want: false},
		{name: "broken member", members: []float64{0}, r: 10, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Lemma1Improves(tt.members, tt.r); got != tt.want {
				t.Errorf("Lemma1Improves = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestLemma1MatchesObjective(t *testing.T) {
	// Property: when Lemma1Improves says yes, adding the user must not
	// decrease the cell's aggregate WiFi throughput, and vice versa.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(5)
		members := make([]float64, k)
		for i := range members {
			members[i] = 1 + rng.Float64()*53
		}
		r := 1 + rng.Float64()*53
		before := model.WiFiAggregate(members)
		after := model.WiFiAggregate(append(append([]float64(nil), members...), r))
		improves := Lemma1Improves(members, r)
		if improves && after < before-1e-9 {
			t.Fatalf("lemma says improves but %v -> %v (members %v, r %v)", before, after, members, r)
		}
		if !improves && after > before+1e-9 {
			t.Fatalf("lemma says degrades but %v -> %v (members %v, r %v)", before, after, members, r)
		}
	}
}

// randomNetwork builds a random dense network with rates in (1,54] and
// PLC capacities in [20,160].
func randomNetwork(rng *rand.Rand, numExt, numUsers int) *model.Network {
	caps := make([]float64, numExt)
	for j := range caps {
		caps[j] = 20 + rng.Float64()*140
	}
	rates := make([][]float64, numUsers)
	for i := range rates {
		rates[i] = make([]float64, numExt)
		for j := range rates[i] {
			rates[i][j] = 1 + rng.Float64()*53
		}
	}
	return &model.Network{WiFiRates: rates, PLCCaps: caps}
}

// Lemma1Improves reports whether, per Lemma 1, connecting a user with WiFi
// rate r to a cell whose current members have the given rates increases
// (or preserves) the cell's aggregate WiFi throughput. The condition is
// that the user's inverse rate does not exceed the cell's mean inverse
// rate: 1/r ≤ (1/|N|)·Σ 1/r_i.
func Lemma1Improves(memberRates []float64, r float64) bool {
	if r <= 0 {
		return false
	}
	if len(memberRates) == 0 {
		return true
	}
	var invSum float64
	for _, m := range memberRates {
		if m <= 0 {
			return false
		}
		invSum += 1 / m
	}
	return 1/r <= invSum/float64(len(memberRates))
}
