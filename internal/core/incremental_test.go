package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/stats"
)

var redistribute = model.Options{Redistribute: true}

func TestIncrementalValidation(t *testing.T) {
	n := fig3Network()
	if _, err := AssignIncremental(n, model.Assignment{0}, 1, Options{}, redistribute); err == nil {
		t.Error("short prev: want error")
	}
	if _, err := AssignIncremental(&model.Network{}, nil, 1, Options{}, redistribute); err == nil {
		t.Error("invalid network: want error")
	}
}

func TestIncrementalZeroBudgetOnlyPlacesArrivals(t *testing.T) {
	n := fig3Network()
	// Both users currently on extender 0 (the RSSI state); zero budget.
	prev := model.Assignment{0, 0}
	res, err := AssignIncremental(n, prev, 0, Options{}, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) != 0 {
		t.Errorf("moved %v with zero budget", res.Moves)
	}
	if res.Assign.Diff(prev) != 0 {
		t.Errorf("assignment changed: %v", res.Assign)
	}
	if math.Abs(res.AchievedAggregate-240.0/11.0) > 1e-9 {
		t.Errorf("achieved = %v, want RSSI's 21.8", res.AchievedAggregate)
	}
	if math.Abs(res.TargetAggregate-40) > 1e-9 {
		t.Errorf("target = %v, want 40", res.TargetAggregate)
	}
}

func TestIncrementalArrivalsAreFree(t *testing.T) {
	n := fig3Network()
	prev := model.Assignment{model.Unassigned, model.Unassigned}
	res, err := AssignIncremental(n, prev, 0, Options{}, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placed) != 2 {
		t.Errorf("placed = %v, want both users", res.Placed)
	}
	if len(res.Moves) != 0 {
		t.Errorf("moves = %v, want none", res.Moves)
	}
	// Arrivals land on the WOLT target directly: aggregate 40.
	if math.Abs(res.AchievedAggregate-40) > 1e-9 {
		t.Errorf("achieved = %v, want 40", res.AchievedAggregate)
	}
}

func TestIncrementalUnlimitedBudgetReachesTarget(t *testing.T) {
	n := fig3Network()
	res, err := AssignIncremental(n, model.Assignment{0, 0}, -1, Options{}, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	if res.AchievedAggregate < res.TargetAggregate-1e-9 {
		t.Errorf("achieved %v below target %v with unlimited budget",
			res.AchievedAggregate, res.TargetAggregate)
	}
}

func TestIncrementalMonotoneInBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := randomNetwork(rng, 4, 12)
		prev, err := randomValid(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		prevAgg := model.Aggregate(n, prev, redistribute)
		last := prevAgg
		for budget := 0; budget <= 6; budget++ {
			res, err := AssignIncremental(n, prev, budget, Options{}, redistribute)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Moves) > budget {
				t.Fatalf("budget %d: %d moves", budget, len(res.Moves))
			}
			if res.AchievedAggregate < last-1e-9 {
				t.Fatalf("trial %d: aggregate decreased with budget %d: %v -> %v",
					trial, budget, last, res.AchievedAggregate)
			}
			last = res.AchievedAggregate
		}
		if last < prevAgg-1e-9 {
			t.Fatalf("incremental made things worse: %v -> %v", prevAgg, last)
		}
	}
}

func TestIncrementalEveryMoveHelps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := randomNetwork(rng, 3, 10)
	prev, err := randomValid(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AssignIncremental(n, prev, -1, Options{}, redistribute)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the moves one at a time: the aggregate must be
	// non-decreasing after each.
	assign := prev.Clone()
	agg := model.Aggregate(n, assign, redistribute)
	targetRes, err := Assign(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, user := range res.Moves {
		assign[user] = targetRes.Assign[user]
		next := model.Aggregate(n, assign, redistribute)
		if next < agg-1e-9 {
			t.Fatalf("move of user %d decreased aggregate %v -> %v", user, agg, next)
		}
		agg = next
	}
}

// proportionalFairOptions selects the proportional-fairness Phase II
// (the α=1 utility over the coordinate solver), as
// wolt.AssignProportionalFair does.
var proportionalFairOptions = Options{Utility: model.ProportionalFairness(), Solver: Phase2Coordinate}

func TestProportionalFairTradeoff(t *testing.T) {
	// The fair variant should give up little aggregate throughput and
	// not be less fair (Jain) than plain WOLT on random instances,
	// on average.
	rng := rand.New(rand.NewSource(44))
	var aggPlain, aggFair, jainPlain, jainFair float64
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		n := randomNetwork(rng, 4, 16)
		plain, err := Assign(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fair, err := Assign(n, proportionalFairOptions)
		if err != nil {
			t.Fatal(err)
		}
		evalPlain, err := model.Evaluate(n, plain.Assign, redistribute)
		if err != nil {
			t.Fatal(err)
		}
		evalFair, err := model.Evaluate(n, fair.Assign, redistribute)
		if err != nil {
			t.Fatal(err)
		}
		aggPlain += evalPlain.Aggregate
		aggFair += evalFair.Aggregate
		jainPlain += stats.JainIndex(evalPlain.PerUser)
		jainFair += stats.JainIndex(evalFair.PerUser)
	}
	if jainFair < jainPlain {
		t.Errorf("fair variant less fair on average: Jain %v vs %v",
			jainFair/trials, jainPlain/trials)
	}
	if aggFair < 0.6*aggPlain {
		t.Errorf("fair variant sacrificed too much throughput: %v vs %v",
			aggFair/trials, aggPlain/trials)
	}
}

func TestProportionalFairCompleteAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := randomNetwork(rng, 3, 9)
	res, err := Assign(n, proportionalFairOptions)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range res.Assign {
		if j == model.Unassigned || n.WiFiRates[i][j] <= 0 {
			t.Fatalf("user %d invalidly assigned to %d", i, j)
		}
	}
	// Phase I users keep their seats.
	for _, i := range res.PhaseIUsers {
		if res.Assign[i] == model.Unassigned {
			t.Fatalf("phase-I user %d lost its seat", i)
		}
	}
}

func TestProportionalFairFewUsers(t *testing.T) {
	// |U| <= |A|: the fair variant degenerates to plain Phase I.
	rng := rand.New(rand.NewSource(3))
	n := randomNetwork(rng, 5, 3)
	res, err := Assign(n, proportionalFairOptions)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign.NumAssigned() != 3 {
		t.Errorf("assigned %d users, want 3", res.Assign.NumAssigned())
	}
}

// randomValid draws a random complete assignment over reachable extenders.
func randomValid(n *model.Network, rng *rand.Rand) (model.Assignment, error) {
	assign := make(model.Assignment, n.NumUsers())
	for i := range assign {
		var reachable []int
		for j, r := range n.WiFiRates[i] {
			if r > 0 {
				reachable = append(reachable, j)
			}
		}
		assign[i] = reachable[rng.Intn(len(reachable))]
	}
	return assign, nil
}
