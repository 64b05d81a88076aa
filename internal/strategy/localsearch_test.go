package strategy

import (
	"math"
	"math/rand"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
)

var lsNames = []string{"wolt-hillclimb", "wolt-kopt", "wolt-anneal"}

// TestLocalSearchWarmReassign: seeding the search from the full WOLT
// solution must never lose quality — the anytime family's warm path
// starts at the previous assignment and only commits improvements (or,
// for anneal, tracks best-so-far).
func TestLocalSearchWarmReassign(t *testing.T) {
	n := testNetwork(t, 24, 4)
	opts := model.Options{Redistribute: true}
	w, err := New("wolt", Config{ModelOpts: opts})
	if err != nil {
		t.Fatal(err)
	}
	full, err := w.Solve(n)
	if err != nil {
		t.Fatal(err)
	}
	var scratch model.EvalScratch
	fullRes, err := model.EvaluateWith(&scratch, n, full, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range lsNames {
		var last Stats
		st, err := New(name, Config{
			ModelOpts: opts,
			Seed:      7,
			Budget:    Budget{Probes: 5000},
			Observer:  func(s Stats) { last = s },
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.(Reassigner).Reassign(n, full.Clone())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := model.EvaluateWith(&scratch, n, got, opts)
		if err != nil {
			t.Fatalf("%s: invalid reassignment: %v", name, err)
		}
		if res.Aggregate < fullRes.Aggregate {
			t.Errorf("%s: warm reassign lost ground: %v < %v", name, res.Aggregate, fullRes.Aggregate)
		}
		if last.Aggregate != res.Aggregate {
			t.Errorf("%s: Stats.Aggregate %v != fresh evaluation %v", name, last.Aggregate, res.Aggregate)
		}
		if last.DeltaProbes == 0 || last.DeltaProbes > 5000 {
			t.Errorf("%s: DeltaProbes = %d, want in (0, 5000]", name, last.DeltaProbes)
		}
		if len(last.Trajectory) == 0 || last.Stop == "" {
			t.Errorf("%s: anytime stats missing: %+v", name, last)
		}
	}
}

// TestHillClimbMoveBudget: Budget.Moves caps the warm repair's moves of
// already-placed users — negative places the arrival only, k moves at
// most k users — and arrivals stay free. A larger move budget never ends
// below the placement-only result, since every commit improves it.
func TestHillClimbMoveBudget(t *testing.T) {
	n := testNetwork(t, 18, 4)
	opts := model.Options{Redistribute: true}
	// A deliberately bad previous state with one arrival: every other
	// user sits on its weakest reachable extender.
	prev := make(model.Assignment, n.NumUsers())
	for i := range prev {
		prev[i] = model.Unassigned
		for j, r := range n.WiFiRates[i] {
			if r > 0 && (prev[i] == model.Unassigned || r < n.WiFiRates[i][prev[i]]) {
				prev[i] = j
			}
		}
	}
	prev[0] = model.Unassigned
	repair := func(moves int) (model.Assignment, float64) {
		t.Helper()
		st, err := New("wolt-hillclimb", Config{ModelOpts: opts, Budget: Budget{Probes: 5000, Moves: moves}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.(Reassigner).Reassign(n, prev.Clone())
		if err != nil {
			t.Fatalf("moves %d: %v", moves, err)
		}
		if got[0] == model.Unassigned {
			t.Fatalf("moves %d: arrival not placed", moves)
		}
		return got, model.Aggregate(n, got, opts)
	}
	moved := func(got model.Assignment) int {
		k := 0
		for i, j := range prev {
			if j != model.Unassigned && got[i] != j {
				k++
			}
		}
		return k
	}

	placed, placedAgg := repair(-1)
	if k := moved(placed); k != 0 {
		t.Errorf("Moves < 0 moved %d existing users", k)
	}
	for _, budget := range []int{1, 2, 3} {
		got, agg := repair(budget)
		if k := moved(got); k > budget {
			t.Errorf("Moves %d moved %d users", budget, k)
		}
		if agg < placedAgg {
			t.Errorf("Moves %d ended at %v, below the placement-only %v", budget, agg, placedAgg)
		}
	}
	if free, _ := repair(0); moved(free) <= 3 {
		t.Fatalf("unlimited repair moved only %d users; the caps above bind nothing", moved(free))
	}
}

// TestLocalSearchOnlineAdd: the Add form places an arrival into a
// partial assignment in place and returns the chosen extender.
func TestLocalSearchOnlineAdd(t *testing.T) {
	n := testNetwork(t, 10, 3)
	for _, name := range lsNames {
		st, err := New(name, Config{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		assign := make(model.Assignment, n.NumUsers())
		for i := range assign {
			assign[i] = model.Unassigned
		}
		for i := 0; i < n.NumUsers(); i++ {
			j, err := st.(Online).Add(n, assign, i)
			if err != nil {
				t.Fatalf("%s: Add(%d): %v", name, i, err)
			}
			if j != assign[i] {
				t.Fatalf("%s: Add returned %d but wrote %d", name, j, assign[i])
			}
		}
		var scratch model.EvalScratch
		if _, err := model.EvaluateWith(&scratch, n, assign, model.Options{}); err != nil {
			t.Fatalf("%s: online-built assignment invalid: %v", name, err)
		}
	}
}

// cityRates is a user's scan on the city harness's deployment geometry
// (internal/city): four extenders on a 60 m grid, PHY rate
// 866/(1+(d/25)³) Mbps, out of reach below 5 Mbps.
func cityRates(x, y float64) []float64 {
	row := make([]float64, 4)
	for j := range row {
		dx, dy := x-60*float64(j%2), y-60*float64(j/2)
		r := 866 / (1 + math.Pow(math.Hypot(dx, dy)/25, 3))
		if r >= 5 {
			row[j] = r
		}
	}
	return row
}

// TestWarmRepairAnswersFromBound drives wolt-hillclimb the way a
// city-churn member does: 1024 users on four extenders with PLC caps of
// 300–800 Mbps, the city model (sum-rate, no redistribution), arrivals
// placed one by one, then 200 roaming rescans each repaired warm under
// a 200-probe budget. Nearly every probe of such a repair cannot beat
// the incumbent, and the evaluator must reject most of them from its
// bound rather than re-summing cells.
func TestWarmRepairAnswersFromBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reassigns []Stats
	st, err := New("wolt-hillclimb", Config{
		Seed:     7,
		Budget:   Budget{Probes: 200},
		Observer: func(s Stats) { reassigns = append(reassigns, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	online, reassigner := st.(Online), st.(Reassigner)

	const users, calls = 1024, 200
	n := &model.Network{PLCCaps: make([]float64, 4)}
	for j := range n.PLCCaps {
		n.PLCCaps[j] = 300 + 500*rng.Float64()
	}
	xs, ys := make([]float64, users), make([]float64, users)
	var assign model.Assignment
	for i := 0; i < users; i++ {
		xs[i], ys[i] = 60*rng.Float64(), 60*rng.Float64()
		n.AppendRow(i, cityRates(xs[i], ys[i]))
		assign = append(assign, model.Unassigned)
		if _, err := online.Add(n, assign, i); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < calls; k++ {
		i := rng.Intn(users)
		theta, step := 2*math.Pi*rng.Float64(), 30*rng.Float64()
		xs[i] = math.Min(60, math.Max(0, xs[i]+step*math.Cos(theta)))
		ys[i] = math.Min(60, math.Max(0, ys[i]+step*math.Sin(theta)))
		row := cityRates(xs[i], ys[i])
		if j := assign[i]; j != model.Unassigned && row[j] <= 0 {
			assign[i] = model.Unassigned // out of reach: the repair re-places it
		}
		n.SetRow(i, row)
		if assign, err = reassigner.Reassign(n, assign); err != nil {
			t.Fatal(err)
		}
	}

	var probes, bounded int
	for _, s := range reassigns {
		probes += s.DeltaProbes
		bounded += s.BoundedProbes
	}
	if len(reassigns) != calls || probes == 0 {
		t.Fatalf("observed %d repairs with %d probes, want %d repairs that probe", len(reassigns), probes, calls)
	}
	if 2*bounded <= probes {
		t.Errorf("bound answered %d of %d warm-repair probes, want most", bounded, probes)
	}
}

// TestLocalSearchReassignAllocs pins the warm repair's allocations:
// once the Searcher has grown to the network, a Reassign without an
// Observer allocates nothing — the search's Result and trajectory are
// the Searcher's own, and only an Observer's Stats gets a copy.
func TestLocalSearchReassignAllocs(t *testing.T) {
	n := testNetwork(t, 40, 6)
	st, err := New("wolt-hillclimb", Config{
		ModelOpts: model.Options{Redistribute: true},
		Budget:    Budget{Probes: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := st.(Reassigner)
	prev := make(model.Assignment, n.NumUsers())
	for i := range prev {
		prev[i] = model.Unassigned
	}
	if _, err := r.Reassign(n, prev); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.Reassign(n, prev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Reassign allocates %v times, want 0", allocs)
	}
}
