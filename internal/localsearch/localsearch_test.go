package localsearch

import (
	"slices"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// searchInstance builds a random network (with unreachable links) and a
// random partial assignment from the LocalSearchFuzz stream of base —
// the same shape as the delta-vs-full harness in internal/model.
func searchInstance(base int64, numExt, numUsers int) (*model.Network, model.Assignment) {
	rng := seed.Rand(base, seed.LocalSearchFuzz, 0)
	n := &model.Network{
		WiFiRates: make([][]float64, numUsers),
		PLCCaps:   make([]float64, numExt),
	}
	for j := range n.PLCCaps {
		n.PLCCaps[j] = 10 + rng.Float64()*150
	}
	a := make(model.Assignment, numUsers)
	for i := range n.WiFiRates {
		row := make([]float64, numExt)
		var reach []int
		for j := range row {
			if rng.Float64() < 0.25 {
				row[j] = 0
			} else {
				row[j] = 1 + rng.Float64()*60
				reach = append(reach, j)
			}
		}
		n.WiFiRates[i] = row
		if len(reach) == 0 || rng.Float64() < 0.3 {
			a[i] = model.Unassigned
		} else {
			a[i] = reach[rng.Intn(len(reach))]
		}
	}
	return n, a
}

var allMethods = []Method{HillClimbing, KOpt, Annealing}

// checkResult asserts the anytime contract's verifiable half: the
// returned assignment is valid, its fresh full evaluation is
// bit-identical to the reported aggregate, and the search never
// returned something worse than its own starting point.
func checkResult(t *testing.T, n *model.Network, res *Result, opts Options) *model.Result {
	t.Helper()
	var scratch model.EvalScratch
	full, err := model.EvaluateWith(&scratch, n, res.Assign, opts.Model)
	if err != nil {
		t.Fatalf("returned assignment invalid: %v", err)
	}
	if full.Aggregate != res.Aggregate {
		t.Fatalf("aggregate %v != fresh EvaluateWith %v (must be bit-identical)", res.Aggregate, full.Aggregate)
	}
	if res.Aggregate < res.Start {
		t.Fatalf("search lost ground: aggregate %v < start %v", res.Aggregate, res.Start)
	}
	if len(res.Trajectory) == 0 || res.Trajectory[len(res.Trajectory)-1] != res.Aggregate {
		t.Fatalf("trajectory %v does not end at aggregate %v", res.Trajectory, res.Aggregate)
	}
	for k := 1; k < len(res.Trajectory); k++ {
		if res.Trajectory[k] <= res.Trajectory[k-1] {
			t.Fatalf("trajectory not strictly increasing at %d: %v", k, res.Trajectory)
		}
	}
	return full
}

// TestSearchMatchesFullEvaluation is the differential test of the
// tentpole acceptance criterion: for every method, every budget, and
// several instances, the end state equals a fresh full evaluation.
func TestSearchMatchesFullEvaluation(t *testing.T) {
	for _, base := range []int64{1, 7, 42, 2020} {
		for _, method := range allMethods {
			for _, probes := range []int{0, 50, 5000} {
				n, start := searchInstance(base, 6, 40)
				var s Searcher
				opts := Options{Seed: base, Budget: Budget{Probes: probes}}
				res, err := s.Search(n, start, method, opts)
				if err != nil {
					t.Fatalf("base=%d %v probes=%d: %v", base, method, probes, err)
				}
				checkResult(t, n, res, opts)
			}
		}
	}
}

// TestSearchImprovesOverStart: on a deliberately bad start (everyone
// on their worst reachable link), hill climbing must find improving
// moves and strictly beat the seed.
func TestSearchImprovesOverStart(t *testing.T) {
	n, _ := searchInstance(3, 6, 40)
	start := make(model.Assignment, n.NumUsers())
	for i := range start {
		start[i] = model.Unassigned
		worst := 0.0
		for j, r := range n.WiFiRates[i] {
			if r > 0 && (start[i] == model.Unassigned || r < worst) {
				start[i], worst = j, r
			}
		}
	}
	var s Searcher
	opts := Options{}
	res, err := s.Search(n, start, HillClimbing, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, n, res, opts)
	if res.Aggregate <= res.Start {
		t.Fatalf("hill climb found nothing: start %v aggregate %v", res.Start, res.Aggregate)
	}
	if res.Stop != StopOptimum {
		t.Fatalf("unbudgeted climb should end at an optimum, got %v", res.Stop)
	}
	if res.Improving == 0 || res.Commits == 0 || res.Probes == 0 {
		t.Fatalf("counters not populated: %+v", res)
	}
}

// TestKOptAtLeastHillClimb: k-opt starts from the hill-climb optimum,
// so with unlimited budget it can never end below it.
func TestKOptAtLeastHillClimb(t *testing.T) {
	for _, base := range []int64{5, 11, 17} {
		n, start := searchInstance(base, 8, 60)
		var s Searcher
		hc, err := s.Search(n, start.Clone(), HillClimbing, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The next Search on s overwrites hc, the Searcher's own Result.
		hcAgg := hc.Aggregate
		ko, err := s.Search(n, start.Clone(), KOpt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ko.Aggregate < hcAgg {
			t.Fatalf("base=%d: k-opt %v < hill climb %v", base, ko.Aggregate, hcAgg)
		}
	}
}

// TestSearchPlacesArrivals: Unassigned users in the start are placed
// for free, even under a zero move budget.
func TestSearchPlacesArrivals(t *testing.T) {
	n, start := searchInstance(9, 6, 30)
	unassigned := 0
	for _, j := range start {
		if j == model.Unassigned {
			unassigned++
		}
	}
	if unassigned == 0 {
		t.Fatal("instance has no arrivals; pick another seed")
	}
	// A move budget of 1 commits at most one re-association, but
	// placements stay free: every reachable arrival must end assigned.
	var s Searcher
	opts := Options{Budget: Budget{Moves: 1}}
	res, err := s.Search(n, start, HillClimbing, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, n, res, opts)
	for i, j := range res.Assign {
		if j == model.Unassigned {
			// Only users with no reachable extender may stay out.
			for _, r := range n.WiFiRates[i] {
				if r > 0 {
					t.Fatalf("user %d left unassigned despite reachable links", i)
				}
			}
		}
	}
	if res.Placed == 0 {
		t.Fatal("Placed not counted")
	}
}

// TestSearchProbeBudgetExact: the probe budget is a hard cap on delta
// probes, and the stop reason says so.
func TestSearchProbeBudgetExact(t *testing.T) {
	n, start := searchInstance(21, 8, 80)
	for _, budget := range []int{1, 10, 100, 1000} {
		var s Searcher
		opts := Options{Seed: 21, Budget: Budget{Probes: budget}}
		res, err := s.Search(n, start.Clone(), HillClimbing, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probes > budget {
			t.Fatalf("budget %d: %d probes evaluated", budget, res.Probes)
		}
		checkResult(t, n, res, opts)
	}
}

// TestSearchDeterministic: with probe budgets (never time), the result
// is a pure function of (network, start, options) — byte-for-byte
// across repeated runs and across fresh vs reused Searchers.
func TestSearchDeterministic(t *testing.T) {
	n, start := searchInstance(31, 8, 60)
	for _, method := range allMethods {
		opts := Options{Seed: 31, Budget: Budget{Probes: 4000}}
		var s1 Searcher
		r1, err := s1.Search(n, start.Clone(), method, opts)
		if err != nil {
			t.Fatal(err)
		}
		var s2 Searcher
		// Warm the second searcher with an unrelated search first: the
		// reused scratch must not leak into the next result.
		if _, err := s2.Search(n, start.Clone(), Annealing, Options{Seed: 99, Budget: Budget{Probes: 500}}); err != nil {
			t.Fatal(err)
		}
		r2, err := s2.Search(n, start.Clone(), method, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Aggregate != r2.Aggregate || r1.Probes != r2.Probes || r1.Commits != r2.Commits {
			t.Fatalf("%v: runs diverged: (%v,%d,%d) vs (%v,%d,%d)", method,
				r1.Aggregate, r1.Probes, r1.Commits, r2.Aggregate, r2.Probes, r2.Commits)
		}
		for i := range r1.Assign {
			if r1.Assign[i] != r2.Assign[i] {
				t.Fatalf("%v: assignments diverged at user %d", method, i)
			}
		}
	}
}

// TestCandidatesCache pins the cache contract: rate-descending order
// with index tie-breaks, truncation to M, rebuild on Invalidate, and
// no rebuild while the generation is unchanged.
func TestCandidatesCache(t *testing.T) {
	n := &model.Network{
		WiFiRates: [][]float64{{10, 50, 50, 0, 30}},
		PLCCaps:   []float64{100, 100, 100, 100, 100},
	}
	var c Candidates
	c.Ensure(n, 3)
	got := c.For(0)
	want := []int{1, 2, 4} // 50 (idx 1), 50 (idx 2), 30 — the 10 and 0 links truncated
	if len(got) != len(want) {
		t.Fatalf("For(0) = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("For(0) = %v, want %v", got, want)
		}
	}

	// Same generation: Ensure must keep the backing array.
	before := &c.flat[0]
	c.Ensure(n, 3)
	if &c.flat[0] != before {
		t.Fatal("Ensure rebuilt without a generation change")
	}

	// Mutate + Invalidate: the next Ensure sees the new rates.
	n.WiFiRates[0][3] = 60
	n.Invalidate()
	c.Ensure(n, 3)
	got = c.For(0)
	want = []int{3, 1, 2}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("after Invalidate: For(0) = %v, want %v", got, want)
		}
	}

	// M <= 0 means all reachable links (all 5 once index 3 has a rate).
	c.Ensure(n, -1)
	if len(c.For(0)) != 5 {
		t.Fatalf("M=-1: got %d candidates, want 5 reachable", len(c.For(0)))
	}
}

// TestSearchInvalidStart: validation errors from the evaluator
// propagate instead of panicking or silently proceeding.
func TestSearchInvalidStart(t *testing.T) {
	n, start := searchInstance(37, 6, 20)
	bad := start.Clone()
	bad[0] = n.NumExtenders() + 5
	var s Searcher
	if _, err := s.Search(n, bad, HillClimbing, Options{}); err == nil {
		t.Fatal("expected validation error for out-of-range assignment")
	}
}

// FuzzSearchVsFull drives all three methods over fuzzer-chosen
// instances and budgets, holding the bit-identity invariant: the end
// state must equal a fresh full EvaluateWith. It also holds the
// in-place contract: the end state is the caller's start, edited, and
// a second searcher started from a copy of the original start reaches
// the same assignment.
func FuzzSearchVsFull(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(24), uint16(400), uint8(0))
	f.Add(int64(42), uint8(8), uint8(60), uint16(2000), uint8(1))
	f.Add(int64(7), uint8(3), uint8(10), uint16(0), uint8(2))
	f.Fuzz(func(t *testing.T, base int64, numExt, numUsers uint8, probes uint16, method uint8) {
		ne := 1 + int(numExt)%16
		nu := 1 + int(numUsers)%96
		m := allMethods[int(method)%len(allMethods)]
		n, start := searchInstance(base, ne, nu)
		var s Searcher
		opts := Options{Seed: base, Budget: Budget{Probes: int(probes)}}
		if m == Annealing && opts.Budget.Probes == 0 {
			// Unbudgeted annealing runs the full fixed cooling
			// schedule (~14k steps); keep fuzz iterations fast.
			opts.Budget.Probes = 3000
		}
		orig := start.Clone()
		res, err := s.Search(n, start, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		var scratch model.EvalScratch
		full, err := model.EvaluateWith(&scratch, n, res.Assign, opts.Model)
		if err != nil {
			t.Fatalf("invalid end state: %v", err)
		}
		if full.Aggregate != res.Aggregate {
			t.Fatalf("aggregate %v != fresh %v", res.Aggregate, full.Aggregate)
		}
		if res.Aggregate < res.Start {
			t.Fatalf("lost ground: %v < %v", res.Aggregate, res.Start)
		}
		inPlace, err := model.EvaluateWith(&scratch, n, start, opts.Model)
		if err != nil {
			t.Fatalf("invalid start after search: %v", err)
		}
		if !slices.Equal(start, res.Assign) || inPlace.Aggregate != res.Aggregate {
			t.Fatalf("start %v (aggregate %v) is not the end state %v (aggregate %v)",
				start, inPlace.Aggregate, res.Assign, res.Aggregate)
		}
		var s2 Searcher
		if _, err := s2.Search(n, orig, m, opts); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(orig, start) {
			t.Fatalf("search from a copy of the start reached %v, want %v", orig, start)
		}
	})
}
