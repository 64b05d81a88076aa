package localsearch

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// oracle is the hill climb without dominance shortcuts: its begin syncs
// the visit order and the candidate cache eagerly, and every probe of
// its climb goes through ProbeMoveBeats. FuzzHillClimbDominated holds
// Searcher.Search to it.
type oracle struct{ s Searcher }

// search is Search(n, start, HillClimbing, opts).
func (o *oracle) search(n *model.Network, start model.Assignment, opts Options) (*Result, error) {
	s := &o.s
	r := &s.run
	r.start(opts.Budget)
	probesBefore, boundedBefore, evalsBefore := s.delta.Probes, s.delta.Bounded, s.delta.Evals
	if err := s.delta.Sync(n, start, opts.Model); err != nil {
		return nil, err
	}
	s.out, s.net = start, n
	s.rank.sync(n, opts.Model.Utility, s.delta.Evals)
	s.cands.Ensure(n, DefaultNeighborhood)
	s.placed, s.commits, s.improving = 0, 0, 0
	s.place(r)
	s.bestScore = s.delta.Score()
	s.annealing = false
	s.traj = append(s.traj[:0], s.bestScore.Primary)
	if !r.halted {
		o.hillClimb(r)
		if !r.halted {
			r.stop = StopOptimum
		}
	}
	res := s.finish(r)
	s.out = nil
	res.Probes = s.delta.Probes - probesBefore
	res.Bounded = s.delta.Bounded - boundedBefore
	res.Attaches = s.delta.Evals - evalsBefore
	return res, nil
}

func (o *oracle) hillClimb(r *run) {
	s := &o.s
	for {
		s.rank.flush(&s.delta)
		committed := false
		for p := 0; ; p++ {
			i := s.rank.at(p)
			if i < 0 {
				break
			}
			from := s.delta.Assigned(i)
			if from == model.Unassigned {
				continue
			}
			bestTo, bestSc := -1, s.bestScore
			for _, to := range s.cands.For(i) {
				if to == from {
					continue
				}
				if !r.takeProbe() {
					break
				}
				if sc, ok := s.delta.ProbeMoveBeats(i, from, to, bestSc, improveEps); ok {
					bestTo, bestSc = to, sc
				}
			}
			if bestTo >= 0 && r.takeMove() {
				s.commit(i, from, bestTo)
				s.noteBest()
				committed = true
			}
			if r.halted {
				return
			}
		}
		if !committed {
			return
		}
	}
}

// sameFullResult asserts that two hill climbs agree on every Result
// field.
func sameFullResult(t testing.TB, step int, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Assign, want.Assign) || got.Aggregate != want.Aggregate ||
		got.Utility != want.Utility || got.Start != want.Start || got.Placed != want.Placed ||
		got.Probes != want.Probes || got.Bounded != want.Bounded || got.Attaches != want.Attaches ||
		got.Commits != want.Commits || got.Improving != want.Improving ||
		!slices.Equal(got.Trajectory, want.Trajectory) || got.Stop != want.Stop {
		t.Fatalf("step %d: search %+v != oracle %+v", step, *got, *want)
	}
}

// dominatedCoverage counts the searches whose first pass a dominated
// state priced whole, by budget relative to that pass's probe count K.
type dominatedCoverage struct{ charged, below, exact, above int }

// domCaps draws PLC capacities scaled by one of four factors, from
// every cell capped to none capped.
func domCaps(rng *rand.Rand, caps []float64) {
	scale := []float64{1e-6, 0.02, 1, 1e6}[rng.Intn(4)]
	for j := range caps {
		caps[j] = scale * (10 + 150*rng.Float64())
	}
}

// domRow draws a rate row; about one row in twenty reaches nothing.
func domRow(rng *rand.Rand, numExt int) []float64 {
	row := make([]float64, numExt)
	if rng.Intn(20) == 0 {
		return row
	}
	for j := range row {
		if rng.Intn(10) < 7 {
			row[j] = 1 + 60*rng.Float64()
		}
	}
	if slices.Max(row) == 0 {
		row[rng.Intn(numExt)] = 1 + 60*rng.Float64()
	}
	return row
}

// passProbes is the probe count of a hill-climb pass over every user
// with a reachable extender: each probes its other candidates.
func passProbes(n *model.Network) int {
	k := 0
	for _, row := range n.WiFiRates {
		if c := min(int(countReachable(row)), DefaultNeighborhood); c > 0 {
			k += c - 1
		}
	}
	return k
}

// checkHillClimbDominated drives a Searcher and an oracle through the
// same warm stream on a keyed network — bursts of row appends at any
// key position, removes that move the last row into the freed one,
// and sets (some longer than the edit log), arrivals placed online or
// left to the next search, PLC capacities rescaled between every cell
// capped and none — and requires every hill climb to return exactly
// the oracle's Result. Most searches run the model dominance covers
// (at most five extenders, so every neighborhood covers them all);
// the rest run Redistribute or a non-sum-rate utility, where no pass
// may be priced. Budgets are unlimited, 1, or K−1, K or K+1 for the
// pass probe count K.
func checkHillClimbDominated(t testing.TB, base int64, steps int, cov *dominatedCoverage) {
	rng := seed.Rand(base, seed.LocalSearchFuzz, 5)
	numExt := 1 + rng.Intn(5)
	n := &model.Network{PLCCaps: make([]float64, numExt)}
	domCaps(rng, n.PLCCaps)
	for u := rng.Intn(48); u > 0; u-- {
		n.WiFiRates = append(n.WiFiRates, domRow(rng, numExt))
	}
	n = keyedNetwork(n)
	a := make(model.Assignment, n.NumUsers())
	for i := range a {
		a[i] = model.Unassigned
	}
	b := a.Clone()
	var s Searcher
	var o oracle
	for step := 0; step < steps; step++ {
		var opts Options
		switch rng.Intn(12) {
		case 0:
			opts.Model.Redistribute = true
		case 1:
			opts.Model.Utility = model.AlphaFair(2)
		case 2:
			opts.Model.Utility = model.Utility{MaxMin: true}
		}
		edits := rng.Intn(4)
		if rng.Intn(15) == 0 {
			edits = 70
		}
		for e := 0; e < edits; e++ {
			users := n.NumUsers()
			switch k := rng.Intn(3); {
			case k == 0 || users < 2:
				n.AppendRow(keyAt(n, rng.Intn(users+1)), domRow(rng, numExt))
				row := users
				a = append(a, model.Unassigned)
				b = append(b, model.Unassigned)
				if rng.Intn(2) == 0 {
					got, err := s.Place(n, a, row, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := o.s.Place(n, b, row, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("step %d: Place(%d) = %d, oracle %d", step, row, got, want)
					}
					a[row], b[row] = got, want
				}
			case k == 1:
				row := rowAt(n, rng.Intn(users))
				n.RemoveRow(row)
				a = swapDelete(a, row)
				b = swapDelete(b, row)
			default:
				row, rates := rowAt(n, rng.Intn(users)), domRow(rng, numExt)
				if j := a[row]; j != model.Unassigned && rates[j] <= 0 {
					rates[j] = 1 + 60*rng.Float64()
				}
				n.SetRow(row, rates)
			}
		}
		if rng.Intn(20) == 0 {
			domCaps(rng, n.PLCCaps)
			n.Invalidate()
		}
		k := passProbes(n)
		switch rng.Intn(6) {
		case 0:
			opts.Budget.Probes = 1
		case 1:
			opts.Budget.Probes = k - 1
		case 2:
			opts.Budget.Probes = k
		case 3:
			opts.Budget.Probes = k + 1
		case 4:
			opts.Budget.Probes = rng.Intn(300)
		}
		got, err := s.Search(n, a, HillClimbing, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := o.search(n, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameFullResult(t, step, got, want)
		if cov != nil && got.Placed == 0 && got.Commits == 0 && got.Probes > 0 &&
			s.unplaced() == 0 && s.delta.Dominated(s.delta.Score(), improveEps) {
			cov.charged++
			switch budget := opts.Budget.Probes; {
			case budget == k-1:
				cov.below++
			case budget == k:
				cov.exact++
			case budget == k+1:
				cov.above++
			}
		}
	}
}

// TestHillClimbDominatedMatchesOracle runs checkHillClimbDominated over
// fixed seeds and requires its streams to price dominated passes under
// budgets just below, at and just above their probe count.
func TestHillClimbDominatedMatchesOracle(t *testing.T) {
	var cov dominatedCoverage
	for base := int64(0); base < 200; base++ {
		checkHillClimbDominated(t, base, 40, &cov)
	}
	if cov.charged == 0 || cov.below == 0 || cov.exact == 0 || cov.above == 0 {
		t.Fatalf("streams lack coverage: %+v", cov)
	}
	t.Logf("%+v", cov)
}

// FuzzHillClimbDominated is the fuzzing form of
// TestHillClimbDominatedMatchesOracle.
func FuzzHillClimbDominated(f *testing.F) {
	for base := int64(0); base < 6; base++ {
		f.Add(base, uint8(40))
	}
	f.Fuzz(func(t *testing.T, base int64, steps uint8) {
		checkHillClimbDominated(t, base, int(steps%80)+1, nil)
	})
}
