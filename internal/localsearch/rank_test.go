package localsearch

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

var rankUtilities = []model.Utility{{}, model.AlphaFair(2), model.Utility{MaxMin: true}}

// freshOrder is the reference visit order: every user by descending
// deficit, ties by ascending order key, as sort.Sort arranges it.
type freshOrder struct {
	order   []int
	deficit []float64
	key     []int
}

func (f *freshOrder) Len() int { return len(f.order) }
func (f *freshOrder) Less(a, b int) bool {
	ia, ib := f.order[a], f.order[b]
	if f.deficit[ia] != f.deficit[ib] {
		return f.deficit[ia] > f.deficit[ib]
	}
	return f.key[ia] < f.key[ib]
}
func (f *freshOrder) Swap(a, b int) { f.order[a], f.order[b] = f.order[b], f.order[a] }

// rankCoverage counts the key classes the reference orders contained.
type rankCoverage struct{ posInf, negInf, ties int }

// clone deep-copies the order, so a test can flush it without changing
// what the searcher will do next.
func (r *deficitRank) clone() *deficitRank {
	c := *r
	c.best = slices.Clone(r.best)
	c.key = slices.Clone(r.key)
	c.id = slices.Clone(r.id)
	c.state = slices.Clone(r.state)
	c.pos = slices.Clone(r.pos)
	c.queue = slices.Clone(r.queue)
	c.head = slices.Clone(r.head)
	c.heap = slices.Clone(r.heap)
	return &c
}

// checkRankInvariants asserts the structure's invariants under the
// keys it holds: the head sorted, the heap a heap with exact positions,
// every heap entry after the head's last, every user placed once
// unless queued as new, and the queue holding exactly the users that
// are not clean.
func checkRankInvariants(t testing.TB, r *deficitRank, users int) {
	t.Helper()
	if r.stale {
		return
	}
	if len(r.key) != users || len(r.state) != users || len(r.pos) != users || len(r.best) != users {
		t.Fatalf("rank sized %d/%d/%d/%d for %d users", len(r.key), len(r.state), len(r.pos), len(r.best), users)
	}
	for p := 1; p < len(r.head); p++ {
		if !r.less(r.head[p-1], r.head[p]) {
			t.Fatalf("head out of order at %d: %v", p, r.head)
		}
	}
	for k, u := range r.heap {
		if r.pos[u] != k {
			t.Fatalf("heap entry %d (user %d) has pos %d", k, u, r.pos[u])
		}
		if k > 0 && r.less(u, r.heap[(k-1)/2]) {
			t.Fatalf("heap property broken at %d", k)
		}
	}
	if len(r.head) > 0 && len(r.heap) > 0 && !r.less(r.head[len(r.head)-1], r.heap[0]) {
		t.Fatalf("heap top %d sorts before head's last %d", r.heap[0], r.head[len(r.head)-1])
	}
	seen := make([]int, users)
	for _, u := range r.head {
		seen[u]++
	}
	for _, u := range r.heap {
		seen[u]++
	}
	queued := 0
	for u, st := range r.state {
		want := 1
		if st == rankNew {
			want = 0
		}
		if seen[u] != want {
			t.Fatalf("user %d (state %d) placed %d times", u, st, seen[u])
		}
		if st != rankClean {
			queued++
			if !slices.Contains(r.queue, u) {
				t.Fatalf("user %d (state %d) not queued", u, st)
			}
		}
	}
	if queued != len(r.queue) {
		t.Fatalf("queue %v holds %d entries for %d queued users", r.queue, len(r.queue), queued)
	}
}

// checkRankOrder asserts that the searcher's persistent order, synced
// and flushed as the next pass would, equals a fresh sort.Sort of the
// committed state's deficits, and that each deficit's row max-scan
// equals the rate of the user's first candidate.
func checkRankOrder(t testing.TB, s *Searcher, n *model.Network, u model.Utility, cov *rankCoverage) {
	t.Helper()
	users := n.NumUsers()
	c := s.rank.clone()
	c.sync(n, u, s.delta.Evals)
	checkRankInvariants(t, c, users)
	c.flush(&s.delta)
	checkRankInvariants(t, c, users)
	var got []int
	for p := 0; ; p++ {
		i := c.at(p)
		if i < 0 {
			break
		}
		got = append(got, i)
	}

	ref := freshOrder{order: make([]int, users), deficit: make([]float64, users), key: make([]int, users)}
	for i, row := range n.WiFiRates {
		ref.order[i], ref.key[i] = i, n.Key(i)
		best := 0.0
		if cand := s.cands.For(i); len(cand) > 0 {
			best = row[cand[0]]
		}
		if bestRate(row) != best || c.best[i] != best {
			t.Fatalf("user %d: max-scan %v, cached %v != For(i)[0] rate %v", i, bestRate(row), c.best[i], best)
		}
		switch from := s.delta.Assigned(i); {
		case best <= 0:
			ref.deficit[i] = math.Inf(-1)
		case from == model.Unassigned:
			ref.deficit[i] = u.Deficit(best, 0)
		default:
			ref.deficit[i] = u.Deficit(best, row[from])
		}
	}
	sort.Sort(&ref)
	if !slices.Equal(got, ref.order) {
		t.Fatalf("utility %+v: persistent order %v != fresh sort %v (deficits %v)", u, got, ref.order, ref.deficit)
	}
	if cov == nil {
		return
	}
	for k, i := range ref.order {
		switch dv := ref.deficit[i]; {
		case math.IsInf(dv, 1):
			cov.posInf++
		case math.IsInf(dv, -1):
			cov.negInf++
		case k > 0 && dv == ref.deficit[ref.order[k-1]]:
			cov.ties++
		}
	}
}

// sameResult asserts two searches returned the same outcome; only
// Attaches may differ (a reused searcher replays what a fresh one
// attaches).
func sameResult(t testing.TB, step int, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Assign, want.Assign) || got.Probes != want.Probes || got.Commits != want.Commits ||
		!slices.Equal(got.Trajectory, want.Trajectory) || got.Stop != want.Stop ||
		got.Aggregate != want.Aggregate || got.Utility != want.Utility || got.Start != want.Start ||
		got.Placed != want.Placed || got.Improving != want.Improving {
		t.Fatalf("step %d: reused searcher %+v != fresh searcher %+v", step, *got, *want)
	}
}

// randomRow draws a tieNetwork-style rate row.
func randomRow(rng *rand.Rand, numExt int) []float64 {
	return tieNetwork(rng, numExt, 1).WiFiRates[0]
}

// reachable returns a random reachable extender of row, or Unassigned.
func reachable(rng *rand.Rand, row []float64) int {
	for _, j := range rng.Perm(len(row)) {
		if row[j] > 0 {
			return j
		}
	}
	return model.Unassigned
}

// checkRankReplay drives one Searcher through a random stream of row
// edits on a keyed network (appends at any key position, removes that
// move the last row into the freed one, sets; some batches longer than
// the edit log, some ending in Invalidate), Place calls,
// hill-climb/k-opt/anneal searches under random probe budgets, utility
// switches and start perturbations that force an evaluator Attach.
// After every Place and search the persistent order must equal a fresh
// sort of the committed state, and every result must equal a fresh
// Searcher's.
func checkRankReplay(t testing.TB, base int64, steps int, util0 int, cov *rankCoverage) {
	rng := seed.Rand(base, seed.LocalSearchFuzz, 3)
	numExt := 1 + rng.Intn(6)
	n := keyedNetwork(tieNetwork(rng, numExt, 1+rng.Intn(40)))
	a := make(model.Assignment, n.NumUsers())
	for i, row := range n.WiFiRates {
		a[i] = model.Unassigned
		if rng.Intn(4) != 0 {
			a[i] = reachable(rng, row)
		}
	}
	u := rankUtilities[util0%len(rankUtilities)]
	opts := func() Options {
		return Options{
			Model:  model.Options{Redistribute: true, Utility: u},
			Seed:   base,
			Budget: Budget{Probes: []int{0, 1, 7, 40, 200}[rng.Intn(5)]},
		}
	}
	var s Searcher
	for step := 0; step < steps; step++ {
		switch rng.Intn(8) {
		case 0, 1: // a batch of row edits, caught up by the next sync
			batch := 1 + rng.Intn(4)
			if rng.Intn(20) == 0 {
				batch = 70
			}
			for b := 0; b < batch; b++ {
				users := n.NumUsers()
				switch k := rng.Intn(3); {
				case k == 0 || users < 2:
					n.AppendRow(keyAt(n, rng.Intn(users+1)), randomRow(rng, numExt))
					a = append(a, model.Unassigned)
				case k == 1:
					row := rowAt(n, rng.Intn(users))
					n.RemoveRow(row)
					a = swapDelete(a, row)
				default:
					row, rates := rowAt(n, rng.Intn(users)), randomRow(rng, numExt)
					if j := a[row]; j != model.Unassigned && rates[j] <= 0 {
						if rng.Intn(4) == 0 {
							a[row] = model.Unassigned // the caller drops the user, as the replay does
						} else {
							rates[j] = 12
						}
					}
					n.SetRow(row, rates)
				}
			}
			if rng.Intn(20) == 0 {
				n.Invalidate()
			}
		case 2: // an arrival placed online
			var free []int
			for _, i := range rowsByKey(n) {
				if a[i] == model.Unassigned {
					free = append(free, i)
				}
			}
			if len(free) == 0 {
				continue
			}
			user, o := free[rng.Intn(len(free))], opts()
			got, err := s.Place(n, a, user, o)
			if err != nil {
				t.Fatal(err)
			}
			var fresh Searcher
			if want, _ := fresh.Place(n, a, user, o); got != want {
				t.Fatalf("step %d: reused Place(%d) = %d, fresh %d", step, user, got, want)
			}
			a[user] = got
			checkRankOrder(t, &s, n, u, cov)
		case 3: // the caller switches utility
			u = rankUtilities[rng.Intn(len(rankUtilities))]
		case 4: // the caller moves a user itself: the next sync attaches
			i := rowAt(n, rng.Intn(n.NumUsers()))
			a[i] = reachable(rng, n.WiFiRates[i])
			n.AssignmentEdited()
		default:
			method, o := allMethods[rng.Intn(len(allMethods))], opts()
			in := a.Clone()
			res, err := s.Search(n, a, method, o)
			if err != nil {
				t.Fatal(err)
			}
			var fresh Searcher
			want, err := fresh.Search(n, in, method, o)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, step, res, want)
			a = res.Assign
			checkRankOrder(t, &s, n, u, cov)
		}
	}
}

// TestSweepOrderReplayMatchesFresh: the hill climb's persistent visit
// order, repaired by replayed row edits, commits, utility switches and
// re-attaches, always equals a fresh sort of the committed state —
// under the sum-rate, α=2 and max-min utilities, for deficits full of
// exact ties, +Inf (unassigned under α-fair) and −Inf (no reachable
// extender).
func TestSweepOrderReplayMatchesFresh(t *testing.T) {
	var cov rankCoverage
	for base := int64(0); base < 24; base++ {
		for k := range rankUtilities {
			checkRankReplay(t, base, 60, k, &cov)
		}
	}
	if cov.posInf == 0 || cov.negInf == 0 || cov.ties == 0 {
		t.Fatalf("instances lack coverage: %d +Inf, %d -Inf, %d finite ties", cov.posInf, cov.negInf, cov.ties)
	}
}

// FuzzSweepOrderReplay is the fuzzing form of
// TestSweepOrderReplayMatchesFresh: any op stream keeps the persistent
// order equal to a fresh sort and every result equal to a fresh
// Searcher's.
func FuzzSweepOrderReplay(f *testing.F) {
	for base := int64(0); base < 6; base++ {
		f.Add(base, uint8(60), uint8(base))
	}
	f.Fuzz(func(t *testing.T, base int64, steps, util uint8) {
		checkRankReplay(t, base, int(steps%120)+1, int(util), nil)
	})
}

// TestSearcherReuseMatchesFresh drives one Searcher through an
// engine-like stream — joins placed online, leaves and rate updates
// each followed by a budgeted repair, the occasional k-opt or anneal —
// and asserts that every step returns exactly what a fresh Searcher
// returns for the same inputs.
func TestSearcherReuseMatchesFresh(t *testing.T) {
	for _, u := range rankUtilities {
		n, a := searchInstance(41, 8, 300)
		n = keyedNetwork(n)
		rng := seed.Rand(41, seed.LocalSearchFuzz, 4)
		var s Searcher
		for step := 0; step < 150; step++ {
			method, probes := HillClimbing, 200
			switch rng.Intn(12) {
			case 0:
				method, probes = KOpt, 500
			case 1:
				method, probes = Annealing, 500
			}
			opts := Options{Model: model.Options{Redistribute: true, Utility: u}, Seed: int64(step), Budget: Budget{Probes: probes}}
			switch rng.Intn(3) {
			case 0: // join
				n.AppendRow(keyAt(n, rng.Intn(n.NumUsers()+1)), searchRow(rng, 8))
				a = append(a, model.Unassigned)
				row := len(a) - 1
				got, err := s.Place(n, a, row, opts)
				if err != nil {
					t.Fatal(err)
				}
				var fresh Searcher
				if want, _ := fresh.Place(n, a, row, opts); got != want {
					t.Fatalf("step %d: reused Place = %d, fresh %d", step, got, want)
				}
				a[row] = got
				continue
			case 1: // leave
				row := rowAt(n, rng.Intn(n.NumUsers()))
				n.RemoveRow(row)
				a = swapDelete(a, row)
			default: // rate update, keeping the current link reachable
				row, rates := rowAt(n, rng.Intn(n.NumUsers())), searchRow(rng, 8)
				if j := a[row]; j != model.Unassigned && rates[j] <= 0 {
					rates[j] = 30
				}
				n.SetRow(row, rates)
			}
			in := a.Clone()
			res, err := s.Search(n, a, method, opts)
			if err != nil {
				t.Fatal(err)
			}
			var fresh Searcher
			want, err := fresh.Search(n, in, method, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, step, res, want)
			a = res.Assign
		}
	}
}

// searchRow draws a searchInstance-style rate row.
func searchRow(rng *rand.Rand, numExt int) []float64 {
	row := make([]float64, numExt)
	for j := range row {
		if rng.Float64() >= 0.25 {
			row[j] = 1 + rng.Float64()*60
		}
	}
	return row
}
