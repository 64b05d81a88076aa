package localsearch

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// keyGap spaces the keys keyedNetwork gives, so that keyAt finds a
// fresh key between two neighbours for 40 nested inserts.
const keyGap = 1 << 40

// keyedNetwork returns a keyed network holding n's rows in the same
// order, row i keyed i·keyGap, and sharing n's capacities.
func keyedNetwork(n *model.Network) *model.Network {
	k := &model.Network{PLCCaps: n.PLCCaps}
	for i, row := range n.WiFiRates {
		k.AppendRow(i*keyGap, row)
	}
	return k
}

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

// rowAt returns the row of n that holds the p-th smallest key.
func rowAt(n *model.Network, p int) int { return rowsByKey(n)[p] }

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

// swapDelete removes entry r of a by moving the last entry into it, as
// RemoveRow(r) moves the network's rows.
func swapDelete(a model.Assignment, r int) model.Assignment {
	last := len(a) - 1
	a[r] = a[last]
	return a[:last]
}

// scrambled returns a keyed network holding n's users in a random row
// order, each keyed by its row in n and reached through appends and
// swap-removes (departing users included), a mapped onto its rows, and
// rows, where rows[k] is the row of n's user k.
func scrambled(rng *rand.Rand, n *model.Network, a model.Assignment) (*model.Network, model.Assignment, []int) {
	s := &model.Network{PLCCaps: n.PLCCaps}
	users := n.NumUsers()
	ghost := users
	for _, k := range rng.Perm(users) {
		if rng.Intn(3) == 0 {
			s.AppendRow(ghost, n.WiFiRates[k])
			ghost++
		}
		s.AppendRow(k, n.WiFiRates[k])
	}
	for i := 0; i < s.NumUsers(); {
		if s.Key(i) >= users {
			s.RemoveRow(i)
		} else {
			i++
		}
	}
	rows := make([]int, users)
	for i := range s.WiFiRates {
		rows[s.Key(i)] = i
	}
	sa := make(model.Assignment, users)
	for k, j := range a {
		sa[rows[k]] = j
	}
	return s, sa, rows
}

// TestSearchFollowsKeyOrder: every method, with arrivals to place and
// under tight and unlimited budgets, searches a keyed network whose
// rows sit in any order exactly as it searches the same users in key
// order: same trajectory, counts and stop reason, and the same
// extender for every user. A warm repair after a few owner edits
// agrees too, and so does Place. The second input is an unkeyed
// literal network in key order whose first RemoveRow keys it and moves
// its last row into the freed one; the searcher's evaluator, candidate
// cache, reach counts and visit order replay that edit, and after every
// search each equals a fresh build.
func TestSearchFollowsKeyOrder(t *testing.T) {
	for base := int64(0); base < 12; base++ {
		for _, method := range allMethods {
			for _, literal := range []bool{false, true} {
				checkSearchFollowsKeyOrder(t, base, method, literal)
			}
		}
	}
}

// checkSearchFollowsKeyOrder runs TestSearchFollowsKeyOrder on one
// input: a scrambled keyed network, or the unkeyed literal.
func checkSearchFollowsKeyOrder(t *testing.T, base int64, method Method, literal bool) {
	n, a := searchInstance(base, 6, 60)
	rng := seed.Rand(base, seed.LocalSearchFuzz, 6)
	var s *model.Network
	var sa model.Assignment
	var rows []int
	if literal {
		s = &model.Network{PLCCaps: n.PLCCaps, WiFiRates: slices.Clone(n.WiFiRates)}
		sa, rows = a.Clone(), rowsByKey(n)
	} else {
		s, sa, rows = scrambled(rng, n, a)
	}
	opts := Options{
		Model:  model.Options{Redistribute: base%2 == 0},
		Seed:   base,
		Budget: Budget{Probes: []int{0, 40, 300}[base%3]},
	}
	var ws, gs Searcher
	for step := 0; step < 3; step++ {
		want, err := ws.Search(n, a, method, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gs.Search(s, sa, method, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Probes != want.Probes || got.Bounded != want.Bounded || got.Commits != want.Commits ||
			!slices.Equal(got.Trajectory, want.Trajectory) || got.Stop != want.Stop ||
			got.Aggregate != want.Aggregate || got.Utility != want.Utility || got.Start != want.Start ||
			got.Placed != want.Placed || got.Improving != want.Improving {
			t.Fatalf("base %d %v step %d: scrambled %+v != key order %+v", base, method, step, *got, *want)
		}
		for k := range a {
			if sa[rows[k]] != a[k] {
				t.Fatalf("base %d %v step %d: user %d on %d, key order %d", base, method, step, k, sa[rows[k]], a[k])
			}
		}
		checkFreshCaches(t, &gs, s, sa, opts)
		if literal && step == 0 {
			// User g departs: s moves its last row into g's, and the
			// key-order network is built afresh without g.
			g := rng.Intn(len(a) - 1)
			r, last := rows[g], s.NumUsers()-1
			s.RemoveRow(r)
			sa = swapDelete(sa, r)
			rows = slices.Delete(rows, g, g+1)
			rows[slices.Index(rows, last)] = r
			n = &model.Network{PLCCaps: n.PLCCaps, WiFiRates: slices.Delete(slices.Clone(n.WiFiRates), g, g+1)}
			a = slices.Delete(a, g, g+1)
			ws = Searcher{}
		}
		// The next round starts with an arrival placed online and a
		// fresh scan for one user.
		k := rng.Intn(len(a))
		row := searchRow(rng, n.NumExtenders())
		if j := a[k]; j != model.Unassigned && row[j] <= 0 {
			row[j] = 30
		}
		n.SetRow(k, row)
		s.SetRow(rows[k], row)
		arrival := searchRow(rng, n.NumExtenders())
		n.AppendRow(len(a), arrival)
		s.AppendRow(keyAt(s, s.NumUsers()), arrival)
		rows = append(rows, s.NumUsers()-1)
		a = append(a, model.Unassigned)
		sa = append(sa, model.Unassigned)
		want1, err := ws.Place(n, a, len(a)-1, opts)
		if err != nil {
			t.Fatal(err)
		}
		got1, err := gs.Place(s, sa, len(sa)-1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got1 != want1 {
			t.Fatalf("base %d %v step %d: Place %d, key order %d", base, method, step, got1, want1)
		}
		a[len(a)-1], sa[len(sa)-1] = want1, got1
	}
}

// checkFreshCaches asserts that the searcher's evaluator, synced to
// (n, a) as the next search would, its candidate cache, its reach counts
// and its visit order equal the ones a fresh build on (n, a) gives.
func checkFreshCaches(t *testing.T, s *Searcher, n *model.Network, a model.Assignment, opts Options) {
	t.Helper()
	if err := s.delta.Sync(n, a, opts.Model); err != nil {
		t.Fatal(err)
	}
	var d model.DeltaEval
	if err := d.Attach(n, a, opts.Model); err != nil {
		t.Fatal(err)
	}
	if s.delta.Score() != d.Score() {
		t.Fatalf("evaluator scores %v, fresh %v", s.delta.Score(), d.Score())
	}
	for j := 0; j < n.NumExtenders(); j++ {
		if !slices.Equal(s.delta.Members(j), d.Members(j)) {
			t.Fatalf("cell %d holds %v, fresh %v", j, s.delta.Members(j), d.Members(j))
		}
	}
	var c Candidates
	c.Ensure(n, DefaultNeighborhood)
	for i := range a {
		if !slices.Equal(s.cands.For(i), c.For(i)) {
			t.Fatalf("user %d: candidates %v, fresh %v", i, s.cands.For(i), c.For(i))
		}
	}
	var rc reachCount
	rc.sync(n)
	if !slices.Equal(s.reach.n, rc.n) || s.reach.sum != rc.sum {
		t.Fatalf("reach counts %v (sum %d), fresh %v (sum %d)", s.reach.n, s.reach.sum, rc.n, rc.sum)
	}
	checkRankOrder(t, s, n, opts.Model.Utility, nil)
}
