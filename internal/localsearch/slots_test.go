package localsearch

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

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
// agrees too, and so does Place.
func TestSearchFollowsKeyOrder(t *testing.T) {
	for base := int64(0); base < 12; base++ {
		for _, method := range allMethods {
			n, a := searchInstance(base, 6, 60)
			rng := seed.Rand(base, seed.LocalSearchFuzz, 6)
			s, sa, rows := scrambled(rng, n, a)
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
				// The next round starts with an arrival placed online and
				// a fresh scan for one user.
				k := rng.Intn(len(a))
				row := searchRow(rng, n.NumExtenders())
				if j := a[k]; j != model.Unassigned && row[j] <= 0 {
					row[j] = 30
				}
				n.SetRow(k, row)
				s.SetRow(rows[k], row)
				arrival := searchRow(rng, n.NumExtenders())
				n.InsertRow(n.NumUsers(), arrival)
				s.AppendRow(len(a), arrival)
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
	}
}
