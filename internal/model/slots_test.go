package model

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/plcwifi/wolt/internal/seed"
)

// scrambled returns a keyed network holding n's users in a random row
// order, each keyed by its row in n and reached through appends and
// swap-removes (departing users included), a mapped onto its rows, and
// rows, where rows[k] is the row of n's user k.
func scrambled(rng *rand.Rand, n *Network, a Assignment) (*Network, Assignment, []int) {
	s := &Network{PLCCaps: n.PLCCaps}
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
	sa := make(Assignment, users)
	for k, j := range a {
		sa[rows[k]] = j
	}
	return s, sa, rows
}

// TestKeyedRowsEvaluateInKeyOrder: a keyed network whose rows sit in any
// order evaluates bit-identically to the same users in key order, under
// the full evaluator and the delta evaluator alike — member lists,
// probes and commits included.
func TestKeyedRowsEvaluateInKeyOrder(t *testing.T) {
	for base := int64(0); base < 40; base++ {
		for _, opts := range syncOptions {
			n, a := deltaInstance(base, 5, 30)
			rng := seed.Rand(base, seed.DeltaFuzz, 4)
			s, sa, rows := scrambled(rng, n, a)
			want, err := Evaluate(n, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Evaluate(s, sa, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Aggregate != want.Aggregate || got.Utility != want.Utility {
				t.Fatalf("base %d: aggregate/utility %v/%v, key order %v/%v",
					base, got.Aggregate, got.Utility, want.Aggregate, want.Utility)
			}
			for k := range a {
				if got.PerUser[rows[k]] != want.PerUser[k] {
					t.Fatalf("base %d: user %d gets %v, key order %v", base, k, got.PerUser[rows[k]], want.PerUser[k])
				}
			}

			var d, ref DeltaEval
			if err := d.Attach(s, sa, opts); err != nil {
				t.Fatal(err)
			}
			if err := ref.Attach(n, a, opts); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 20; step++ {
				if d.Aggregate() != ref.Aggregate() || d.Score() != ref.Score() {
					t.Fatalf("base %d step %d: delta %v, key order %v", base, step, d.Aggregate(), ref.Aggregate())
				}
				for j := 0; j < n.NumExtenders(); j++ {
					var keys []int
					for _, i := range d.Members(j) {
						keys = append(keys, s.Key(i))
					}
					if !slices.Equal(keys, ref.Members(j)) {
						t.Fatalf("base %d step %d: cell %d holds keys %v, key order %v", base, step, j, keys, ref.Members(j))
					}
				}
				k := rng.Intn(len(a))
				to := rng.Intn(n.NumExtenders())
				if n.WiFiRates[k][to] <= 0 {
					to = Unassigned
				}
				if d.ProbeMoveScore(rows[k], a[k], to) != ref.ProbeMoveScore(k, a[k], to) {
					t.Fatalf("base %d step %d: probe (%d: %d→%d) diverged", base, step, k, a[k], to)
				}
				d.Commit(rows[k], a[k], to)
				ref.Commit(k, a[k], to)
				a[k] = to
			}
		}
	}
}
