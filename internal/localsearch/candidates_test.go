package localsearch

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// eagerCandidates is the reference neighbourhood build: every user's
// top-m reachable extenders by (rate desc, index asc), computed for all
// users up front with the same insertion selection the lazy fill uses.
func eagerCandidates(n *model.Network, m int) [][]int {
	if m <= 0 || m > n.NumExtenders() {
		m = n.NumExtenders()
	}
	out := make([][]int, n.NumUsers())
	for i, row := range n.WiFiRates {
		var sel []int
		var rate []float64
		for j, r := range row {
			if r <= 0 {
				continue
			}
			k := len(sel)
			for k > 0 && rate[k-1] < r {
				k--
			}
			if k == m {
				continue
			}
			if len(sel) < m {
				sel = append(sel, 0)
				rate = append(rate, 0)
			}
			copy(sel[k+1:], sel[k:])
			copy(rate[k+1:], rate[k:])
			sel[k], rate[k] = j, r
		}
		out[i] = sel
	}
	return out
}

// tieNetwork draws rates from a handful of PHY steps, so equal-rate
// ties are common, with unreachable links and some fully unreachable
// users.
func tieNetwork(rng *rand.Rand, numExt, numUsers int) *model.Network {
	steps := []float64{6, 12, 12, 24, 54}
	n := &model.Network{
		WiFiRates: make([][]float64, numUsers),
		PLCCaps:   make([]float64, numExt),
	}
	for j := range n.PLCCaps {
		n.PLCCaps[j] = 50 + 100*rng.Float64()
	}
	for i := range n.WiFiRates {
		row := make([]float64, numExt)
		if rng.Intn(8) != 0 {
			for j := range row {
				if rng.Intn(3) != 0 {
					row[j] = steps[rng.Intn(len(steps))]
				}
			}
		}
		n.WiFiRates[i] = row
	}
	return n
}

// TestCandidatesLazyMatchesEager: whatever subset of users a caller
// asks for between Ensure calls, For(i) equals the eager reference for
// the current network — across neighbourhood sizes below, at and above
// the reachable count, equal-rate ties, unreachable entries, user
// counts that shrink and grow, and in-place edits that bump the
// generation (a slot filled before the bump must never be returned).
func TestCandidatesLazyMatchesEager(t *testing.T) {
	rng := seed.Rand(7, seed.LocalSearchFuzz, 0)
	var c Candidates
	n := tieNetwork(rng, 6, 20)
	for step := 0; step < 60; step++ {
		switch rng.Intn(3) {
		case 0: // a different network, often with a different user count
			n = tieNetwork(rng, 1+rng.Intn(8), 1+rng.Intn(40))
		case 1: // in-place edit of rows that may already be cached
			for k := 0; k < 3; k++ {
				i := rng.Intn(n.NumUsers())
				j := rng.Intn(n.NumExtenders())
				n.WiFiRates[i][j] = []float64{0, 6, 12, 54}[rng.Intn(4)]
			}
			n.Invalidate()
		case 2: // same network and generation: Ensure must be a no-op
		}
		m := []int{-1, 0, 1, 2, 3, 8}[rng.Intn(6)]
		c.Ensure(n, m)
		want := eagerCandidates(n, m)
		// Ask for a random subset, some users twice.
		for q := 0; q < n.NumUsers(); q++ {
			i := rng.Intn(n.NumUsers())
			if got := c.For(i); !slices.Equal(got, want[i]) {
				t.Fatalf("step %d (m=%d): For(%d) = %v, want %v (row %v)",
					step, m, i, got, want[i], n.WiFiRates[i])
			}
		}
		// Every slot handed out must still hold its user's list.
		for i := range want {
			if got := c.For(i); !slices.Equal(got, want[i]) {
				t.Fatalf("step %d (m=%d): full scan For(%d) = %v, want %v", step, m, i, got, want[i])
			}
		}
	}
}

// TestCandidatesReplayMatchesFresh: after a batch of logged row edits
// (inserts, removes and sets, some batches longer than the edit log,
// some ending in Invalidate), the replayed cache answers For(i) exactly
// as a fresh cache over the same network does, for every row, whether
// or not the row's slot was filled before the edits.
func TestCandidatesReplayMatchesFresh(t *testing.T) {
	rng := seed.Rand(8, seed.LocalSearchFuzz, 0)
	numExt := 6
	n := keyedNetwork(tieNetwork(rng, numExt, 20))
	row := func() []float64 { return tieNetwork(rng, numExt, 1).WiFiRates[0] }
	var c Candidates
	for step := 0; step < 200; step++ {
		m := []int{0, 2, 3}[step/70]
		c.Ensure(n, m)
		// Fill a random subset, so edits land on filled and stale slots.
		for q := 0; q < n.NumUsers()/2; q++ {
			c.For(rowAt(n, rng.Intn(n.NumUsers())))
		}
		batch := 1 + rng.Intn(5)
		if rng.Intn(15) == 0 {
			batch = 80
		}
		for b := 0; b < batch; b++ {
			switch k := rng.Intn(3); {
			case k == 0 || n.NumUsers() < 2:
				n.AppendRow(keyAt(n, rng.Intn(n.NumUsers()+1)), row())
			case k == 1:
				n.RemoveRow(rowAt(n, rng.Intn(n.NumUsers())))
			default:
				n.SetRow(rowAt(n, rng.Intn(n.NumUsers())), row())
			}
		}
		if rng.Intn(20) == 0 {
			n.Invalidate()
		}
		c.Ensure(n, m)
		var fresh Candidates
		fresh.Ensure(n, m)
		for i := 0; i < n.NumUsers(); i++ {
			if got, want := c.For(i), fresh.For(i); !slices.Equal(got, want) {
				t.Fatalf("step %d (m=%d): replayed For(%d) = %v, fresh %v (row %v)",
					step, m, i, got, want, n.WiFiRates[i])
			}
		}
	}
}
