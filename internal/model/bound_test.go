package model

import (
	"math"
	"math/rand"
	"testing"

	"github.com/plcwifi/wolt/internal/seed"
)

// boundInstance builds a network that stresses ProbeMoveBeats' upper
// bound: cell j holds sizes[j] members (zero leaves the extender dark),
// free users start unassigned, member indices interleave across cells,
// rates are log-uniform over 1e-3..1e4 Mbps with one member per cell
// at 1e-3 (a 1/r term that dominates its cell's sum), about a tenth of
// the other links are unreachable, and PLC capacities spread from far
// below to far above the cells' WiFi demands so both sides of the
// probe's min bind.
func boundInstance(rng *rand.Rand, sizes []int, free int) (*Network, Assignment) {
	numExt := len(sizes)
	var cells []int
	for j, sz := range sizes {
		for k := 0; k < sz; k++ {
			cells = append(cells, j)
		}
	}
	for k := 0; k < free; k++ {
		cells = append(cells, Unassigned)
	}
	rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })

	n := &Network{WiFiRates: make([][]float64, len(cells)), PLCCaps: make([]float64, numExt)}
	for j := range n.PLCCaps {
		n.PLCCaps[j] = math.Pow(10, -1+8*rng.Float64())
	}
	dominant := make([]bool, numExt)
	a := make(Assignment, len(cells))
	for i, home := range cells {
		row := make([]float64, numExt)
		for j := range row {
			if j != home && rng.Float64() < 0.1 {
				continue
			}
			row[j] = math.Pow(10, -3+7*rng.Float64())
		}
		if home != Unassigned && !dominant[home] {
			row[home] = 1e-3
			dominant[home] = true
		}
		n.WiFiRates[i] = row
		a[i] = home
	}
	return n, a
}

// boundCases are the cell layouts the bound tests sweep: single-member
// cells, dark extenders, one cell of 4096 members, and mixed sizes.
var boundCases = []struct {
	sizes []int
	free  int
}{
	{[]int{1}, 1},
	{[]int{1, 1}, 0},
	{[]int{1, 2, 3}, 2},
	{[]int{0, 5, 0, 12}, 3},
	{[]int{40, 7, 1, 90, 0}, 4},
	{[]int{256, 256, 256, 256}, 8},
	{[]int{4096, 3, 700}, 5},
}

// boundOptions are the option sets under which ProbeMoveBeats takes
// its bounded path (sum-rate without Redistribute).
var boundOptions = []Options{{}}

// probeUsers returns up to limit users of n, evenly spread.
func probeUsers(n *Network, limit int) []int {
	step := (n.NumUsers() + limit - 1) / limit
	var users []int
	for i := 0; i < n.NumUsers(); i += step {
		users = append(users, i)
	}
	return users
}

// checkBoundIsUpper asserts, for every move of user i, that the bounded
// probe's demands and aggregate are at or above the exact probe's.
func checkBoundIsUpper(t *testing.T, d *DeltaEval, n *Network, i int) {
	t.Helper()
	from := d.Assigned(i)
	for to := Unassigned; to < n.NumExtenders(); to++ {
		if to != Unassigned && n.WiFiRates[i][to] <= 0 {
			continue
		}
		if from != Unassigned && from != to && d.count[from] > 1 {
			d.memoUser = -1
			ub := d.leaveDemand(i, from, true)
			exact := d.leaveDemand(i, from, false)
			if !(ub >= exact) {
				t.Fatalf("user %d leaving %d (%d members): demand bound %v below exact %v",
					i, from, d.count[from], ub, exact)
			}
		}
		if to != Unassigned && to != from {
			ub, exact := d.joinDemand(i, to, true), d.joinDemand(i, to, false)
			if !(ub >= exact) {
				t.Fatalf("user %d joining %d (%d members): demand bound %v below exact %v",
					i, to, d.count[to], ub, exact)
			}
		}
		d.memoUser = -1
		ub, _, _ := d.probe(i, from, to, true)
		exact, _, _ := d.probe(i, from, to, false)
		if !(ub >= exact) {
			t.Fatalf("move %d: %d→%d: aggregate bound %v below exact %v", i, from, to, ub, exact)
		}
		// The memo the exact probe just set must serve the bound too.
		if ub, _, _ = d.probe(i, from, to, true); !(ub >= exact) {
			t.Fatalf("move %d: %d→%d: memoised aggregate bound %v below exact %v", i, from, to, ub, exact)
		}
	}
}

// TestProbeBoundIsUpper pins the bound ProbeMoveBeats rejects from: for
// every probed move, the bounded demands and aggregate are at or above
// the exact probe's, across 1..4096-member cells, dominant terms and
// both PLC sharing rules.
func TestProbeBoundIsUpper(t *testing.T) {
	for ci, c := range boundCases {
		for _, opts := range boundOptions {
			for rep := 0; rep < 3; rep++ {
				rng := seed.Rand(int64(100*ci+rep), seed.DeltaFuzz, 2)
				n, a := boundInstance(rng, c.sizes, c.free)
				var d DeltaEval
				if err := d.Attach(n, a, opts); err != nil {
					t.Fatal(err)
				}
				for _, i := range probeUsers(n, 160) {
					checkBoundIsUpper(t, &d, n, i)
				}
			}
		}
	}
}

// stepUlps moves x by k ulps (toward +Inf for k > 0).
func stepUlps(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// checkBeatsMatchesExact asserts, for every move of user i, that
// ProbeMoveBeats decides exactly as ProbeMoveScore(...).BetterEps does
// for bars straddling the decision boundary — the exact score −eps
// ±4 ulps, for eps = 0 and the search's 1e-12 — returns the exact score
// whenever it says yes, and counts one probe per call.
func checkBeatsMatchesExact(t *testing.T, d *DeltaEval, n *Network, i int) {
	t.Helper()
	from := d.Assigned(i)
	for to := Unassigned; to < n.NumExtenders(); to++ {
		if to != Unassigned && n.WiFiRates[i][to] <= 0 {
			continue
		}
		exact := d.ProbeMoveScore(i, from, to)
		for _, eps := range []float64{0, 1e-12} {
			for k := -4; k <= 4; k++ {
				bar := Score{Primary: stepUlps(exact.Primary-eps, k), Tie: stepUlps(exact.Tie-eps, k)}
				want := exact.BetterEps(bar, eps)
				probes, bounded := d.Probes, d.Bounded
				sc, got := d.ProbeMoveBeats(i, from, to, bar, eps)
				if got != want {
					t.Fatalf("move %d: %d→%d, eps %g, bar %+v (exact %+v): ProbeMoveBeats = %v, exact decision %v",
						i, from, to, eps, bar, exact, got, want)
				}
				if got && sc != exact {
					t.Fatalf("move %d: %d→%d: accepted score %+v, exact %+v", i, from, to, sc, exact)
				}
				if d.Probes != probes+1 {
					t.Fatalf("move %d: %d→%d: one call counted %d probes", i, from, to, d.Probes-probes)
				}
				if d.Bounded > bounded+1 || (got && d.Bounded != bounded) {
					t.Fatalf("move %d: %d→%d: Bounded moved %d on a %v answer", i, from, to, d.Bounded-bounded, got)
				}
			}
		}
	}
}

// TestProbeMoveBeatsMatchesExact pins ProbeMoveBeats' decision to the
// exact comparison on the bound-stressing instances, under the bounded
// option sets and under the ones that keep the exact path.
func TestProbeMoveBeatsMatchesExact(t *testing.T) {
	opts := append(append([]Options(nil), boundOptions...),
		Options{Redistribute: true},
		Options{Utility: ProportionalFairness()},
		Options{Utility: MaxMinFairness()},
	)
	for ci, c := range boundCases {
		for _, o := range opts {
			rng := seed.Rand(int64(ci), seed.DeltaFuzz, 3)
			n, a := boundInstance(rng, c.sizes, c.free)
			var d DeltaEval
			if err := d.Attach(n, a, o); err != nil {
				t.Fatal(err)
			}
			for _, i := range probeUsers(n, 48) {
				checkBeatsMatchesExact(t, &d, n, i)
			}
		}
	}
}

// FuzzProbeMoveBeats runs both bound checks on fuzzed cell layouts,
// option sets and probe targets.
func FuzzProbeMoveBeats(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(0), uint16(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(4096), uint16(3), uint16(1), uint8(1), uint8(7))
	f.Add(int64(3), uint16(17), uint16(0), uint16(250), uint8(2), uint8(3))
	f.Add(int64(4), uint16(2), uint16(2), uint16(2), uint8(3), uint8(200))
	f.Fuzz(func(t *testing.T, base int64, a, b, c uint16, optBits, user uint8) {
		sizes := []int{int(a % 4097), int(b % 300), 0, int(c % 50)}
		free := int(optBits>>2) % 3
		if sizes[0]+sizes[1]+sizes[3]+free == 0 {
			free = 1
		}
		opts := Options{Redistribute: optBits&2 != 0}
		n, assign := boundInstance(seed.Rand(base, seed.DeltaFuzz, 4), sizes, free)
		var d DeltaEval
		if err := d.Attach(n, assign, opts); err != nil {
			t.Fatal(err)
		}
		users := probeUsers(n, 8)
		i := users[int(user)%len(users)]
		if !opts.Redistribute {
			checkBoundIsUpper(t, &d, n, i)
		}
		checkBeatsMatchesExact(t, &d, n, i)
	})
}
